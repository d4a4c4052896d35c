// Layer spans for the benchmark's traced run.
//
// The benchmark times each layer from the outside: its own backend
// subclasses and mapping callbacks open a Span around every call into a
// layer.  A span's self time is its duration minus the time covered by the
// spans opened inside it, so the per-layer self times of one session plus
// the session span's own self time (the residual) add up to the session's
// wall time exactly.  Self times are accumulated as spans close; the raw
// span records (name, start, end, parent, session) are kept in memory up
// to a cap and written out when the benchmark ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum Layer : std::uint8_t {
  kSession,           ///< one whole session: setup, run, check (residual)
  kTrafficRecord,     ///< seeded trace generation (src/traffic)
  kElabBuild,         ///< rig, netlist and session construction
  kSessionRun,        ///< VerificationSession::run_until; self = netsim loop
  kSyncPush,          ///< DutBackend::push (ConservativeSync)
  kRtlAdvance,        ///< RtlBackend advance/finish; self = kernel + hw
  kRefAdvance,        ///< ReferenceBackend advance/finish
  kBoardAdvance,      ///< BoardBackend advance/finish
  kMappingStim,       ///< input-apply callbacks (§3.2 stimulus mapping)
  kMappingResp,       ///< monitor / grant callbacks (§3.2 response mapping)
  kSessionDrain,      ///< DutBackend::drain_responses
  kComparatorFinish,  ///< SessionComparator::finish
  kLayerCount
};

const char* layer_name(Layer layer);

/// Self time and call count per layer, over the spans closed since the
/// last take_totals().
struct LayerTotals {
  std::array<double, kLayerCount> self_s{};
  std::array<std::uint64_t, kLayerCount> calls{};

  void add(const LayerTotals& other);
};

class Tracer {
 public:
  /// Raw span records kept for the spans file; later spans still count in
  /// the totals.
  static constexpr std::size_t kMaxRecords = 1u << 18;

  void open(Layer layer);
  void close();

  /// Tags the spans opened from now on.
  void set_session(std::uint32_t id) { session_ = id; }
  /// Returns and clears the accumulated per-layer totals.
  LayerTotals take_totals();

  std::size_t recorded() const { return records_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  /// Writes every kept span as JSON; returns false when the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  struct Frame {
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t record;  ///< index into records_, -1 when not kept
    Layer layer;
  };
  struct Record {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< record index of the enclosing span, or -1
    std::uint32_t session;
    Layer layer;
  };

  std::vector<Frame> stack_;
  std::vector<Record> records_;
  std::uint64_t dropped_ = 0;
  std::uint32_t session_ = 0;
  LayerTotals totals_;
};

/// RAII span; a null tracer makes it a no-op (the untraced runs).
class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(layer);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
