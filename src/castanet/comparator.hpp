// The "=?" of Fig. 1: comparing DUT responses against the algorithm
// reference model at the system level.
//
// ATM guarantees cell order within a virtual connection, so the comparator
// matches per-VC FIFO streams: each actual (DUT) cell is checked against the
// oldest outstanding expected (reference) cell of the same VC.  Header and
// payload are compared separately so a translation bug and a datapath bug
// produce distinguishable reports.  Scalar register comparisons (for the
// accounting case study) use expect_value/actual_value pairs.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/atm/cell.hpp"
#include "src/atm/connection.hpp"
#include "src/dsim/time.hpp"

namespace castanet::cosim {

struct TimedMessage;

struct Mismatch {
  enum class Kind {
    kHeader,        ///< same slot, header fields differ
    kPayload,       ///< same slot, payload differs
    kExtra,         ///< DUT produced a cell the reference never sent
    kMissing,       ///< reference cell never matched by the DUT
    kValue,         ///< scalar register mismatch
  };
  Kind kind;
  atm::VcId vc;
  std::uint64_t index = 0;  ///< per-VC slot, or register id for kValue
  std::string detail;
};

class ResponseComparator {
 public:
  /// Feeds one reference-model output cell.
  void expect(const atm::Cell& c);
  /// Feeds one DUT output cell; compares immediately against the oldest
  /// outstanding expectation on the same VC.
  void actual(const atm::Cell& c);

  /// Scalar comparison (registers, counters); `id` labels the quantity.
  void compare_value(std::uint64_t id, std::uint64_t expected,
                     std::uint64_t got, const std::string& what);

  /// Flushes: every still-outstanding expected cell becomes kMissing.
  /// Call once, at end of run.
  void finish();

  const std::vector<Mismatch>& mismatches() const { return mismatches_; }
  std::uint64_t cells_matched() const { return matched_; }
  std::uint64_t cells_expected() const { return expected_count_; }
  std::uint64_t cells_actual() const { return actual_count_; }
  bool clean() const { return mismatches_.empty(); }

  std::string report() const;

 private:
  std::unordered_map<atm::VcId, std::deque<atm::Cell>, atm::VcIdHash>
      outstanding_;
  std::unordered_map<atm::VcId, std::uint64_t, atm::VcIdHash> slot_;
  std::vector<Mismatch> mismatches_;
  std::uint64_t matched_ = 0;
  std::uint64_t expected_count_ = 0;
  std::uint64_t actual_count_ = 0;
};

/// One cross-backend disagreement found by the SessionComparator.
struct Divergence {
  std::size_t backend = 0;      ///< the backend that disagreed with primary
  std::uint32_t stream = 0;     ///< response message type
  std::uint64_t index = 0;      ///< per-stream response slot
  SimTime primary_time;         ///< primary's time stamp for this slot
  SimTime backend_time;         ///< the diverging backend's time stamp
  std::string detail;
};

/// The session-level "=?" of Fig. 1, generalized to N backends: every
/// backend attached to a VerificationSession produces time-stamped response
/// messages per stream; this comparator FIFO-matches each non-primary
/// backend's k-th response on a stream against the primary backend's k-th
/// response on the same stream and records the FIRST divergent slot per
/// (backend, stream) pair — with both time stamps, so a mismatch points at
/// the simulated time to debug at on either side.  Payload content is
/// compared (cells byte-for-byte, word vectors element-wise); time stamps
/// are reported but not compared, because the backends legitimately run on
/// different clocks (HDL time vs instantaneous reference vs board cycles).
/// With a single backend there is nothing to compare, and no response is
/// kept.
class SessionComparator {
 public:
  /// `backends` response sources; backend 0, the primary, is the golden
  /// stream.
  void attach(std::size_t backends);

  /// Feeds one response message produced by backend `backend`.
  void note_response(std::size_t backend, const TimedMessage& m);

  /// Flushes: a backend that produced fewer responses than the primary on
  /// some stream (or more, still queued) gets a count divergence.  Call
  /// once, at end of run.
  void finish();

  bool clean() const { return divergences_.empty(); }
  const std::vector<Divergence>& divergences() const { return divergences_; }
  /// First divergence on `stream` (any backend), if one was recorded.
  std::optional<Divergence> first_divergence(std::uint32_t stream) const;
  std::uint64_t responses_compared() const { return compared_; }
  std::uint64_t responses_matched() const { return matched_; }
  std::string report() const;

 private:
  struct Slot {
    SimTime time;
    std::optional<atm::Cell> cell;
    std::vector<std::uint64_t> words;
  };
  struct PerBackendStream {
    std::deque<Slot> pending;   ///< responses not yet matched
    std::uint64_t taken = 0;    ///< slots consumed from this backend
    bool dead = false;          ///< first divergence recorded; stop matching
  };
  /// Per stream: primary's pending slots + one lane per other backend.
  struct Stream {
    std::deque<Slot> primary;        ///< primary responses not yet consumed
    std::uint64_t primary_seen = 0;  ///< total primary responses on stream
    std::uint64_t matched_floor = 0; ///< primary slots dropped (all matched)
    std::map<std::size_t, PerBackendStream> others;
  };

  void match_ready(std::uint32_t stream_id, Stream& s, std::size_t backend,
                   PerBackendStream& lane);
  void drop_consumed(Stream& s);

  std::size_t backends_ = 0;
  std::map<std::uint32_t, Stream> streams_;
  std::vector<Divergence> divergences_;
  std::uint64_t compared_ = 0;
  std::uint64_t matched_ = 0;
};

}  // namespace castanet::cosim
