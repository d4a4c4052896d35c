// Packets — the abstract protocol data units of the network simulator.
//
// In OPNET, processes "communicate through the exchange of abstracted
// information described for example as C-structures" (§3.2).  A Packet
// optionally carries a full ATM cell (the unit the hardware consumes) plus
// named scalar fields for model-level metadata; communication is
// instantaneous and the complete information is available when the event
// fires — exactly the abstraction the CASTANET interface must lower to
// bit-level signals.
//
// Payloads (the cell + field storage) are slab-pooled: every send/deliver
// used to heap-allocate a std::map and an optional<Cell> per packet; with
// PacketPool the payload comes from a free list and returns to it when the
// packet dies, mirroring the dsim scheduler's action slab.  Packets created
// outside a pool (tests, ad-hoc construction) fall back to the heap with
// identical semantics.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/atm/cell.hpp"
#include "src/dsim/time.hpp"

namespace castanet::netsim {

class PacketPool;

/// The allocation-heavy part of a Packet: the optional ATM cell and the
/// named scalar fields, kept sorted by name (same iteration order the old
/// std::map gave to_string()).
struct PacketPayload {
  std::optional<atm::Cell> cell;
  std::vector<std::pair<std::string, double>> fields;

  void reset() {
    cell.reset();
    fields.clear();  // keeps the vector's capacity for the next tenant
  }
};

class Packet {
 public:
  Packet() = default;
  explicit Packet(atm::Cell cell);
  Packet(const Packet& other) { copy_from(other); }
  Packet& operator=(const Packet& other);
  Packet(Packet&& other) noexcept
      : id_(other.id_), creation_time_(other.creation_time_),
        size_bits_(other.size_bits_), payload_(other.payload_),
        pool_(other.pool_) {
    other.payload_ = nullptr;
  }
  Packet& operator=(Packet&& other) noexcept;
  ~Packet() { release_payload(); }

  /// Globally unique id assigned at creation (for tracing/compare).
  std::uint64_t id() const { return id_; }
  void set_id(std::uint64_t id) { id_ = id; }

  SimTime creation_time() const { return creation_time_; }
  void set_creation_time(SimTime t) { creation_time_ = t; }

  /// Size used for link serialization delay; defaults to one ATM cell.
  std::uint32_t size_bits() const { return size_bits_; }
  void set_size_bits(std::uint32_t bits) { size_bits_ = bits; }

  bool has_cell() const { return payload_ && payload_->cell.has_value(); }
  const atm::Cell& cell() const;
  atm::Cell& mutable_cell();
  void set_cell(atm::Cell c);

  /// Named scalar fields (OPNET packet fields).  Reading an absent field
  /// throws LogicError.
  void set_field(const std::string& name, double v);
  double field(const std::string& name) const;
  bool has_field(const std::string& name) const;

  std::string to_string() const;

 private:
  friend class PacketPool;

  /// Allocates the payload on first use: from the owning pool when the
  /// packet was made by one, from the heap otherwise.
  PacketPayload& ensure_payload();
  void copy_from(const Packet& other);
  void release_payload() noexcept;

  std::uint64_t id_ = 0;
  SimTime creation_time_ = SimTime::zero();
  std::uint32_t size_bits_ = 8 * atm::kCellBytes;
  PacketPayload* payload_ = nullptr;
  PacketPool* pool_ = nullptr;  ///< null: payload_ (if any) is heap-owned
};

/// Slab allocator for packet payloads (dsim scheduler slab idiom: deque
/// storage for stable addresses, LIFO free list for cache warmth).  The
/// pool must outlive every Packet it made — Simulation declares it before
/// the scheduler so payloads captured in pending events release first.
class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// A fresh empty packet bound to this pool; its payload is acquired
  /// lazily on the first cell/field write.
  Packet make() {
    Packet p;
    p.pool_ = this;
    return p;
  }

  PacketPayload* acquire();
  void release(PacketPayload* payload) noexcept;

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  /// Fraction of acquisitions served from the free list (0 when none yet).
  double hit_rate() const;
  std::size_t slab_size() const { return slab_.size(); }
  std::size_t free_count() const { return free_.size(); }

  /// Publishes the pool's hit rate and slab size as value rows into the
  /// telemetry hub; no-op while telemetry is disabled.  Called at quiescent
  /// points.
  void publish_telemetry() const;

 private:
  std::deque<PacketPayload> slab_;
  std::vector<PacketPayload*> free_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace castanet::netsim
