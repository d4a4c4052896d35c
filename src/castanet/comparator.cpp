#include "src/castanet/comparator.hpp"

#include <algorithm>
#include <sstream>

#include "src/castanet/message.hpp"
#include "src/core/error.hpp"

namespace castanet::cosim {

void ResponseComparator::expect(const atm::Cell& c) {
  outstanding_[{c.header.vpi, c.header.vci}].push_back(c);
  ++expected_count_;
}

void ResponseComparator::actual(const atm::Cell& c) {
  ++actual_count_;
  const atm::VcId vc{c.header.vpi, c.header.vci};
  const std::uint64_t index = slot_[vc]++;
  auto it = outstanding_.find(vc);
  if (it == outstanding_.end() || it->second.empty()) {
    mismatches_.push_back(
        {Mismatch::Kind::kExtra, vc, index,
         "unexpected DUT cell " + c.to_string()});
    return;
  }
  const atm::Cell want = it->second.front();
  it->second.pop_front();
  bool ok = true;
  if (!(want.header == c.header)) {
    std::ostringstream os;
    os << "header mismatch: expected " << want.to_string() << " got "
       << c.to_string();
    mismatches_.push_back({Mismatch::Kind::kHeader, vc, index, os.str()});
    ok = false;
  }
  if (want.payload != c.payload) {
    std::size_t first_diff = 0;
    while (first_diff < atm::kPayloadBytes &&
           want.payload[first_diff] == c.payload[first_diff]) {
      ++first_diff;
    }
    mismatches_.push_back(
        {Mismatch::Kind::kPayload, vc, index,
         "payload differs from octet " + std::to_string(first_diff)});
    ok = false;
  }
  if (ok) ++matched_;
}

void ResponseComparator::compare_value(std::uint64_t id,
                                       std::uint64_t expected,
                                       std::uint64_t got,
                                       const std::string& what) {
  if (expected == got) {
    ++matched_;
    return;
  }
  std::ostringstream os;
  os << what << ": expected " << expected << " got " << got;
  mismatches_.push_back({Mismatch::Kind::kValue, {}, id, os.str()});
}

void ResponseComparator::finish() {
  for (auto& [vc, q] : outstanding_) {
    while (!q.empty()) {
      mismatches_.push_back({Mismatch::Kind::kMissing, vc, slot_[vc]++,
                             "reference cell never produced by DUT: " +
                                 q.front().to_string()});
      q.pop_front();
    }
  }
}

std::string ResponseComparator::report() const {
  std::ostringstream os;
  os << "compared " << actual_count_ << " DUT cells against "
     << expected_count_ << " reference cells: " << matched_ << " matched, "
     << mismatches_.size() << " mismatches\n";
  for (const Mismatch& m : mismatches_) {
    os << "  [vc " << m.vc.vpi << "/" << m.vc.vci << " #" << m.index << "] "
       << m.detail << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// SessionComparator

namespace {

/// Content equality; time stamps deliberately excluded (backends run on
/// different clocks).  Returns an empty string when equal, else a
/// description of the first difference.
std::string diff_payload(const std::optional<atm::Cell>& a_cell,
                         const std::vector<std::uint64_t>& a_words,
                         const std::optional<atm::Cell>& b_cell,
                         const std::vector<std::uint64_t>& b_words) {
  if (a_cell.has_value() != b_cell.has_value()) {
    return a_cell ? "primary sent a cell, backend sent words/none"
                  : "backend sent a cell, primary sent words/none";
  }
  if (a_cell && !(*a_cell == *b_cell)) {
    if (!(a_cell->header == b_cell->header)) {
      return "cell header differs: primary " + a_cell->to_string() +
             " vs " + b_cell->to_string();
    }
    std::size_t octet = 0;
    while (octet < atm::kPayloadBytes &&
           a_cell->payload[octet] == b_cell->payload[octet]) {
      ++octet;
    }
    return "cell payload differs from octet " + std::to_string(octet);
  }
  if (a_words != b_words) {
    std::size_t i = 0;
    while (i < std::min(a_words.size(), b_words.size()) &&
           a_words[i] == b_words[i]) {
      ++i;
    }
    std::ostringstream os;
    os << "word " << i << " differs: primary ";
    if (i < a_words.size()) os << a_words[i]; else os << "<none>";
    os << " vs ";
    if (i < b_words.size()) os << b_words[i]; else os << "<none>";
    return os.str();
  }
  return {};
}

}  // namespace

void SessionComparator::attach(std::size_t backends) {
  require(backends > 0, "SessionComparator: need at least one backend");
  backends_ = backends;
}

void SessionComparator::note_response(std::size_t backend,
                                      const TimedMessage& m) {
  require(backends_ > 0, "SessionComparator: attach() before responses");
  require(backend < backends_, "SessionComparator: backend out of range");
  if (m.time_update_only) return;
  Stream& s = streams_[m.type];
  if (backends_ == 1) {
    // Nothing to compare against: count the slot, keep no copy.
    s.matched_floor = ++s.primary_seen;
    return;
  }
  Slot slot{m.timestamp, m.cell, m.words};
  if (backend == 0) {
    s.primary.push_back(std::move(slot));
    ++s.primary_seen;
    for (auto& [idx, lane] : s.others) match_ready(m.type, s, idx, lane);
  } else {
    auto [it, inserted] = s.others.try_emplace(backend);
    PerBackendStream& lane = it->second;
    if (inserted) lane.taken = s.matched_floor;
    lane.pending.push_back(std::move(slot));
    match_ready(m.type, s, backend, lane);
  }
  drop_consumed(s);
}

void SessionComparator::match_ready(std::uint32_t stream_id, Stream& s,
                                    std::size_t backend,
                                    PerBackendStream& lane) {
  while (!lane.dead && !lane.pending.empty() &&
         lane.taken < s.primary_seen) {
    const Slot& want = s.primary[lane.taken - s.matched_floor];
    const Slot& got = lane.pending.front();
    ++compared_;
    // Content, not time stamps: the backends run on different clocks.
    if (want.cell == got.cell && want.words == got.words) {
      ++matched_;
    } else {
      const std::string diff =
          diff_payload(want.cell, want.words, got.cell, got.words);
      // First divergence on this (backend, stream) pair; freeze the lane so
      // one root cause does not cascade into a mismatch per response.
      divergences_.push_back({backend, stream_id, lane.taken, want.time,
                              got.time, diff});
      lane.dead = true;
      lane.pending.clear();
      return;
    }
    lane.pending.pop_front();
    ++lane.taken;
  }
}

void SessionComparator::drop_consumed(Stream& s) {
  // A primary slot can be discarded once every other backend has compared
  // it.  Before all backends_ - 1 lanes exist, nothing may be dropped: a
  // backend whose first response is still to come must find the early
  // primary slots intact.
  if (s.others.size() < backends_ - 1) return;
  std::uint64_t floor = s.primary_seen;
  for (const auto& [idx, lane] : s.others) {
    if (lane.dead) continue;  // frozen lanes never consume again
    floor = std::min(floor, lane.taken);
  }
  while (s.matched_floor < floor) {
    s.primary.pop_front();
    ++s.matched_floor;
  }
}

void SessionComparator::finish() {
  for (auto& [stream_id, s] : streams_) {
    for (auto& [idx, lane] : s.others) {
      if (lane.dead) continue;
      if (lane.taken < s.primary_seen) {
        // Backend fell short of the primary's response count.
        const Slot& missing = s.primary[lane.taken - s.matched_floor];
        divergences_.push_back(
            {idx, stream_id, lane.taken, missing.time, SimTime::zero(),
             "backend produced " + std::to_string(lane.taken) +
                 " responses, primary produced " +
                 std::to_string(s.primary_seen)});
        lane.dead = true;
      } else if (!lane.pending.empty()) {
        // Backend produced responses the primary never did.
        divergences_.push_back(
            {idx, stream_id, lane.taken, SimTime::zero(),
             lane.pending.front().time,
             "backend produced " +
                 std::to_string(lane.taken + lane.pending.size()) +
                 " responses, primary produced " +
                 std::to_string(s.primary_seen)});
        lane.dead = true;
      }
      lane.pending.clear();
    }
  }
}

std::optional<Divergence> SessionComparator::first_divergence(
    std::uint32_t stream) const {
  std::optional<Divergence> best;
  for (const Divergence& d : divergences_) {
    if (d.stream != stream) continue;
    if (!best || d.index < best->index) best = d;
  }
  return best;
}

std::string SessionComparator::report() const {
  std::ostringstream os;
  os << "cross-backend comparison over " << backends_ << " backends: "
     << compared_ << " responses compared, " << matched_ << " matched, "
     << divergences_.size() << " divergences\n";
  for (const Divergence& d : divergences_) {
    os << "  [backend " << d.backend << " stream " << d.stream << " #"
       << d.index << " @ primary " << d.primary_time.to_string()
       << " / backend " << d.backend_time.to_string() << "] " << d.detail
       << "\n";
  }
  return os.str();
}

}  // namespace castanet::cosim
