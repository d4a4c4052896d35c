#include "src/lint/dataflow.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/telemetry.hpp"
#include "src/rtl/levelize.hpp"

namespace castanet::lint {

namespace {

constexpr const char* kFamily = "dataflow";

// Per-bit abstract value: a set of the concrete classes a bit may take at a
// settled time point.  'X' stands for every non-01 std_logic value (U, X,
// Z, W, '-'): the IEEE 1164 operators and the to_bool/read_bool accessors
// treat those identically whenever the result is 0/1-determined, so one
// unknown class is enough (DESIGN.md §13).
constexpr std::uint8_t kMay0 = 1;
constexpr std::uint8_t kMay1 = 2;
constexpr std::uint8_t kMayX = 4;
constexpr std::uint8_t kTop = kMay0 | kMay1 | kMayX;

constexpr rtl::SignalId kNone = static_cast<rtl::SignalId>(-1);

std::uint8_t alpha_bit(rtl::Logic l) {
  if (rtl::is_01(l)) return rtl::to_bool(l) ? kMay1 : kMay0;
  return kMayX;
}

rtl::Logic candidate_logic(std::uint8_t c) {
  switch (c) {
    case kMay0:
      return rtl::Logic::L0;
    case kMay1:
      return rtl::Logic::L1;
    default:
      return rtl::Logic::X;
  }
}

int mask_size(std::uint8_t m) {
  return ((m >> 0) & 1) + ((m >> 1) & 1) + ((m >> 2) & 1);
}

std::string qualify(const std::string& scope, std::string loc) {
  if (scope.empty()) return loc;
  return scope + ": " + loc;
}

void insert_unique(std::vector<rtl::SignalId>& v, rtl::SignalId s) {
  const auto it = std::lower_bound(v.begin(), v.end(), s);
  if (it == v.end() || *it != s) v.insert(it, s);
}

bool contains_sorted(const std::vector<rtl::SignalId>& v, rtl::SignalId s) {
  return std::binary_search(v.begin(), v.end(), s);
}

struct ProcInfo {
  rtl::ProcKind kind = rtl::ProcKind::kExternal;
  std::uint32_t rank = 0;
  bool degraded = false;
  bool counted = false;
  std::vector<rtl::SignalId> inputs;   ///< sorted; grows via probe harvest
  std::vector<rtl::SignalId> outputs;  ///< sorted; driver slots + probe writes
  std::vector<std::uint8_t> snapshot;  ///< input abstraction at last probe
};

/// The whole analysis for one simulator; see dataflow.hpp for the contract.
class Engine {
 public:
  Engine(rtl::Simulator& sim, const DataflowOptions& opts, Report& report)
      : sim_(sim), opts_(opts), report_(report) {}

  DataflowStats run() {
    const auto t0 = std::chrono::steady_clock::now();
    const bool prev_tracking = sim_.read_tracking();
    sim_.set_read_tracking(true);
    sim_.initialize();

    const bool value_rules =
        !rule_fully_suppressed(opts_.suppressions, "DF-STUCK") ||
        !rule_fully_suppressed(opts_.suppressions, "DF-DEAD-BRANCH") ||
        !rule_fully_suppressed(opts_.suppressions, "DF-X-SOURCE") ||
        !rule_fully_suppressed(opts_.suppressions, "DF-X-SINK") ||
        !rule_fully_suppressed(opts_.suppressions, "DF-UNREACHABLE-STATE");
    const bool cone_rules =
        !rule_fully_suppressed(opts_.suppressions, "DF-CDC") ||
        !rule_fully_suppressed(opts_.suppressions, "DF-RESET");

    if (value_rules || cone_rules) classify();
    if (value_rules) {
      seed();
      fixpoint();
      restore();
      report_stuck();
      report_dead_branches();
      report_x();
      report_unreachable_states();
    }
    if (cone_rules) report_clock_cones();

    sim_.set_read_tracking(prev_tracking);
    stats_.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    publish_telemetry();
    return stats_;
  }

 private:
  // --- structure ---------------------------------------------------------

  void classify() {
    const rtl::LevelSchedule ls = rtl::levelize(sim_);
    info_.assign(sim_.process_count(), {});
    for (std::size_t p = 0; p < info_.size(); ++p) {
      info_[p].kind = ls.kind[p];
      info_[p].rank = p < ls.rank.size() ? ls.rank[p] : 0;
    }
    // Driver slots give each process its (harvested) write set; sensitivity
    // lists plus read tracking give its read set.  Probes extend both.
    for (rtl::SignalId s = 0; s < sim_.signal_count(); ++s) {
      for (rtl::ProcessId p : sim_.drivers_of(s)) {
        if (p != rtl::kExternalProcess) insert_unique(info_[p].outputs, s);
      }
      for (rtl::ProcessId p : sim_.sensitive_processes(s)) {
        insert_unique(info_[p].inputs, s);
      }
      for (rtl::ProcessId p : sim_.readers_of(s)) {
        insert_unique(info_[p].inputs, s);
      }
    }
    comb_order_.clear();
    for (rtl::ProcessId p = 1; p < info_.size(); ++p) {
      if (info_[p].kind == rtl::ProcKind::kCombinational) {
        comb_order_.push_back(p);
      }
    }
    std::stable_sort(comb_order_.begin(), comb_order_.end(),
                     [&](rtl::ProcessId a, rtl::ProcessId b) {
                       return info_[a].rank < info_[b].rank;
                     });
  }

  // --- seeding -----------------------------------------------------------

  void seed() {
    const std::size_t n = sim_.signal_count();
    abs_.assign(n, {});
    locked_.assign(n, 0);
    origin_.assign(n, kNone);
    pred_.assign(n, kNone);
    saved_.clear();
    saved_.reserve(n);
    std::vector<std::uint8_t> has_in_binding(n, 0);
    for (const rtl::PortBinding& b : sim_.port_bindings()) {
      if (b.dir == rtl::PortDir::kIn) has_in_binding[b.sig] = 1;
    }
    for (rtl::SignalId s = 0; s < n; ++s) {
      const rtl::LogicVector& v = sim_.value(s);
      saved_.push_back(v);
      const std::size_t w = v.width();
      abs_[s].assign(w, 0);
      const std::vector<rtl::ProcessId> drivers = sim_.drivers_of(s);
      const bool external =
          std::find(drivers.begin(), drivers.end(), rtl::kExternalProcess) !=
          drivers.end();
      if (external || drivers.size() >= 2) {
        // Environment-driven or resolved (multi-driver) nets: anything may
        // appear, including injected X — never reported, never narrowed.
        std::fill(abs_[s].begin(), abs_[s].end(), kTop);
        locked_[s] = 1;
        continue;
      }
      for (std::size_t b = 0; b < w; ++b) abs_[s][b] = alpha_bit(v.bit(b));
      // X-origin roots: undriven, uninitialized, and *declared* as an input
      // (PortDir::kIn).  An internal conditionally-driven net legitimately
      // idles at U until qualified (a cell bus before its first valid
      // pulse) and must not taint.
      if (drivers.empty() && has_in_binding[s]) {
        bool xish = false;
        for (std::size_t b = 0; b < w; ++b) xish |= (abs_[s][b] == kMayX);
        if (xish) origin_[s] = s;
      }
    }
    // Pinned constants (BRD config values, tie-off assertions).
    for (const auto& [name, val] : opts_.seeds) {
      for (rtl::SignalId s = 0; s < n; ++s) {
        if (sim_.signal_name(s) != name || sim_.width(s) != val.width()) {
          continue;
        }
        for (std::size_t b = 0; b < val.width(); ++b) {
          abs_[s][b] = alpha_bit(val.bit(b));
        }
        locked_[s] = 1;
        origin_[s] = kNone;
      }
    }
    // Everything the engine will not probe — sequential bodies (internal
    // C++ state), fallback (cyclic) regions — degrades its outputs to ⊤ up
    // front: those values are whatever execution makes them.
    for (rtl::ProcessId p = 1; p < info_.size(); ++p) {
      if (info_[p].kind == rtl::ProcKind::kCombinational) continue;
      for (rtl::SignalId o : info_[p].outputs) join_top(o);
    }
  }

  // --- fixpoint ----------------------------------------------------------

  void fixpoint() {
    changed_ = true;
    std::size_t pass = 0;
    while (changed_ && pass < opts_.max_fixpoint_passes) {
      changed_ = false;
      ++pass;
      for (rtl::ProcessId p : comb_order_) {
        if (!info_[p].degraded) maybe_probe(p);
      }
    }
    stats_.fixpoint_passes = pass;
    if (changed_) {
      // Convergence cap hit: drop every still-probing process to ⊤ rather
      // than report from a non-fixpoint (soundness over precision).
      for (rtl::ProcessId p : comb_order_) {
        if (!info_[p].degraded) degrade(p);
      }
    }
  }

  std::vector<std::uint8_t> input_key(const ProcInfo& pi) const {
    std::vector<std::uint8_t> key;
    for (rtl::SignalId s : pi.inputs) {
      key.push_back(origin_[s] != kNone ? 1 : 0);
      key.insert(key.end(), abs_[s].begin(), abs_[s].end());
    }
    return key;
  }

  void maybe_probe(rtl::ProcessId p) {
    ProcInfo& pi = info_[p];
    std::vector<std::uint8_t> key = input_key(pi);
    if (!pi.snapshot.empty() && key == pi.snapshot) return;
    probe_enumerate(p);
    if (!pi.degraded) pi.snapshot = input_key(pi);
  }

  void probe_enumerate(rtl::ProcessId p) {
    ProcInfo& pi = info_[p];
    if (!pi.counted) {
      pi.counted = true;
      ++stats_.processes_probed;
    }
    // The read set can grow while probing (a mux arm read only under some
    // select value); each growth restarts the enumeration over the larger
    // input set.  Growth is monotone and bounded by the signal count, but
    // cap the restarts defensively.
    for (int attempt = 0; attempt < 16; ++attempt) {
      struct FreeBit {
        std::size_t input;  ///< index into pi.inputs
        std::size_t bit;
        std::uint8_t cands[3];
        std::size_t ncand;
      };
      std::vector<FreeBit> free_bits;
      std::size_t combos = 1;
      bool over_budget = false;
      std::vector<rtl::LogicVector> vals;
      vals.reserve(pi.inputs.size());
      for (std::size_t i = 0; i < pi.inputs.size() && !over_budget; ++i) {
        const rtl::SignalId s = pi.inputs[i];
        const std::size_t w = sim_.width(s);
        rtl::LogicVector v(w, rtl::Logic::X);
        for (std::size_t b = 0; b < w; ++b) {
          const std::uint8_t m = abs_[s][b];
          if (mask_size(m) <= 1) {
            v.set_bit(b, candidate_logic(m));
            continue;
          }
          FreeBit fb{i, b, {0, 0, 0}, 0};
          for (std::uint8_t c : {kMay0, kMay1, kMayX}) {
            if (m & c) fb.cands[fb.ncand++] = c;
          }
          combos *= fb.ncand;
          if (combos > opts_.max_probe_evals_per_process) {
            over_budget = true;
            break;
          }
          free_bits.push_back(fb);
        }
        vals.push_back(std::move(v));
      }
      if (over_budget) {
        degrade(p);
        return;
      }
      std::vector<std::size_t> digit(free_bits.size(), 0);
      bool grew = false;
      while (true) {
        for (std::size_t f = 0; f < free_bits.size(); ++f) {
          const FreeBit& fb = free_bits[f];
          vals[fb.input].set_bit(fb.bit, candidate_logic(fb.cands[digit[f]]));
        }
        for (std::size_t i = 0; i < pi.inputs.size(); ++i) {
          sim_.set_value_for_analysis(pi.inputs[i], vals[i]);
        }
        rtl::Simulator::ProbeResult pr = sim_.probe_process(p);
        ++stats_.probe_evaluations;
        if (!pr.clean) {
          degrade(p);
          return;
        }
        for (rtl::SignalId r : pr.reads) {
          if (!contains_sorted(pi.inputs, r)) {
            insert_unique(pi.inputs, r);
            grew = true;
          }
        }
        if (grew) break;
        // Which uninitialized-origin input carried an X into this combo?
        rtl::SignalId taint_root = kNone;
        rtl::SignalId taint_pred = kNone;
        for (std::size_t i = 0; i < pi.inputs.size() && taint_root == kNone;
             ++i) {
          const rtl::SignalId s = pi.inputs[i];
          if (origin_[s] == kNone) continue;
          for (std::size_t b = 0; b < vals[i].width(); ++b) {
            if (!rtl::is_01(vals[i].bit(b))) {
              taint_root = origin_[s];
              taint_pred = s;
              break;
            }
          }
        }
        for (rtl::Simulator::ProbeWrite& w : pr.writes) {
          insert_unique(pi.outputs, w.sig);
          join_write(w.sig, w.value, taint_root, taint_pred);
        }
        // Advance the mixed-radix combination counter.
        std::size_t f = 0;
        for (; f < free_bits.size(); ++f) {
          if (++digit[f] < free_bits[f].ncand) break;
          digit[f] = 0;
        }
        if (f == free_bits.size()) break;  // enumeration complete
      }
      if (!grew) return;
      changed_ = true;
    }
    degrade(p);
  }

  void join_write(rtl::SignalId s, const rtl::LogicVector& v,
                  rtl::SignalId taint_root, rtl::SignalId taint_pred) {
    if (locked_[s]) return;
    bool wrote_x = false;
    for (std::size_t b = 0; b < v.width(); ++b) {
      const std::uint8_t m = alpha_bit(v.bit(b));
      if (m & ~abs_[s][b]) {
        abs_[s][b] |= m;
        changed_ = true;
      }
      wrote_x |= (m == kMayX);
    }
    if (wrote_x && taint_root != kNone && origin_[s] == kNone && s != taint_root) {
      origin_[s] = taint_root;
      pred_[s] = taint_pred;
      changed_ = true;
    }
  }

  void join_top(rtl::SignalId s) {
    if (locked_[s]) return;
    for (std::uint8_t& m : abs_[s]) {
      if (m != kTop) {
        m = kTop;
        changed_ = true;
      }
    }
  }

  void degrade(rtl::ProcessId p) {
    ProcInfo& pi = info_[p];
    if (pi.degraded) return;
    pi.degraded = true;
    ++stats_.degraded_processes;
    for (rtl::SignalId o : pi.outputs) join_top(o);
    changed_ = true;
  }

  void restore() {
    for (rtl::SignalId s = 0; s < saved_.size(); ++s) {
      sim_.set_value_for_analysis(s, saved_[s]);
    }
  }

  // --- rules -------------------------------------------------------------

  bool suppressed(std::string_view rule, const std::string& signal) {
    return is_suppressed(opts_.suppressions, rule, signal, report_);
  }

  /// True when every driver of `s` is a combinational process the engine
  /// enumerated completely — the precondition for claiming "provably".
  bool proven_cone(rtl::SignalId s) const {
    const std::vector<rtl::ProcessId> drivers = sim_.drivers_of(s);
    if (drivers.empty()) return false;
    for (rtl::ProcessId p : drivers) {
      if (p == rtl::kExternalProcess) return false;
      if (info_[p].kind != rtl::ProcKind::kCombinational) return false;
      if (info_[p].degraded) return false;
    }
    return true;
  }

  void report_stuck() {
    if (rule_fully_suppressed(opts_.suppressions, "DF-STUCK")) return;
    for (rtl::SignalId s = 0; s < abs_.size(); ++s) {
      if (locked_[s] || !proven_cone(s)) continue;
      bool constant = true;
      for (const std::uint8_t m : abs_[s]) {
        constant &= (m == kMay0 || m == kMay1);
      }
      if (!constant || abs_[s].empty()) continue;
      rtl::LogicVector v(abs_[s].size(), rtl::Logic::L0);
      for (std::size_t b = 0; b < abs_[s].size(); ++b) {
        v.set_bit(b, abs_[s][b] == kMay1 ? rtl::Logic::L1 : rtl::Logic::L0);
      }
      ++stats_.constant_signals;
      if (opts_.facts) opts_.facts->stuck.push_back({s, v});
      const std::string name = sim_.signal_name(s);
      if (suppressed("DF-STUCK", name)) continue;
      report_.add("DF-STUCK", Severity::kWarning, kFamily,
                  qualify(opts_.scope, "signal '" + name + "'"),
                  "provably constant at \"" + v.to_string() +
                      "\" under every input valuation of its combinational "
                      "cone — dead logic",
                  "remove the dead cone or fix the logic that should be "
                  "driving it");
    }
  }

  void report_dead_branches() {
    if (rule_fully_suppressed(opts_.suppressions, "DF-DEAD-BRANCH")) return;
    const std::vector<rtl::GuardDecl>& guards = sim_.guards();
    for (std::size_t i = 0; i < guards.size(); ++i) {
      const rtl::GuardDecl& g = guards[i];
      // The guard value must be a *proof*, not an assumption: a fully
      // enumerated combinational cone, or a seed the user pinned.  An
      // undriven tie-off (a reset the test bench simply has not driven
      // yet) is NET-UNDRIVEN-CONST territory, not a dead branch.
      if (!proven_cone(g.sig) && !locked_[g.sig]) continue;
      const std::uint8_t m = abs_[g.sig][0];
      // Conservative: the branch is dead only when the guard bit has
      // exactly the inactive polarity (an X could still read as either
      // under a to_bool fallback the declaration does not record).
      const bool dead = g.active_high ? (m == kMay0) : (m == kMay1);
      if (!dead) continue;
      if (opts_.facts) opts_.facts->dead_guards.push_back(i);
      const std::string name = sim_.signal_name(g.sig);
      if (suppressed("DF-DEAD-BRANCH", name)) continue;
      const char* what = g.kind == rtl::GuardKind::kReset ? "reset " : "";
      report_.add(
          "DF-DEAD-BRANCH", Severity::kWarning, kFamily,
          qualify(opts_.scope, "signal '" + name + "'"),
          "process '" + sim_.process_name(g.pid) + "' declares " + what +
              "guard '" + g.label + "' (" +
              (g.active_high ? "active-high" : "active-low") +
              ") on this signal, but it provably never reads " +
              (g.active_high ? "'1'" : "'0'") + ": the guarded branch is dead",
          "connect the guard to a toggling source or remove the dead branch");
    }
  }

  void report_x() {
    const bool want_source =
        !rule_fully_suppressed(opts_.suppressions, "DF-X-SOURCE");
    const bool want_sink =
        !rule_fully_suppressed(opts_.suppressions, "DF-X-SINK");
    if (!want_source && !want_sink) return;
    std::vector<std::uint8_t> reached(abs_.size(), 0);
    for (rtl::SignalId s = 0; s < abs_.size(); ++s) {
      if (origin_[s] == kNone) continue;
      std::string sink_desc;
      for (rtl::ProcessId p : sim_.readers_of(s)) {
        if (p != rtl::kExternalProcess &&
            info_[p].kind == rtl::ProcKind::kSequential) {
          sink_desc = "register process '" + sim_.process_name(p) + "'";
          break;
        }
      }
      if (sink_desc.empty()) {
        for (const rtl::PortBinding& b : sim_.port_bindings()) {
          if (b.sig == s && b.dir != rtl::PortDir::kIn) {
            sink_desc = "output port " + b.context;
            break;
          }
        }
      }
      if (sink_desc.empty()) continue;
      reached[origin_[s]] = 1;
      if (!want_sink) continue;
      const std::string name = sim_.signal_name(s);
      if (suppressed("DF-X-SINK", name)) continue;
      std::string path = "'" + sim_.signal_name(s) + "'";
      for (rtl::SignalId cur = s; cur != origin_[s] && pred_[cur] != kNone;
           cur = pred_[cur]) {
        path = "'" + sim_.signal_name(pred_[cur]) + "' -> " + path;
      }
      report_.add(
          "DF-X-SINK", Severity::kWarning, kFamily,
          qualify(opts_.scope, "signal '" + name + "'"),
          "unknown value from uninitialized/undriven input '" +
              sim_.signal_name(origin_[s]) + "' reaches " + sink_desc +
              " (propagation: " + path + ")",
          "drive or initialize the source input; the unknown value will be "
          "latched/exported here");
    }
    if (!want_source) return;
    for (rtl::SignalId r = 0; r < abs_.size(); ++r) {
      if (origin_[r] != r || reached[r]) continue;
      const bool consumed = !sim_.readers_of(r).empty() ||
                            !sim_.sensitive_processes(r).empty();
      if (!consumed) continue;
      const std::string name = sim_.signal_name(r);
      if (suppressed("DF-X-SOURCE", name)) continue;
      report_.add("DF-X-SOURCE", Severity::kWarning, kFamily,
                  qualify(opts_.scope, "signal '" + name + "'"),
                  "declared input has no driver and an uninitialized value "
                  "(\"" +
                      saved_[r].to_string() +
                      "\"); its unknown bits feed the logic reading it",
                  "connect a driver, give the signal a defined init value, "
                  "or pin it with an analysis seed");
    }
  }

  void report_unreachable_states() {
    if (rule_fully_suppressed(opts_.suppressions, "DF-UNREACHABLE-STATE")) {
      return;
    }
    for (const rtl::FsmDecl& f : sim_.fsms()) {
      // Meaningful only when the next-state cone was fully enumerated;
      // otherwise its abstraction is ⊤ and every encoding is producible.
      for (const rtl::LogicVector& enc : f.states) {
        bool producible = true;
        for (std::size_t b = 0; b < enc.width() && producible; ++b) {
          const std::uint8_t need =
              rtl::to_bool(enc.bit(b)) ? kMay1 : kMay0;
          producible = (abs_[f.next][b] & need) != 0;
        }
        if (producible) continue;
        const std::string name = sim_.signal_name(f.state);
        if (suppressed("DF-UNREACHABLE-STATE", name)) continue;
        report_.add(
            "DF-UNREACHABLE-STATE", Severity::kWarning, kFamily,
            qualify(opts_.scope, "signal '" + name + "'"),
            "FSM '" + f.context + "': state encoding \"" + enc.to_string() +
                "\" is never produced by its next-state cone ('" +
                sim_.signal_name(f.next) + "')",
            "remove the unreachable state or fix the next-state logic that "
            "should reach it");
      }
    }
  }

  // --- clock-cone rules (DF-CDC / DF-RESET) ------------------------------

  using Domain = std::set<rtl::SignalId>;

  std::vector<rtl::SignalId> clocks_of(rtl::ProcessId p) const {
    std::vector<rtl::SignalId> out;
    for (rtl::SignalId s = 0; s < sim_.signal_count(); ++s) {
      const auto& procs = sim_.sensitive_processes(s);
      const auto& rising = sim_.sensitive_rising(s);
      for (std::size_t i = 0; i < procs.size(); ++i) {
        if (procs[i] == p && rising[i]) {
          out.push_back(s);
          break;
        }
      }
    }
    return out;
  }

  /// Root clock sources of signal `s`: externally driven nets reached by
  /// walking drivers backwards — through combinational logic via its reads,
  /// through a sequential divider via that divider's own clocks.
  const Domain& clock_roots(rtl::SignalId s) {
    auto it = roots_memo_.find(s);
    if (it != roots_memo_.end()) return it->second;
    // In-progress marker (cycle guard): an empty domain.
    Domain& out = roots_memo_[s];
    const std::vector<rtl::ProcessId> drivers = sim_.drivers_of(s);
    bool external = drivers.empty();
    for (rtl::ProcessId p : drivers) {
      if (p == rtl::kExternalProcess) {
        external = true;
        continue;
      }
      if (info_[p].kind == rtl::ProcKind::kSequential) {
        for (rtl::SignalId c : clocks_of(p)) {
          const Domain d = clock_roots(c);
          out.insert(d.begin(), d.end());
        }
      } else {
        for (rtl::SignalId i : info_[p].inputs) {
          const Domain d = clock_roots(i);
          out.insert(d.begin(), d.end());
        }
      }
    }
    if (external) out.insert(s);
    return roots_memo_[s];
  }

  /// Clock domains of the sequential producers feeding `s`, traced through
  /// combinational logic.  Externally driven data contributes nothing.
  const Domain& seq_taint(rtl::SignalId s) {
    auto it = taint_memo_.find(s);
    if (it != taint_memo_.end()) return it->second;
    Domain& out = taint_memo_[s];
    for (rtl::ProcessId p : sim_.drivers_of(s)) {
      if (p == rtl::kExternalProcess) continue;
      if (info_[p].kind == rtl::ProcKind::kSequential) {
        const Domain d = domain_of(p);
        out.insert(d.begin(), d.end());
      } else {
        for (rtl::SignalId i : info_[p].inputs) {
          const Domain d = seq_taint(i);
          out.insert(d.begin(), d.end());
        }
      }
    }
    return taint_memo_[s];
  }

  Domain domain_of(rtl::ProcessId p) {
    Domain out;
    for (rtl::SignalId c : clocks_of(p)) {
      const Domain d = clock_roots(c);
      out.insert(d.begin(), d.end());
    }
    return out;
  }

  std::string domain_names(const Domain& d) {
    std::string out = "{";
    bool first = true;
    for (rtl::SignalId s : d) {
      if (!first) out += ", ";
      first = false;
      out += "'" + sim_.signal_name(s) + "'";
    }
    return out + "}";
  }

  void report_clock_cones() {
    const bool want_cdc = !rule_fully_suppressed(opts_.suppressions, "DF-CDC");
    const bool want_reset =
        !rule_fully_suppressed(opts_.suppressions, "DF-RESET");
    for (rtl::ProcessId p = 1; p < info_.size(); ++p) {
      if (info_[p].kind != rtl::ProcKind::kSequential) continue;
      const Domain dom = domain_of(p);
      if (dom.empty()) continue;  // clockless process: nothing to compare
      std::set<rtl::SignalId> reset_sigs;
      for (const rtl::GuardDecl& g : sim_.guards()) {
        if (g.pid == p && g.kind == rtl::GuardKind::kReset) {
          reset_sigs.insert(g.sig);
        }
      }
      const std::vector<rtl::SignalId> clks = clocks_of(p);
      if (want_cdc) {
        for (rtl::SignalId s : info_[p].inputs) {
          if (std::find(clks.begin(), clks.end(), s) != clks.end()) continue;
          if (reset_sigs.count(s)) continue;  // DF-RESET owns reset nets
          const Domain& t = seq_taint(s);
          Domain foreign;
          std::set_difference(t.begin(), t.end(), dom.begin(), dom.end(),
                              std::inserter(foreign, foreign.begin()));
          if (foreign.empty()) continue;
          const std::string name = sim_.signal_name(s);
          if (suppressed("DF-CDC", name)) continue;
          report_.add(
              "DF-CDC", Severity::kWarning, kFamily,
              qualify(opts_.scope, "signal '" + name + "'"),
              "register process '" + sim_.process_name(p) +
                  "' (clock domain " + domain_names(dom) +
                  ") samples this signal, which is derived from clock "
                  "domain " +
                  domain_names(foreign) +
                  " — clock-domain crossing without a declared synchronizer",
              "add a two-flop synchronizer in the sampling domain or move "
              "the producer onto the same clock");
        }
      }
      if (want_reset) {
        for (rtl::SignalId r : reset_sigs) {
          const Domain& t = seq_taint(r);
          Domain foreign;
          std::set_difference(t.begin(), t.end(), dom.begin(), dom.end(),
                              std::inserter(foreign, foreign.begin()));
          if (foreign.empty()) continue;
          const std::string name = sim_.signal_name(r);
          if (suppressed("DF-RESET", name)) continue;
          report_.add(
              "DF-RESET", Severity::kWarning, kFamily,
              qualify(opts_.scope, "signal '" + name + "'"),
              "reset of process '" + sim_.process_name(p) +
                  "' (clock domain " + domain_names(dom) +
                  ") is derived from clock domain " + domain_names(foreign) +
                  " — cross-domain reset release is unsynchronized",
              "generate the reset in the consuming clock domain or "
              "synchronize its deassertion");
        }
      }
    }
  }

  void publish_telemetry() {
    if (!telemetry::enabled()) return;
    auto& hub = telemetry::Hub::instance();
    hub.counter("lint.dataflow.runs").add(1);
    hub.counter("lint.dataflow.probe_evals").add(stats_.probe_evaluations);
    hub.counter("lint.dataflow.wall_ns").add(stats_.wall_ns);
    hub.counter("lint.dataflow.processes_probed")
        .add(stats_.processes_probed);
    hub.counter("lint.dataflow.degraded").add(stats_.degraded_processes);
    hub.counter("lint.dataflow.constants").add(stats_.constant_signals);
  }

  rtl::Simulator& sim_;
  const DataflowOptions& opts_;
  Report& report_;
  DataflowStats stats_;
  std::vector<ProcInfo> info_;
  std::vector<rtl::ProcessId> comb_order_;
  std::vector<std::vector<std::uint8_t>> abs_;
  std::vector<std::uint8_t> locked_;
  std::vector<rtl::SignalId> origin_;
  std::vector<rtl::SignalId> pred_;
  std::vector<rtl::LogicVector> saved_;
  bool changed_ = false;
  std::map<rtl::SignalId, Domain> roots_memo_;
  std::map<rtl::SignalId, Domain> taint_memo_;
};

}  // namespace

DataflowStats analyze_dataflow(rtl::Simulator& sim,
                               const DataflowOptions& opts, Report& report) {
  Engine engine(sim, opts, report);
  return engine.run();
}

}  // namespace castanet::lint
