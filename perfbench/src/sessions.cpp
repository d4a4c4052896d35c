#include "perfbench/src/sessions.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <initializer_list>
#include <memory>
#include <utility>

#include "src/castanet/backend.hpp"
#include "src/castanet/board_driver.hpp"
#include "src/castanet/mapping.hpp"
#include "src/castanet/session.hpp"
#include "src/castanet/wire.hpp"
#include "src/core/error.hpp"
#include "src/core/rng.hpp"
#include "src/hw/accounting.hpp"
#include "src/hw/atm_switch.hpp"
#include "src/hw/cell_bits.hpp"
#include "src/hw/gcu.hpp"
#include "src/hw/reference.hpp"
#include "src/netsim/simulation.hpp"
#include "src/traffic/processes.hpp"
#include "src/traffic/sources.hpp"
#include "src/traffic/trace.hpp"

namespace perfbench {

using namespace castanet;
using cosim::farm::SessionSpec;

namespace {

constexpr std::size_t kPorts = 4;
const SimTime kClk = clock_period_hz(20'000'000);

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t spec_cells(const SessionSpec& spec) {
  return static_cast<std::uint64_t>(spec.params.int_or("cells", 0));
}

SimTime spec_duration(const SessionSpec& spec) {
  return SimTime::from_us(spec.params.int_or("duration_us", 0));
}

// --- timing ------------------------------------------------------------------

/// Times one phase of a session, in thread CPU time, into `out` and, in the
/// traced run, opens the phase's span.
class Phase {
 public:
  Phase(Tracer* tracer, Layer layer, double& out)
      : span_(tracer, layer), out_(out), t0_(thread_cpu_s()) {}
  ~Phase() { out_ = thread_cpu_s() - t0_; }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  Span span_;
  double& out_;
  double t0_;
};

/// The traced run's backends: the plain backend with a span around every
/// call the session makes into it.  `layer` names the advance/finish work;
/// pushes are the sync layer and drains the session's response path.
template <class Base>
class Traced final : public Base {
 public:
  template <class... Args>
  Traced(Tracer& tracer, Layer layer, Args&&... args)
      : Base(std::forward<Args>(args)...), tracer_(tracer), layer_(layer) {}

  void push(const cosim::TimedMessage& m) override {
    Span s(&tracer_, kSyncPush);
    Base::push(m);
  }
  void drain_responses(std::vector<cosim::TimedMessage>& out) override {
    Span s(&tracer_, kSessionDrain);
    Base::drain_responses(out);
  }
  void finish(SimTime at) override {
    Span s(&tracer_, layer_);
    Base::finish(at);
  }

 protected:
  void advance_to(SimTime target) override {
    Span s(&tracer_, layer_);
    Base::advance_to(target);
  }

 private:
  Tracer& tracer_;
  Layer layer_;
};

/// The plain backend in the untraced run, its Traced subclass otherwise.
template <class Base, class... Args>
std::unique_ptr<Base> make_backend(Tracer* tracer, Layer layer,
                                   Args&&... args) {
  if (tracer == nullptr) return std::make_unique<Base>(std::forward<Args>(args)...);
  return std::make_unique<Traced<Base>>(*tracer, layer,
                                        std::forward<Args>(args)...);
}

cosim::ConservativeSync::Params sync_params() {
  cosim::ConservativeSync::Params p;
  p.policy = cosim::SyncPolicy::kGlobalOrder;
  p.clock_period = kClk;
  return p;
}

cosim::VerificationSession::Params session_params(const SessionSpec& spec) {
  cosim::VerificationSession::Params p;
  p.clock_period = kClk;
  p.transport = spec.transport;
  return p;
}

// --- traffic -------------------------------------------------------------------

/// E1's traffic: per-port CBR at 3.2 us spacing (above one 2.65 us cell
/// time, so lossless) with ports staggered by 800 ns.  Seed 0 reproduces
/// E1's trace exactly; any other seed shifts each port by up to 15 clock
/// periods and fills the payload bytes after the sequence number and tag.
std::vector<traffic::CellTrace> record_cbr_traffic(std::uint64_t seed,
                                                   std::uint64_t cells) {
  std::vector<traffic::CellTrace> traces(kPorts);
  const std::uint64_t per = cells / kPorts;
  for (std::size_t p = 0; p < kPorts; ++p) {
    SimTime start = SimTime::from_ns(static_cast<std::int64_t>(p) * 800);
    if (seed != 0) {
      start = start + kClk * static_cast<std::int64_t>(mix(seed, p) % 16);
    }
    traffic::CbrSource src({1, static_cast<std::uint16_t>(100 + p)},
                           static_cast<std::uint8_t>(p), SimTime::from_ns(3200),
                           start);
    Rng fill(mix(seed, 16 + p));
    for (std::uint64_t i = 0; i < per; ++i) {
      traffic::CellArrival a = src.next();
      if (seed != 0) {
        std::uint64_t bits = 0;
        for (std::size_t b = 5; b < a.cell.payload.size(); ++b) {
          if ((b - 5) % 8 == 0) bits = fill.raw();
          a.cell.payload[b] = static_cast<std::uint8_t>(bits >> (8 * ((b - 5) % 8)));
        }
      }
      traces[p].append(a);
    }
  }
  return traces;
}

/// Records `src` until its next arrival falls at or past `until`.
traffic::CellTrace record_until(traffic::CellSource& src, SimTime until) {
  traffic::CellTrace trace;
  for (traffic::CellArrival a = src.next(); a.time < until; a = src.next())
    trace.append(a);
  return trace;
}

/// The switch co-verification mix of examples/rigs/switch_rig — CBR trunk,
/// Poisson aggregate, bursty on/off source and offset CBR — over a fixed
/// span of simulated time, so the simulated clock cycles do not depend on
/// the seed and the cell count (about 425 cells per ms) varies by a few
/// percent only.
std::vector<traffic::CellTrace> record_mixed_traffic(std::uint64_t seed,
                                                     SimTime duration) {
  Rng rng(seed);
  const SimTime spacing = SimTime::from_us(6);
  traffic::CbrSource cbr({1, 100}, 1, spacing);
  traffic::PoissonSource poisson({1, 101}, 2, 50'000.0, rng.fork());
  traffic::OnOffSource::Params op;
  op.peak_period = SimTime::from_us(8);
  op.mean_on_sec = 200e-6;
  op.mean_off_sec = 400e-6;
  traffic::OnOffSource burst({1, 102}, 3, op, rng.fork());
  traffic::CbrSource cbr2({1, 103}, 4, spacing, SimTime::from_us(3));
  std::vector<traffic::CellTrace> traces;
  for (traffic::CellSource* src : std::initializer_list<traffic::CellSource*>{
           &cbr, &poisson, &burst, &cbr2}) {
    traces.push_back(record_until(*src, duration));
  }
  return traces;
}

/// Back-to-back CBR cells on one connection at the board's cell time, with
/// every (2 + seed % 5)-th cell CLP-tagged so seeds differ in charge.
traffic::CellTrace record_accounting_traffic(std::uint64_t seed,
                                             std::uint64_t cells) {
  traffic::CbrSource src({1, 100}, 1, SimTime::from_ns(50 * 53));
  const std::uint64_t period = 2 + seed % 5;
  traffic::CellTrace trace;
  for (std::uint64_t i = 0; i < cells; ++i) {
    traffic::CellArrival a = src.next();
    if (i % period == 0) a.cell.header.clp = true;
    trace.append(a);
  }
  return trace;
}

SimTime last_arrival(const std::vector<traffic::CellTrace>& traces) {
  SimTime h = SimTime::zero();
  for (const traffic::CellTrace& t : traces) {
    if (!t.empty()) h = std::max(h, t.arrivals().back().time);
  }
  return h;
}

atm::Route route_for(std::size_t port) {
  return atm::Route{static_cast<std::uint8_t>((port + 1) % kPorts),
                    {2, static_cast<std::uint16_t>(200 + port)},
                    {}};
}
atm::VcId vc_for(std::size_t port) {
  return {1, static_cast<std::uint16_t>(100 + port)};
}

// --- checking ------------------------------------------------------------------

/// Per-stream FNV-1a over whole cells, combined in stream order.
class CellDigest {
 public:
  void add(std::size_t stream, const atm::Cell& c) {
    const auto bytes = c.to_bytes();
    h_.at(stream) = cosim::wire::fnv1a(bytes.data(), bytes.size(), h_[stream]);
  }
  /// Content plus the simulated time the cell was observed.
  void add(std::size_t stream, const atm::Cell& c, SimTime at) {
    add(stream, c);
    const std::int64_t ps = at.ps();
    h_[stream] = cosim::wire::fnv1a(&ps, sizeof ps, h_[stream]);
  }
  std::uint64_t value() const {
    return cosim::wire::fnv1a(h_.data(), h_.size() * sizeof(std::uint64_t));
  }

 private:
  std::array<std::uint64_t, kPorts> h_{
      {0xcbf29ce484222325ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull,
       0xcbf29ce484222325ull}};
};

/// What the switch must emit: every trace cell routed by the behavioural
/// reference, digested per output port (the independent oracle for the
/// RTL switch's monitors) or per input port (for the GCU grant order).
std::uint64_t oracle_digest(const std::vector<traffic::CellTrace>& traces,
                            bool by_out_port) {
  hw::SwitchRef ref(kPorts);
  for (std::size_t p = 0; p < kPorts; ++p) ref.table(p).install(vc_for(p), route_for(p));
  CellDigest d;
  for (std::size_t p = 0; p < kPorts; ++p) {
    for (const traffic::CellArrival& a : traces[p].arrivals()) {
      if (const auto r = ref.route(p, a.cell))
        d.add(by_out_port ? r->out_port : p, r->cell);
    }
  }
  return d.value();
}

/// Ingress time of every cell by (source tag, sequence number), so the
/// egress side can charge each cell its simulated latency.
class LatencyBook {
 public:
  explicit LatencyBook(SessionRecord& rec) : rec_(rec) {}

  void ingress(const cosim::TimedMessage& m) {
    auto& v = in_.at(traffic::cell_tag(*m.cell));
    const std::uint32_t seq = traffic::cell_sequence(*m.cell);
    if (seq >= v.size()) v.resize(seq + 1, -1);
    v[seq] = m.timestamp.ps();
  }
  void egress(const atm::Cell& c, SimTime at) {
    const auto& v = in_.at(traffic::cell_tag(c));
    const std::uint32_t seq = traffic::cell_sequence(c);
    if (seq < v.size() && v[seq] >= 0) {
      rec_.latency_ps.push_back(at.ps() - v[seq]);
    } else {
      ++unmatched_;
    }
  }
  std::uint64_t unmatched() const { return unmatched_; }

 private:
  SessionRecord& rec_;
  std::array<std::vector<std::int64_t>, 8> in_;
  std::uint64_t unmatched_ = 0;
};

void check(SessionRecord& rec, bool ok, const std::string& what) {
  if (!ok && rec.error.empty()) rec.error = what;
}

std::string count_msg(const char* what, std::uint64_t got, std::uint64_t want) {
  return std::string(what) + ": got " + std::to_string(got) + ", want " +
         std::to_string(want);
}

/// Runs the session to `limit` and finishes its comparator.
void run_and_finish(cosim::VerificationSession& session, SimTime limit,
                    Tracer* tracer, SessionRecord& rec) {
  {
    Phase ph(tracer, kSessionRun, rec.run_cpu_s);
    session.run_until(limit);
  }
  Phase ph(tracer, kComparatorFinish, rec.finish_cpu_s);
  session.comparator().finish();
}

/// Session, sync and kernel counters common to every scenario.
void collect(cosim::VerificationSession& session, const rtl::Simulator& hdl,
             const rtl::ClockGen& clock, SessionRecord& rec) {
  const cosim::VerificationSession::Stats st = session.stats();
  rec.net_events = st.net_events;
  for (std::size_t i = 0; i < session.backend_count(); ++i) {
    const cosim::ConservativeSync& sync = session.backend(i).sync();
    rec.pushes += sync.messages_received() + sync.time_updates_received();
  }
  for (const auto& b : st.backends) {
    rec.windows += b.windows;
    rec.lookahead_stalls += b.lookahead_stalls;
    rec.causality_errors += b.causality_errors;
    rec.max_lag_s = std::max(rec.max_lag_s, b.max_lag_seconds);
  }
  const rtl::KernelStats& k = hdl.stats();
  rec.activations = k.process_activations;
  rec.transactions = k.transactions;
  rec.value_changes = k.value_changes;
  rec.delta_cycles = k.delta_cycles;
  rec.time_points = k.time_points;
  rec.gated_skips = k.gated_skips;
  rec.cycles = clock.rising_edges();
  const cosim::SessionComparator& cmp = session.comparator();
  rec.compared = cmp.responses_compared();
  rec.matched = cmp.responses_matched();
  rec.divergences = cmp.divergences().size();
  check(rec, rec.causality_errors == 0,
        count_msg("sync causality errors", rec.causality_errors, 0));
  check(rec, cmp.clean(), "comparator: " + cmp.report());
}

// --- rigs ------------------------------------------------------------------------

/// Network model, HDL kernel, clock and reset — constructed first in every
/// rig, in the order the in-tree benches and examples use (the kernel's
/// process order, and with it the activation count, depends on it).
struct Core {
  Core()
      : env(net.add_node("env")),
        clk(&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0)),
        rst(&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0)),
        clock(hdl, clk, kClk) {}
  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  netsim::Simulation net;
  netsim::Node& env;
  rtl::Simulator hdl;
  rtl::Signal clk;
  rtl::Signal rst;
  rtl::ClockGen clock;
};

void drive(Core& core, cosim::VerificationSession& session,
           const std::vector<traffic::CellTrace>& traces) {
  for (std::size_t p = 0; p < traces.size(); ++p) {
    if (traces[p].empty()) continue;  // max_cells 0 would mean unbounded
    auto& gen = core.env.add_process<traffic::GeneratorProcess>(
        "gen" + std::to_string(p),
        std::make_unique<traffic::TraceSource>(traces[p]), traces[p].size());
    core.net.connect(gen, 0, session.gateway(), static_cast<unsigned>(p));
  }
}

/// switch_rtl: E1 configuration B — the full 4-port RTL switch behind one
/// RtlBackend; monitors check outputs on the HDL side.
struct SwitchRtlRig : Core {
  SwitchRtlRig(const SessionSpec& spec, Tracer* t, SessionRecord& rec,
               LatencyBook& book, CellDigest& out, CellDigest& timed)
      : sw(hdl, "sw", clk, rst) {
    for (std::size_t p = 0; p < kPorts; ++p) sw.install_route(p, vc_for(p), route_for(p));
    rtl = make_backend<cosim::RtlBackend>(t, kRtlAdvance, "rtl", hdl,
                                          sync_params());
    session = std::make_unique<cosim::VerificationSession>(
        net, env, kPorts, session_params(spec));
    session->attach(*rtl);
    session->set_response_handler([](const cosim::TimedMessage&) {});
    for (std::size_t p = 0; p < kPorts; ++p) {
      drivers.push_back(std::make_unique<hw::CellPortDriver>(
          hdl, "drv" + std::to_string(p), clk, sw.phys_in(p)));
      monitors.push_back(std::make_unique<hw::CellPortMonitor>(
          hdl, "mon" + std::to_string(p), clk, sw.phys_out(p)));
      monitors[p]->set_callback([this, t, p, &rec, &book, &out, &timed](const atm::Cell& c) {
        Span s(t, kMappingResp);
        ++rec.resp_calls;
        ++rec.cells_delivered;
        book.egress(c, hdl.now());
        out.add(p, c);
        timed.add(p, c, hdl.now());
      });
      rtl->entity().register_input(
          static_cast<cosim::MessageType>(p), 53,
          [this, t, p, &rec, &book](const cosim::TimedMessage& m) {
            Span s(t, kMappingStim);
            ++rec.stim_calls;
            book.ingress(m);
            drivers[p]->enqueue(*m.cell);
          });
    }
  }

  hw::AtmSwitch sw;
  std::unique_ptr<cosim::RtlBackend> rtl;
  std::unique_ptr<cosim::VerificationSession> session;
  std::vector<std::unique_ptr<hw::CellPortDriver>> drivers;
  std::vector<std::unique_ptr<hw::CellPortMonitor>> monitors;
};

void run_switch_rtl(const SessionSpec& spec, Tracer* t, SessionRecord& rec) {
  std::vector<traffic::CellTrace> traces;
  {
    Phase ph(t, kTrafficRecord, rec.record_cpu_s);
    traces = record_cbr_traffic(spec.seed, spec_cells(spec));
  }
  LatencyBook book(rec);
  CellDigest out, timed;
  std::unique_ptr<SwitchRtlRig> rig;
  {
    Phase ph(t, kElabBuild, rec.build_cpu_s);
    rig = std::make_unique<SwitchRtlRig>(spec, t, rec, book, out, timed);
    drive(*rig, *rig->session, traces);
  }
  for (const auto& tr : traces) rec.cells_sent += tr.size();
  run_and_finish(*rig->session, last_arrival(traces) + SimTime::from_us(200), t,
                 rec);
  collect(*rig->session, rig->hdl, rig->clock, rec);
  rec.digest = timed.value();
  check(rec, rec.cells_delivered == rec.cells_sent,
        count_msg("cells delivered", rec.cells_delivered, rec.cells_sent));
  check(rec, out.value() == oracle_digest(traces, /*by_out_port=*/true),
        "switch outputs differ from the reference model's routing");
  check(rec, book.unmatched() == 0,
        count_msg("egress cells without ingress", book.unmatched(), 0));
}

/// gcu_hybrid: E1 configuration C — only the global control unit in RTL;
/// the port modules are abstracted into the network model (header
/// translation by hw::SwitchRef in the stimulus mapping, a thin per-port
/// request/grant harness on the HDL side).
struct GcuRig : Core {
  struct PortState {
    struct Pending {
      atm::Cell cell;
      std::uint8_t dest;
    };
    std::deque<Pending> pending;
    bool in_flight = false;
    unsigned cooldown = 0;
  };

  static std::vector<hw::GlobalControlUnit::InputIf> make_ifs(
      rtl::Simulator& hdl) {
    std::vector<hw::GlobalControlUnit::InputIf> ifs;
    for (std::size_t p = 0; p < kPorts; ++p) {
      const std::string nm = "req" + std::to_string(p);
      hw::GlobalControlUnit::InputIf f;
      f.req = rtl::Signal(&hdl, hdl.create_signal(nm, 1, rtl::Logic::L0));
      f.dest = rtl::Bus(&hdl, hdl.create_signal(nm + ".dest", 4, rtl::Logic::L0));
      f.cell = rtl::Bus(&hdl, hdl.create_signal(nm + ".cell", hw::kCellBits,
                                                rtl::Logic::L0));
      ifs.push_back(f);
    }
    return ifs;
  }

  GcuRig(const SessionSpec& spec, Tracer* t, SessionRecord& rec,
         LatencyBook& book, CellDigest& granted, CellDigest& timed)
      : ifs(make_ifs(hdl)), gcu(hdl, "gcu", clk, rst, ifs), ref(kPorts), ports(kPorts) {
    for (std::size_t p = 0; p < kPorts; ++p) ref.table(p).install(vc_for(p), route_for(p));
    hdl.add_process("harness", {clk.id()}, [this, t, &rec, &book, &granted, &timed] {
      if (!clk.rose()) return;
      Span s(t, kMappingResp);
      ++rec.resp_calls;
      for (std::size_t p = 0; p < kPorts; ++p) {
        PortState& st = ports[p];
        if (gcu.grant(p).read_bool()) {
          const atm::Cell& c = st.pending.front().cell;
          book.egress(c, hdl.now());
          granted.add(p, c);
          timed.add(p, c, hdl.now());
          ++rec.cells_delivered;
          st.pending.pop_front();
          st.in_flight = false;
          st.cooldown = 1;
          ifs[p].req.write(rtl::Logic::L0);
          continue;
        }
        if (st.cooldown > 0) {
          --st.cooldown;
          continue;
        }
        if (!st.pending.empty() && !st.in_flight) {
          ifs[p].cell.write(hw::cell_to_bits(st.pending.front().cell));
          ifs[p].dest.write_uint(st.pending.front().dest);
          ifs[p].req.write(rtl::Logic::L1);
          st.in_flight = true;
        }
      }
    });
    rtl = make_backend<cosim::RtlBackend>(t, kRtlAdvance, "rtl", hdl,
                                          sync_params());
    session = std::make_unique<cosim::VerificationSession>(
        net, env, kPorts, session_params(spec));
    session->attach(*rtl);
    session->set_response_handler([](const cosim::TimedMessage&) {});
    for (std::size_t p = 0; p < kPorts; ++p) {
      rtl->entity().register_input(
          static_cast<cosim::MessageType>(p), 2,
          [this, t, p, &rec, &book](const cosim::TimedMessage& m) {
            Span s(t, kMappingStim);
            ++rec.stim_calls;
            book.ingress(m);
            if (const auto routed = ref.route(p, *m.cell)) {
              ports[p].pending.push_back(
                  {routed->cell, static_cast<std::uint8_t>(routed->out_port)});
            }
          });
    }
  }

  std::vector<hw::GlobalControlUnit::InputIf> ifs;
  hw::GlobalControlUnit gcu;
  hw::SwitchRef ref;
  std::vector<PortState> ports;
  std::unique_ptr<cosim::RtlBackend> rtl;
  std::unique_ptr<cosim::VerificationSession> session;
};

void run_gcu_hybrid(const SessionSpec& spec, Tracer* t, SessionRecord& rec) {
  std::vector<traffic::CellTrace> traces;
  {
    Phase ph(t, kTrafficRecord, rec.record_cpu_s);
    traces = record_cbr_traffic(spec.seed, spec_cells(spec));
  }
  LatencyBook book(rec);
  CellDigest granted, timed;
  std::unique_ptr<GcuRig> rig;
  {
    Phase ph(t, kElabBuild, rec.build_cpu_s);
    rig = std::make_unique<GcuRig>(spec, t, rec, book, granted, timed);
    drive(*rig, *rig->session, traces);
  }
  for (const auto& tr : traces) rec.cells_sent += tr.size();
  run_and_finish(*rig->session, last_arrival(traces) + SimTime::from_us(200), t,
                 rec);
  collect(*rig->session, rig->hdl, rig->clock, rec);
  rec.digest = timed.value();
  check(rec, rec.cells_delivered == rec.cells_sent,
        count_msg("cells granted", rec.cells_delivered, rec.cells_sent));
  check(rec, granted.value() == oracle_digest(traces, /*by_out_port=*/false),
        "granted cells differ from the reference model's routing");
  check(rec, book.unmatched() == 0,
        count_msg("granted cells without ingress", book.unmatched(), 0));
}

/// switch_coverify: the RTL switch (primary) and the behavioural reference
/// in one session.  Monitor responses flow entity -> session ->
/// SessionComparator, and the primary's responses re-enter the network
/// through the gateway into per-port sinks.
struct CoverifyRig : Core {
  CoverifyRig(const SessionSpec& spec, Tracer* t, SessionRecord& rec,
              LatencyBook& book, CellDigest& out, CellDigest& timed)
      : sw(hdl, "sw", clk, rst), ref(kPorts) {
    for (std::size_t p = 0; p < kPorts; ++p) {
      drivers.push_back(std::make_unique<hw::CellPortDriver>(
          hdl, "drv" + std::to_string(p), clk, sw.phys_in(p)));
      monitors.push_back(std::make_unique<hw::CellPortMonitor>(
          hdl, "mon" + std::to_string(p), clk, sw.phys_out(p)));
    }
    rtl = make_backend<cosim::RtlBackend>(t, kRtlAdvance, "rtl", hdl,
                                          sync_params());
    refb = make_backend<cosim::ReferenceBackend>(t, kRefAdvance, "reference",
                                                 sync_params());
    session = std::make_unique<cosim::VerificationSession>(
        net, env, kPorts, session_params(spec));
    session->attach(*rtl);   // primary
    session->attach(*refb);  // checked against the primary per stream
    for (std::size_t p = 0; p < kPorts; ++p) {
      sw.install_route(p, vc_for(p), route_for(p));
      ref.table(p).install(vc_for(p), route_for(p));
      rtl->entity().register_input(
          static_cast<cosim::MessageType>(p), 53,
          [this, t, p, &rec, &book](const cosim::TimedMessage& m) {
            Span s(t, kMappingStim);
            ++rec.stim_calls;
            book.ingress(m);
            drivers[p]->enqueue(*m.cell);
          });
      monitors[p]->set_callback([this, t, p, &rec, &book, &out, &timed](const atm::Cell& c) {
        Span s(t, kMappingResp);
        ++rec.resp_calls;
        ++rec.cells_delivered;
        book.egress(c, hdl.now());
        out.add(p, c);
        timed.add(p, c, hdl.now());
        rtl->entity().send_cell_response(static_cast<cosim::MessageType>(p), c);
      });
      refb->register_input(
          static_cast<cosim::MessageType>(p), 1,
          [this, p](const cosim::TimedMessage& m) {
            if (const auto routed = ref.route(p, *m.cell))
              refb->respond(routed->out_port, m.timestamp, routed->cell);
          });
      auto& sink = env.add_process<traffic::SinkProcess>("sink" + std::to_string(p));
      sink.set_keep_log(false);
      net.connect(session->gateway(), static_cast<unsigned>(p), sink, 0);
    }
  }

  hw::AtmSwitch sw;
  std::vector<std::unique_ptr<hw::CellPortDriver>> drivers;
  std::vector<std::unique_ptr<hw::CellPortMonitor>> monitors;
  hw::SwitchRef ref;
  std::unique_ptr<cosim::RtlBackend> rtl;
  std::unique_ptr<cosim::ReferenceBackend> refb;
  std::unique_ptr<cosim::VerificationSession> session;
};

void run_switch_coverify(const SessionSpec& spec, Tracer* t, SessionRecord& rec) {
  std::vector<traffic::CellTrace> traces;
  {
    Phase ph(t, kTrafficRecord, rec.record_cpu_s);
    traces = record_mixed_traffic(spec.seed, spec_duration(spec));
  }
  LatencyBook book(rec);
  CellDigest out, timed;
  std::unique_ptr<CoverifyRig> rig;
  {
    Phase ph(t, kElabBuild, rec.build_cpu_s);
    rig = std::make_unique<CoverifyRig>(spec, t, rec, book, out, timed);
    drive(*rig, *rig->session, traces);
  }
  for (const auto& tr : traces) rec.cells_sent += tr.size();
  run_and_finish(*rig->session, last_arrival(traces) + SimTime::from_us(200), t,
                 rec);
  collect(*rig->session, rig->hdl, rig->clock, rec);
  rec.ref_applied = rig->refb->messages_applied();
  rec.digest = timed.value();
  check(rec, rec.cells_delivered == rec.cells_sent,
        count_msg("cells delivered", rec.cells_delivered, rec.cells_sent));
  check(rec, rec.compared == rec.cells_sent,
        count_msg("responses compared", rec.compared, rec.cells_sent));
  check(rec, rec.ref_applied == rec.cells_sent,
        count_msg("reference messages applied", rec.ref_applied, rec.cells_sent));
  check(rec, out.value() == oracle_digest(traces, /*by_out_port=*/true),
        "switch outputs differ from the reference model's routing");
  check(rec, book.unmatched() == 0,
        count_msg("egress cells without ingress", book.unmatched(), 0));
}

/// accounting: the hardware-in-the-loop rig of examples/rigs/accounting_rig
/// — the RTL accounting unit (primary), the reference model and the device
/// on the test board, each reading its counters back at the end of the run
/// for the comparator.  The board runs with no real-time wait, so the
/// session is compute-bound.
struct AccountingRig : Core {
  AccountingRig(const SessionSpec& spec, Tracer* t, SessionRecord& rec)
      : snoop(hw::make_cell_port(hdl, "snoop")),
        driver(hdl, "drv", clk, snoop),
        acct(hdl, "acct", clk, rst, snoop, 8),
        bus(hdl, "bus", clk, acct.addr, acct.data, acct.cs, acct.rw),
        ref(8),
        dut(cosim::build_accounting_dut(8, kRatedHz)) {
    rtl = make_backend<cosim::RtlBackend>(t, kRtlAdvance, "rtl", hdl,
                                          sync_params());
    acct.set_tariff(0, hw::Tariff{1, 0});
    acct.bind_connection({1, 100}, 0, 0);
    rtl->entity().register_input(0, 53, [this, t, &rec](const cosim::TimedMessage& m) {
      Span s(t, kMappingStim);
      ++rec.stim_calls;
      driver.enqueue(*m.cell);
    });
    rtl->set_finish_hook([this, t, &rec](cosim::RtlBackend& b, SimTime) {
      // Counter readback over the microprocessor bus: [count, clp1, charge].
      Span s(t, kMappingResp);
      ++rec.resp_calls;
      std::uint16_t lo = 0, mid = 0, clp_lo = 0, chg_lo = 0, chg_mid = 0;
      bus.write(0x00, 0);
      bus.read(0x01, [&](std::uint16_t v) { lo = v; });
      bus.read(0x02, [&](std::uint16_t v) { mid = v; });
      bus.read(0x07, [&](std::uint16_t v) { clp_lo = v; });
      bus.read(0x04, [&](std::uint16_t v) { chg_lo = v; });
      bus.read(0x05, [&](std::uint16_t v) { chg_mid = v; });
      while (!bus.idle()) hdl.run_until(hdl.now() + kClk);
      hdl.run_until(hdl.now() + kClk * 2);
      b.entity().send_word_response(
          0, {std::uint64_t{mid} << 16 | lo, clp_lo,
              std::uint64_t{chg_mid} << 16 | chg_lo});
    });

    ref.set_tariff(0, hw::Tariff{1, 0});
    ref.bind_connection({1, 100}, 0, 0);
    refb = make_backend<cosim::ReferenceBackend>(t, kRefAdvance, "reference",
                                                 sync_params());
    refb->register_input(0, 1, [this](const cosim::TimedMessage& m) {
      ref.observe(*m.cell);
    });
    refb->set_finish_hook([this](cosim::ReferenceBackend& b, SimTime at) {
      b.respond_words(0, at, {ref.count(0), ref.clp1_count(0), ref.charge(0)});
    });

    board.configure(cosim::make_cell_stream_config(1));
    dut.adapter->set_max_safe_hz(kRatedHz, 7);
    dut.unit->set_tariff(0, hw::Tariff{1, 0});
    dut.unit->bind_connection({1, 100}, 0, 0);
    dut.adapter->reset();
    cosim::BoardBackend::Params bp;
    bp.sync = sync_params();
    bp.stream = {4096, kRatedHz};
    brd = make_backend<cosim::BoardBackend>(t, kBoardAdvance, "board", board,
                                            *dut.adapter, bp);
    brd->register_cell_input(0, 53);
    brd->set_finish_hook([this](cosim::BoardBackend& b, SimTime at) {
      cosim::board_bus_write(board, *dut.adapter, 0x00, 0);
      const auto rd = [&](std::uint16_t lo_reg) -> std::uint64_t {
        const std::uint64_t lo = cosim::board_bus_read(board, *dut.adapter, lo_reg);
        const std::uint64_t mid =
            cosim::board_bus_read(board, *dut.adapter, lo_reg + 1);
        return mid << 16 | lo;
      };
      const std::uint64_t count = rd(0x01);
      const std::uint64_t clp1 = cosim::board_bus_read(board, *dut.adapter, 0x07);
      const std::uint64_t charge = rd(0x04);
      b.respond_words(0, at, {count, clp1, charge});
    });

    session = std::make_unique<cosim::VerificationSession>(net, env, 1,
                                                           session_params(spec));
    session->attach(*rtl);
    session->attach(*refb);
    session->attach(*brd);
    session->set_response_handler([](const cosim::TimedMessage&) {});
  }

  static constexpr std::uint64_t kRatedHz = 10'000'000;
  hw::CellPort snoop;
  hw::CellPortDriver driver;
  hw::AccountingUnit acct;
  cosim::BusMaster bus;
  std::unique_ptr<cosim::RtlBackend> rtl;
  hw::AccountingRef ref;
  std::unique_ptr<cosim::ReferenceBackend> refb;
  board::HardwareTestBoard board;
  cosim::AccountingBoardDut dut;
  std::unique_ptr<cosim::BoardBackend> brd;
  std::unique_ptr<cosim::VerificationSession> session;
};

void run_accounting(const SessionSpec& spec, Tracer* t, SessionRecord& rec) {
  traffic::CellTrace trace;
  {
    Phase ph(t, kTrafficRecord, rec.record_cpu_s);
    trace = record_accounting_traffic(spec.seed, spec_cells(spec));
  }
  std::unique_ptr<AccountingRig> rig;
  {
    Phase ph(t, kElabBuild, rec.build_cpu_s);
    rig = std::make_unique<AccountingRig>(spec, t, rec);
    drive(*rig, *rig->session, {trace});
  }
  rec.cells_sent = trace.size();
  run_and_finish(*rig->session, trace.arrivals().back().time + SimTime::from_ms(1),
                 t, rec);
  collect(*rig->session, rig->hdl, rig->clock, rec);
  rec.ref_applied = rig->refb->messages_applied();
  rec.board_test_cycles = rig->brd->totals().test_cycles;
  rec.cells_delivered = rig->acct.count(0);
  cosim::wire::Writer w;
  for (const std::uint64_t v :
       {rig->ref.count(0), rig->ref.clp1_count(0), rig->ref.charge(0),
        rig->acct.count(0), rig->acct.clp1_count(0), rig->acct.charge(0),
        rec.compared, rec.matched}) {
    w.u64(v);
  }
  rec.digest = cosim::wire::fnv1a(w.data().data(), w.data().size());
  check(rec, rec.cells_delivered == rec.cells_sent,
        count_msg("cells counted by the RTL unit", rec.cells_delivered,
                  rec.cells_sent));
  check(rec, rig->ref.count(0) == rec.cells_sent,
        count_msg("cells counted by the reference", rig->ref.count(0),
                  rec.cells_sent));
  check(rec, rec.compared == 2,
        count_msg("counter readbacks compared", rec.compared, 2));
}

}  // namespace

SessionRecord run_session(const SessionSpec& spec, Tracer* tracer) {
  // A calibration pass on either side of the session measures the host's
  // speed while it ran (calib.hpp).
  SessionRecord rec;
  const auto cal0 = std::chrono::steady_clock::now();
  rec.cal_s = calibrator().pass();
  const auto cal1 = std::chrono::steady_clock::now();
  const double cpu0 = thread_cpu_s();
  {
    Span whole(tracer, kSession);
    try {
      if (spec.scenario == kSwitchRtl) {
        run_switch_rtl(spec, tracer, rec);
      } else if (spec.scenario == kGcuHybrid) {
        run_gcu_hybrid(spec, tracer, rec);
      } else if (spec.scenario == kSwitchCoverify) {
        run_switch_coverify(spec, tracer, rec);
      } else if (spec.scenario == kAccounting) {
        run_accounting(spec, tracer, rec);
      } else {
        throw ConfigError("perfbench: unknown scenario '" + spec.scenario + "'");
      }
    } catch (const std::exception& e) {
      check(rec, false, e.what());
    }
  }
  rec.session_cpu_s = thread_cpu_s() - cpu0;
  rec.worker = static_cast<std::uint64_t>(::getpid());
  const auto cal2 = std::chrono::steady_clock::now();
  rec.cal_s += calibrator().pass();
  rec.cal_wall_s = std::chrono::duration<double>(
                       (cal1 - cal0) + (std::chrono::steady_clock::now() - cal2))
                       .count();
  rec.process_cpu_s = process_cpu_s();
  rec.ok = rec.error.empty();
  if (tracer != nullptr) rec.layers = tracer->take_totals();
  return rec;
}

// --- JSON (farm workers ship their records in SessionResult::detail) --------

namespace {

#define PERFBENCH_UINT_FIELDS(X)                                           \
  X(cells_sent) X(cells_delivered) X(cycles) X(activations) X(digest)      \
  X(net_events) X(pushes) X(windows) X(lookahead_stalls)                   \
  X(causality_errors) X(transactions) X(value_changes) X(delta_cycles)     \
  X(time_points) X(gated_skips) X(stim_calls) X(resp_calls) X(ref_applied) \
  X(compared) X(matched) X(divergences) X(board_test_cycles) X(worker)
#define PERFBENCH_DOUBLE_FIELDS(X)                                   \
  X(record_cpu_s) X(build_cpu_s) X(run_cpu_s) X(finish_cpu_s)      \
  X(session_cpu_s) X(cal_s) X(cal_wall_s) X(process_cpu_s) X(max_lag_s)

}  // namespace

json::Value SessionRecord::to_json() const {
  json::Value v{json::Object{}};
  v.set("ok", ok);
  v.set("error", error);
  // 64-bit counters and digests travel as decimal strings: JSON numbers are
  // doubles.
#define X(f) v.set(#f, std::to_string(f));
  PERFBENCH_UINT_FIELDS(X)
#undef X
#define X(f) v.set(#f, f);
  PERFBENCH_DOUBLE_FIELDS(X)
#undef X
  json::Array lat;
  lat.reserve(latency_ps.size());
  for (const std::int64_t l : latency_ps) lat.emplace_back(l);
  v.set("latency_ps", std::move(lat));
  json::Array self, calls;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    self.emplace_back(layers.self_s[i]);
    calls.emplace_back(std::to_string(layers.calls[i]));
  }
  v.set("layer_self_s", std::move(self));
  v.set("layer_calls", std::move(calls));
  return v;
}

SessionRecord SessionRecord::from_json(const json::Value& v) {
  SessionRecord r;
  r.ok = v.find("ok")->as_bool();
  r.error = v.find("error")->as_string();
#define X(f) r.f = std::stoull(v.find(#f)->as_string());
  PERFBENCH_UINT_FIELDS(X)
#undef X
#define X(f) r.f = v.find(#f)->as_double();
  PERFBENCH_DOUBLE_FIELDS(X)
#undef X
  for (const json::Value& l : v.find("latency_ps")->as_array())
    r.latency_ps.push_back(l.as_int());
  const json::Array& self = v.find("layer_self_s")->as_array();
  const json::Array& calls = v.find("layer_calls")->as_array();
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    r.layers.self_s[i] = self.at(i).as_double();
    r.layers.calls[i] = std::stoull(calls.at(i).as_string());
  }
  return r;
}

}  // namespace perfbench
