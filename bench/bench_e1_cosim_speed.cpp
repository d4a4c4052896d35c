// Experiment E1 — the paper's §2 speed evaluation.
//
// "The simulation run time for processing 10,000 ATM cells arriving at an
//  ATM switch consisting of four port modules, one global control unit …
//  is approx. 130 seconds … equivalent to approx. 1,300 clock cycles per
//  second.  Taking the simulation time needed to simulate solely an RTL
//  representation of the global control unit this results in approx. 300
//  clock-cycles per second."
//
// We measure achieved simulated-clock-cycles per wall-clock second for:
//   (A) pure-HDL regression bench: RTL stimulus generators and RTL response
//       checkers around the full RTL switch — everything event-driven at
//       clock granularity, the style CASTANET replaces;
//   (B) CASTANET co-simulation: the same traffic from the network simulator
//       through the coupling into the full RTL switch, checking at the
//       abstract level;
//   (C) CASTANET co-simulation with only the global control unit in RTL and
//       the port modules abstracted into the network model (the paper's
//       hybrid configuration);
//   (R) configuration B with the RTL switch in a forked child process, the
//       process split of the paper's Fig. 2: the §3.1 protocol crosses a
//       socketpair, so R's cycles and activations equal B's and its speed
//       relative to B is the cost of that IPC.
//
// Absolute numbers reflect this machine, not a 1997 UltraSPARC; the paper's
// *shape* is that (B) and (C) beat (A), with (C) fastest.
//
// Scale with CASTANET_E1_CELLS (default 2000; the paper used 10,000).
#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>

#include "bench/bench_util.hpp"
#include "src/atm/hec.hpp"
#include "src/castanet/remote.hpp"
#include "src/castanet/session.hpp"
#include "src/core/transport.hpp"
#include "src/hw/atm_switch.hpp"
#include "src/hw/cell_bits.hpp"
#include "src/hw/reference.hpp"
#include "src/traffic/processes.hpp"
#include "src/traffic/trace.hpp"

using namespace castanet;
using bench::WallTimer;

namespace {

constexpr std::size_t kPorts = 4;
const SimTime kClk = clock_period_hz(20'000'000);
bool g_quiet = false;  // suppress per-run chatter when repeating runs

// --- RTL test bench modules (configuration A) --------------------------------

/// VHDL-style stimulus process: serializes a preloaded cell list onto the
/// physical port with clock-granular bookkeeping — a byte counter, a
/// serially updated CRC register and an LFSR (used for the inter-cell gap),
/// all as signals, the way a synthesizable/behavioral VHDL bench would keep
/// them.
class RtlStimulus : public rtl::Module {
 public:
  RtlStimulus(rtl::Simulator& sim, std::string name, rtl::Signal clk,
              hw::CellPort out, std::vector<traffic::CellArrival> cells)
      : Module(sim, std::move(name)), clk_(clk), out_(out),
        cells_(std::move(cells)) {
    byte_cnt = make_bus("byte_cnt", 6, rtl::Logic::L0);
    crc_state = make_bus("crc_state", 8, rtl::Logic::L0);
    lfsr = make_bus("lfsr", 16, rtl::Logic::L1);
    clocked("stim", clk_, [this] { on_clk(); });
  }

  bool done() const { return index_ >= cells_.size(); }
  std::uint64_t cells_sent() const { return index_; }

  rtl::Bus byte_cnt, crc_state, lfsr;

 private:
  void on_clk() {
    // LFSR ticks every clock (taps 16,14,13,11) — test-bench activity.
    std::uint64_t l = lfsr.read().is_defined() ? lfsr.read_uint() : 1;
    const std::uint64_t bit =
        ((l >> 15) ^ (l >> 13) ^ (l >> 12) ^ (l >> 10)) & 1;
    l = (l << 1 | bit) & 0xFFFF;
    lfsr.write_uint(l);

    if (index_ >= cells_.size()) {
      out_.valid.write(rtl::Logic::L0);
      out_.sync.write(rtl::Logic::L0);
      return;
    }
    // Honour the trace's timing: wait until the cell's start time.
    if (phase_ == 0 && sim().now() < cells_[index_].time) {
      out_.valid.write(rtl::Logic::L0);
      out_.sync.write(rtl::Logic::L0);
      return;
    }
    if (phase_ == 0) bytes_ = cells_[index_].cell.to_bytes();
    const std::uint8_t b = bytes_[phase_];
    out_.data.write(hw::byte_to_bits(b));
    out_.sync.write(phase_ == 0 ? rtl::Logic::L1 : rtl::Logic::L0);
    out_.valid.write(rtl::Logic::L1);
    byte_cnt.write_uint(phase_);
    // Serial CRC-8 update, one octet per clock, kept as a signal.
    std::uint8_t crc = static_cast<std::uint8_t>(
        crc_state.read().is_defined() ? crc_state.read_uint() : 0);
    crc = static_cast<std::uint8_t>(crc ^ b);
    for (int k = 0; k < 8; ++k) {
      crc = static_cast<std::uint8_t>((crc & 0x80) ? (crc << 1) ^ 0x07
                                                   : crc << 1);
    }
    crc_state.write_uint(crc);
    if (++phase_ == atm::kCellBytes) {
      phase_ = 0;
      ++index_;
    }
  }

  rtl::Signal clk_;
  hw::CellPort out_;
  std::vector<traffic::CellArrival> cells_;
  std::array<std::uint8_t, atm::kCellBytes> bytes_{};
  std::size_t index_ = 0;
  std::size_t phase_ = 0;
};

/// VHDL-style response checker: reassembles octets in a 424-bit shift
/// register signal, recomputes the HEC serially and flags mismatches — all
/// per clock.
class RtlChecker : public rtl::Module {
 public:
  RtlChecker(rtl::Simulator& sim, std::string name, rtl::Signal clk,
             hw::CellPort in)
      : Module(sim, std::move(name)), clk_(clk), in_(in) {
    shift = make_bus("shift", hw::kCellBits, rtl::Logic::L0);
    byte_cnt = make_bus("byte_cnt", 6, rtl::Logic::L0);
    error_flag = make_signal("error", rtl::Logic::L0);
    clocked("check", clk_, [this] { on_clk(); });
  }

  std::uint64_t cells_checked() const { return checked_; }
  std::uint64_t errors() const { return errors_; }

  rtl::Bus shift, byte_cnt;
  rtl::Signal error_flag;

 private:
  void on_clk() {
    if (!in_.valid.read_bool()) return;
    if (in_.sync.read_bool()) count_ = 0;
    rtl::LogicVector s = shift.read();
    if (!s.is_defined()) s = rtl::LogicVector(hw::kCellBits, rtl::Logic::L0);
    s.set_slice(8 * count_, in_.data.read());
    shift.write(s);
    byte_cnt.write_uint(count_);
    if (++count_ < atm::kCellBytes) return;
    count_ = 0;
    ++checked_;
    // Recompute the HEC from the shifted header (serially, as gates would).
    std::uint8_t hdr[5];
    for (int j = 0; j < 5; ++j) {
      hdr[j] = static_cast<std::uint8_t>(
          s.slice(8 * static_cast<std::size_t>(j), 8).to_uint());
    }
    if (atm::check_and_correct(hdr) == atm::HecResult::kUncorrectable) {
      ++errors_;
      error_flag.write(rtl::Logic::L1);
    }
  }

  rtl::Signal clk_;
  hw::CellPort in_;
  std::size_t count_ = 0;
  std::uint64_t checked_ = 0;
  std::uint64_t errors_ = 0;
};

struct Row {
  const char* config;
  std::uint64_t cells;
  std::uint64_t cycles;
  double wall_sec;
  std::uint64_t kernel_events;
};

void print_row(const Row& r, double baseline_cps) {
  const double cps = static_cast<double>(r.cycles) / r.wall_sec;
  std::printf("%-34s %8llu %9llu %8.2f %12.0f %7.2fx\n", r.config,
              static_cast<unsigned long long>(r.cells),
              static_cast<unsigned long long>(r.cycles), r.wall_sec, cps,
              cps / baseline_cps);
}

std::vector<std::vector<traffic::CellArrival>> make_traffic(
    std::size_t total_cells) {
  // Per-port CBR at 3.2 us spacing (> one 2.65 us cell time: lossless).
  std::vector<std::vector<traffic::CellArrival>> per_port(kPorts);
  const std::size_t per = total_cells / kPorts;
  for (std::size_t p = 0; p < kPorts; ++p) {
    traffic::CbrSource src({1, static_cast<std::uint16_t>(100 + p)},
                           static_cast<std::uint8_t>(p), SimTime::from_ns(3200),
                           SimTime::from_ns(static_cast<std::int64_t>(p) * 800));
    for (std::size_t i = 0; i < per; ++i) per_port[p].push_back(src.next());
  }
  return per_port;
}

void install_routes(hw::AtmSwitch& sw) {
  for (std::size_t p = 0; p < kPorts; ++p) {
    sw.install_route(p, {1, static_cast<std::uint16_t>(100 + p)},
                     atm::Route{static_cast<std::uint8_t>((p + 1) % kPorts),
                                {2, static_cast<std::uint16_t>(200 + p)},
                                {}});
  }
}

SimTime horizon_of(const std::vector<std::vector<traffic::CellArrival>>& t) {
  SimTime h = SimTime::zero();
  for (const auto& v : t) {
    if (!v.empty()) h = std::max(h, v.back().time);
  }
  return h + SimTime::from_us(200);  // drain margin
}

// (A) Pure-HDL regression bench.
Row run_pure_rtl(const std::vector<std::vector<traffic::CellArrival>>& traffic) {
  rtl::Simulator hdl;
  rtl::Signal clk(&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0));
  rtl::Signal rst(&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0));
  rtl::ClockGen clock(hdl, clk, kClk);
  hw::AtmSwitch sw(hdl, "sw", clk, rst);
  install_routes(sw);
  std::vector<std::unique_ptr<RtlStimulus>> stims;
  std::vector<std::unique_ptr<RtlChecker>> checkers;
  std::uint64_t cells = 0;
  for (std::size_t p = 0; p < kPorts; ++p) {
    cells += traffic[p].size();
    stims.push_back(std::make_unique<RtlStimulus>(
        hdl, "stim" + std::to_string(p), clk, sw.phys_in(p), traffic[p]));
    checkers.push_back(std::make_unique<RtlChecker>(
        hdl, "chk" + std::to_string(p), clk, sw.phys_out(p)));
  }
  const SimTime horizon = horizon_of(traffic);
  WallTimer timer;
  hdl.run_until(horizon);
  const double wall = timer.seconds();
  std::uint64_t checked = 0;
  for (const auto& c : checkers) checked += c->cells_checked();
  if (checked != cells) {
    std::printf("  !! pure-RTL bench checked %llu of %llu cells\n",
                static_cast<unsigned long long>(checked),
                static_cast<unsigned long long>(cells));
  }
  return {"A: pure-HDL bench (RTL switch)", cells, clock.rising_edges(), wall,
          hdl.stats().process_activations};
}

cosim::ConservativeSync::Params sync_params() {
  cosim::ConservativeSync::Params p;
  p.policy = cosim::SyncPolicy::kGlobalOrder;
  p.clock_period = kClk;
  return p;
}

/// Configuration B's RTL side: the full switch, a driver and a monitor per
/// port, and the RtlBackend that declares the four cell inputs (δ = 53).
/// B builds it in-process; R builds it in its child.
struct SwitchRtlRig {
  rtl::Simulator hdl;
  rtl::Signal clk{&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0)};
  rtl::Signal rst{&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0)};
  rtl::ClockGen clock{hdl, clk, kClk};
  hw::AtmSwitch sw{hdl, "sw", clk, rst};
  cosim::RtlBackend rtl{"rtl", hdl, sync_params()};
  std::vector<std::unique_ptr<hw::CellPortDriver>> drivers;
  std::vector<std::unique_ptr<hw::CellPortMonitor>> monitors;

  SwitchRtlRig() {
    install_routes(sw);
    for (std::size_t p = 0; p < kPorts; ++p) {
      drivers.push_back(std::make_unique<hw::CellPortDriver>(
          hdl, "drv" + std::to_string(p), clk, sw.phys_in(p)));
      monitors.push_back(std::make_unique<hw::CellPortMonitor>(
          hdl, "mon" + std::to_string(p), clk, sw.phys_out(p)));
      rtl.entity().register_input(
          static_cast<cosim::MessageType>(p), 53,
          [this, p](const cosim::TimedMessage& m) {
            drivers[p]->enqueue(*m.cell);
          });
    }
  }
};

/// Connects one trace generator per port to the session's gateway; returns
/// the number of cells they will send.
std::uint64_t add_generators(
    netsim::Simulation& net, netsim::Node& env,
    cosim::VerificationSession& session,
    const std::vector<std::vector<traffic::CellArrival>>& traffic) {
  std::uint64_t cells = 0;
  for (std::size_t p = 0; p < kPorts; ++p) {
    cells += traffic[p].size();
    traffic::CellTrace trace;
    for (const auto& a : traffic[p]) trace.append(a);
    auto& gen = env.add_process<traffic::GeneratorProcess>(
        "gen" + std::to_string(p),
        std::make_unique<traffic::TraceSource>(trace), trace.size());
    net.connect(gen, 0, session.gateway(), static_cast<unsigned>(p));
  }
  return cells;
}

// (B) Co-simulation with the full RTL switch.
Row run_cosim_full(const std::vector<std::vector<traffic::CellArrival>>& traffic) {
  netsim::Simulation net;
  netsim::Node& env = net.add_node("env");
  SwitchRtlRig rig;
  cosim::VerificationSession session(net, env, kPorts, {});
  session.attach(rig.rtl);
  session.set_response_handler([](const cosim::TimedMessage&) {});
  const std::uint64_t cells = add_generators(net, env, session, traffic);
  WallTimer timer;
  session.run_until(horizon_of(traffic));
  const double wall = timer.seconds();
  if (!g_quiet) {
    std::printf("  co-sim: %llu sync windows\n",
                static_cast<unsigned long long>(
                    session.stats().backends[0].windows));
  }
  return {"B: co-sim (RTL switch)", cells, rig.clock.rising_edges(), wall,
          rig.hdl.stats().process_activations};
}

// (R) Configuration B with the RTL switch hosted in a forked child.  The
// child builds B's RTL rig and serves it; the parent builds B's network side
// around a RemoteBackend proxy.  Forking first lets the child elaborate while
// the parent builds its side, outside the timed run.
Row run_cosim_remote(
    const std::vector<std::vector<traffic::CellArrival>>& traffic) {
  transport::Child host = transport::fork_child([](transport::FramePipe& pipe) {
    // The child's copy of the hub would be lost with it, and a trace stream
    // the parent attached must not be written from two processes.
    telemetry::Hub::instance().disable();
    SwitchRtlRig rig;
    // The kernel's totals travel back as one word response.
    rig.rtl.set_finish_hook([&rig](cosim::RtlBackend& b, SimTime) {
      b.entity().send_word_response(
          kPorts,
          {rig.clock.rising_edges(), rig.hdl.stats().process_activations});
    });
    return cosim::serve_backend(rig.rtl, pipe) ? 0 : 1;
  });

  netsim::Simulation net;
  netsim::Node& env = net.add_node("env");
  cosim::RemoteBackend rtl("rtl", sync_params(), std::move(host.pipe));
  for (std::size_t p = 0; p < kPorts; ++p) {
    rtl.declare_input(static_cast<cosim::MessageType>(p), 53);
  }
  cosim::VerificationSession session(net, env, kPorts, {});
  session.attach(rtl);
  std::uint64_t cycles = 0;
  std::uint64_t activations = 0;
  session.set_response_handler([&](const cosim::TimedMessage& m) {
    if (m.words.size() == 2) {
      cycles = m.words[0];
      activations = m.words[1];
    }
  });
  const std::uint64_t cells = add_generators(net, env, session, traffic);
  WallTimer timer;
  session.run_until(horizon_of(traffic));
  const double wall = timer.seconds();
  rtl.shutdown();
  const int status = transport::wait_child(host.pid);
  if (!g_quiet) {
    std::printf("  co-sim (remote): %llu sync windows, %llu round trips\n",
                static_cast<unsigned long long>(
                    session.stats().backends[0].windows),
                static_cast<unsigned long long>(rtl.round_trips()));
  }
  if (status != 0) {
    std::printf("  !! backend host exited with status %d\n", status);
  }
  return {"R: co-sim (RTL switch in child)", cells, cycles, wall, activations};
}

// (C) Co-simulation with only the GCU in RTL; ports abstracted.
Row run_cosim_gcu(const std::vector<std::vector<traffic::CellArrival>>& traffic) {
  netsim::Simulation net;
  netsim::Node& env = net.add_node("env");
  rtl::Simulator hdl;
  rtl::Signal clk(&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0));
  rtl::Signal rst(&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0));
  rtl::ClockGen clock(hdl, clk, kClk);

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
  hw::GlobalControlUnit gcu(hdl, "gcu", clk, rst, ifs);

  // Abstract port model: header translation happens at the cell level; the
  // RTL GCU only sees head-of-line requests, with a grant handshake driven
  // by a thin per-port pending queue.
  hw::SwitchRef ref(kPorts);
  for (std::size_t p = 0; p < kPorts; ++p) {
    ref.table(p).install({1, static_cast<std::uint16_t>(100 + p)},
                         atm::Route{static_cast<std::uint8_t>((p + 1) % kPorts),
                                    {2, static_cast<std::uint16_t>(200 + p)},
                                    {}});
  }
  struct PortState {
    std::deque<std::pair<atm::Cell, std::uint8_t>> pending;
    bool in_flight = false;
    unsigned cooldown = 0;
  };
  std::vector<PortState> ports(kPorts);
  std::uint64_t delivered = 0;
  hdl.add_process("harness", {clk.id()}, [&] {
    if (!clk.rose()) return;
    for (std::size_t p = 0; p < kPorts; ++p) {
      PortState& st = ports[p];
      if (gcu.grant(p).read_bool()) {
        st.pending.pop_front();
        st.in_flight = false;
        st.cooldown = 1;
        ifs[p].req.write(rtl::Logic::L0);
        ++delivered;
        continue;
      }
      if (st.cooldown > 0) {
        --st.cooldown;
        continue;
      }
      if (!st.pending.empty() && !st.in_flight) {
        ifs[p].cell.write(hw::cell_to_bits(st.pending.front().first));
        ifs[p].dest.write_uint(st.pending.front().second);
        ifs[p].req.write(rtl::Logic::L1);
        st.in_flight = true;
      }
    }
  });

  cosim::RtlBackend rtl("rtl", hdl, sync_params());
  cosim::VerificationSession session(net, env, kPorts, {});
  session.attach(rtl);
  session.set_response_handler([](const cosim::TimedMessage&) {});
  std::uint64_t cells = 0;
  for (std::size_t p = 0; p < kPorts; ++p) {
    cells += traffic[p].size();
    rtl.entity().register_input(
        static_cast<cosim::MessageType>(p), 2,
        [&, p](const cosim::TimedMessage& m) {
          const auto routed = ref.route(p, *m.cell);
          if (routed) {
            ports[p].pending.emplace_back(
                routed->cell, static_cast<std::uint8_t>(routed->out_port));
          }
        });
    traffic::CellTrace trace;
    for (const auto& a : traffic[p]) trace.append(a);
    auto& gen = env.add_process<traffic::GeneratorProcess>(
        "gen" + std::to_string(p),
        std::make_unique<traffic::TraceSource>(trace), trace.size());
    net.connect(gen, 0, session.gateway(), static_cast<unsigned>(p));
  }
  WallTimer timer;
  session.run_until(horizon_of(traffic));
  const double wall = timer.seconds();
  if (delivered != cells) {
    std::printf("  !! GCU harness delivered %llu of %llu cells\n",
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(cells));
  }
  return {"C: co-sim (RTL GCU only)", cells, clock.rising_edges(), wall,
          hdl.stats().process_activations};
}

}  // namespace

void record(bench::JsonReport& report, const Row& r, double baseline_cps) {
  report.begin_row(r.config);
  report.metric("cells", r.cells);
  report.metric("clk_cycles", r.cycles);
  report.metric("wall_seconds", r.wall_sec);
  report.metric("clk_cycles_per_sec",
                static_cast<double>(r.cycles) / r.wall_sec);
  report.metric("speedup_vs_a",
                static_cast<double>(r.cycles) / r.wall_sec / baseline_cps);
  report.metric("kernel_activations", r.kernel_events);
}

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv, "e1_cosim_speed");
  bench::TelemetryCli telemetry_cli(argc, argv);
  std::size_t total = 2000;
  if (const char* env = std::getenv("CASTANET_E1_CELLS")) {
    total = std::strtoull(env, nullptr, 10);
  }
  const auto traffic = make_traffic(total);
  // Restrict to a subset of configurations for profiling one configuration
  // in isolation: CASTANET_E1_ONLY is any combination of the letters
  // A (pure HDL), B (co-sim), C (GCU only), R (B with the RTL in a child).
  std::string only;
  if (const char* env = std::getenv("CASTANET_E1_ONLY")) only = env;
  const auto want = [&only](char key) {
    return only.empty() || only.find(key) != std::string::npos;
  };

  std::printf("E1: co-simulation vs pure-HDL test bench speed (paper §2)\n");
  std::printf("paper: co-sim ~1300 clk/s vs pure-RTL GCU bench ~300 clk/s "
              "(~4.3x) on an UltraSPARC\n");
  bench::rule('=');
  std::printf("%-34s %8s %9s %8s %12s %8s\n", "configuration", "cells",
              "clk cyc", "wall s", "clk cyc/s", "speedup");
  bench::rule();
  // CASTANET_E1_REPS > 1 runs the selected configurations round-robin
  // (A,B,C,R, A,B,C,R, ...) and reports each configuration's
  // best-by-wall-clock row, which is what BENCH_PR*.json records.
  // Alternation matters: single runs on a shared box are too noisy for
  // comparisons between configurations, and sequential blocks would fold
  // machine drift into the comparison.  The minimum (not the median) is the
  // estimator because external load is strictly additive noise: the
  // fastest sample is the least-contaminated one each configuration got.
  std::size_t reps = 1;
  if (const char* env = std::getenv("CASTANET_E1_REPS")) {
    reps = std::strtoull(env, nullptr, 10);
    if (reps == 0) reps = 1;
  }
  g_quiet = reps > 1;
  std::vector<std::function<Row()>> runs;
  if (want('A')) runs.push_back([&] { return run_pure_rtl(traffic); });
  if (want('B')) runs.push_back([&] { return run_cosim_full(traffic); });
  if (want('C')) runs.push_back([&] { return run_cosim_gcu(traffic); });
  if (want('R')) runs.push_back([&] { return run_cosim_remote(traffic); });

  // Rotate the within-round order each round: with a fixed order, later
  // slots run deeper into the sustained-busy window (frequency/thermal
  // decay, background scan kick-in) and pick up a small systematic
  // penalty that min-of-N cannot remove.
  std::vector<std::vector<Row>> samples(runs.size());
  for (std::size_t i = 0; i < reps; ++i) {
    for (std::size_t c = 0; c < runs.size(); ++c) {
      const std::size_t k = (c + i) % runs.size();
      samples[k].push_back(runs[k]());
    }
  }
  std::vector<Row> rows;
  for (auto& s : samples) {
    std::sort(s.begin(), s.end(),
              [](const Row& x, const Row& y) { return x.wall_sec < y.wall_sec; });
    rows.push_back(s.front());
  }
  const double base = rows.empty()
                          ? 1.0
                          : static_cast<double>(rows[0].cycles) / rows[0].wall_sec;
  for (const Row& r : rows) print_row(r, base);
  bench::rule();
  std::printf("HDL kernel process activations:");
  for (const Row& r : rows) {
    std::printf(" %llu", static_cast<unsigned long long>(r.kernel_events));
  }
  std::printf("\n");
  for (const Row& r : rows) record(report, r, base);
  return 0;
}
