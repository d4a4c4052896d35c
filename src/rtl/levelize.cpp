#include "src/rtl/levelize.hpp"

#include <algorithm>

namespace castanet::rtl {

namespace {

/// One dependency edge: following `sig`, influence reaches process `to`.
struct Edge {
  ProcessId to;
  SignalId sig;
};
using Graph = std::vector<std::vector<Edge>>;

/// Process-granularity cycle search (iterative DFS with an explicit stack so
/// deep designs cannot overflow the call stack).  Returns the first cycle
/// found as alternating "process -> signal -> process" path elements, or an
/// empty vector when the graph is acyclic.
std::vector<std::string> find_cycle(const Simulator& sim, const Graph& g) {
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(g.size(), kWhite);
  struct Frame {
    ProcessId pid;
    std::size_t next_edge;
  };
  for (ProcessId root = 0; root < g.size(); ++root) {
    if (color[root] != kWhite) continue;
    std::vector<Frame> stack{{root, 0}};
    // via[i] is the signal that led from stack[i-1] to stack[i].
    std::vector<SignalId> via{0};
    color[root] = kGray;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next_edge < g[f.pid].size()) {
        const Edge& e = g[f.pid][f.next_edge++];
        if (color[e.to] == kGray) {
          // Found a back edge: unwind the stack to the cycle entry.
          std::size_t start = stack.size();
          while (start > 0 && stack[start - 1].pid != e.to) --start;
          std::vector<std::string> path;
          for (std::size_t i = start - 1; i < stack.size(); ++i) {
            path.push_back("process '" + sim.process_name(stack[i].pid) + "'");
            const SignalId s = i + 1 < stack.size() ? via[i + 1] : e.sig;
            path.push_back("signal '" + sim.signal_name(s) + "'");
          }
          path.push_back("process '" + sim.process_name(e.to) + "'");
          return path;
        }
        if (color[e.to] == kWhite) {
          color[e.to] = kGray;
          stack.push_back({e.to, 0});
          via.push_back(e.sig);
        }
      } else {
        color[f.pid] = kBlack;
        stack.pop_back();
        via.pop_back();
      }
    }
  }
  return {};
}

/// Combinational dependency graph: P -> Q when P (a real process) drives a
/// signal Q is *sensitive* to.  All kernel writes are zero-delay, so a cycle
/// here is genuine delta-cycle feedback; clocked processes are only
/// sensitive to their clock, which the clock generator drives from the
/// external slot, so register loops do not appear.
Graph comb_graph(const Simulator& sim) {
  Graph g(sim.process_count());
  for (SignalId s = 0; s < sim.signal_count(); ++s) {
    for (ProcessId p : sim.drivers_of(s)) {
      if (p == kExternalProcess) continue;
      for (ProcessId q : sim.sensitive_processes(s)) {
        if (q == kExternalProcess) continue;
        g[p].push_back({q, s});
      }
    }
  }
  return g;
}

/// Iterative Tarjan SCC over the level-sensitive subgraph.  Returns the SCC
/// id per node (only meaningful where `in_graph`); fills `regions` with the
/// node sets of every non-trivial SCC and of trivial SCCs that carry a self
/// loop — the delta-loop fallback regions.
void fallback_sccs(const Graph& g, const std::vector<std::uint8_t>& in_graph,
                   const std::vector<std::uint8_t>& self_loop,
                   std::vector<FallbackRegion>& regions) {
  const std::size_t n = g.size();
  constexpr std::uint32_t kUnvisited = 0xFFFFFFFFu;
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> lowlink(n, 0);
  std::vector<std::uint8_t> on_stack(n, 0);
  std::vector<ProcessId> scc_stack;
  std::uint32_t next_index = 0;
  struct Frame {
    ProcessId pid;
    std::size_t next_edge;
  };
  std::vector<Frame> dfs;
  for (ProcessId root = 0; root < n; ++root) {
    if (!in_graph[root] || index[root] != kUnvisited) continue;
    dfs.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);
    on_stack[root] = 1;
    while (!dfs.empty()) {
      Frame& f = dfs.back();
      if (f.next_edge < g[f.pid].size()) {
        const ProcessId w = g[f.pid][f.next_edge++].to;
        if (!in_graph[w]) continue;
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          scc_stack.push_back(w);
          on_stack[w] = 1;
          dfs.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[f.pid] = std::min(lowlink[f.pid], index[w]);
        }
      } else {
        const ProcessId v = f.pid;
        dfs.pop_back();
        if (!dfs.empty()) {
          lowlink[dfs.back().pid] = std::min(lowlink[dfs.back().pid],
                                             lowlink[v]);
        }
        if (lowlink[v] == index[v]) {
          FallbackRegion region;
          ProcessId w;
          do {
            w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[w] = 0;
            region.members.push_back(w);
          } while (w != v);
          if (region.members.size() > 1 ||
              self_loop[region.members.front()]) {
            std::sort(region.members.begin(), region.members.end());
            regions.push_back(std::move(region));
          }
        }
      }
    }
  }
}

}  // namespace

LevelSchedule levelize(const Simulator& sim) {
  LevelSchedule out;
  const std::size_t n = sim.process_count();
  out.kind.assign(n, ProcKind::kSequential);
  out.rank.assign(n, 0);
  if (n == 0) return out;
  out.kind[kExternalProcess] = ProcKind::kExternal;

  // Classification: a process with at least one level-sensitive entry can be
  // woken by combinational settling; one woken only by rising edges (or by
  // nothing at all) belongs to the sequential synchronization phase.
  std::vector<std::uint8_t> level_sensitive(n, 0);
  for (SignalId s = 0; s < sim.signal_count(); ++s) {
    const std::vector<ProcessId>& procs = sim.sensitive_processes(s);
    const std::vector<std::uint8_t>& rising = sim.sensitive_rising(s);
    for (std::size_t i = 0; i < procs.size(); ++i) {
      if (rising[i] == 0) level_sensitive[procs[i]] = 1;
    }
  }
  for (ProcessId p = 1; p < n; ++p) {
    if (level_sensitive[p]) out.kind[p] = ProcKind::kCombinational;
  }

  // Level-sensitive dependency edges among combinational processes: P -> Q
  // when P drives a signal that wakes Q on any change.  Edge-restricted
  // entries and sequential/external drivers are boundaries, not edges.
  Graph g(n);
  std::vector<std::uint8_t> in_graph(n, 0);
  std::vector<std::uint8_t> self_loop(n, 0);
  for (ProcessId p = 1; p < n; ++p) {
    in_graph[p] = out.kind[p] == ProcKind::kCombinational;
  }
  for (SignalId s = 0; s < sim.signal_count(); ++s) {
    const std::vector<ProcessId>& procs = sim.sensitive_processes(s);
    const std::vector<std::uint8_t>& rising = sim.sensitive_rising(s);
    for (ProcessId d : sim.drivers_of(s)) {
      if (d == kExternalProcess || !in_graph[d]) continue;
      for (std::size_t i = 0; i < procs.size(); ++i) {
        if (rising[i] != 0 || !in_graph[procs[i]]) continue;
        if (procs[i] == d) {
          self_loop[d] = 1;  // latch-style feedback onto itself
        } else {
          g[d].push_back({procs[i], s});
        }
      }
    }
  }

  // Cyclic regions get no rank.
  fallback_sccs(g, in_graph, self_loop, out.fallback_regions);
  for (const FallbackRegion& r : out.fallback_regions) {
    for (ProcessId p : r.members) out.kind[p] = ProcKind::kFallback;
  }

  // Kahn levelization of the remaining (acyclic) combinational subgraph;
  // edges touching a fallback process are dropped.
  std::vector<std::uint32_t> indegree(n, 0);
  for (ProcessId p = 1; p < n; ++p) {
    if (out.kind[p] != ProcKind::kCombinational) continue;
    for (const Edge& e : g[p]) {
      if (out.kind[e.to] == ProcKind::kCombinational) ++indegree[e.to];
    }
  }
  std::vector<ProcessId> ready;
  for (ProcessId p = 1; p < n; ++p) {
    if (out.kind[p] == ProcKind::kCombinational && indegree[p] == 0) {
      ready.push_back(p);
    }
  }
  while (!ready.empty()) {
    const ProcessId p = ready.back();
    ready.pop_back();
    for (const Edge& e : g[p]) {
      if (out.kind[e.to] != ProcKind::kCombinational) continue;
      out.rank[e.to] = std::max(out.rank[e.to], out.rank[p] + 1);
      if (--indegree[e.to] == 0) ready.push_back(e.to);
    }
  }
  for (ProcessId p = 1; p < n; ++p) {
    switch (out.kind[p]) {
      case ProcKind::kSequential: ++out.sequential_count; break;
      case ProcKind::kCombinational:
        ++out.combinational_count;
        out.max_rank = std::max(out.max_rank, out.rank[p]);
        break;
      case ProcKind::kFallback: ++out.fallback_count; break;
      default: break;
    }
  }
  return out;
}

std::vector<std::string> find_combinational_cycle(const Simulator& sim) {
  return find_cycle(sim, comb_graph(sim));
}

}  // namespace castanet::rtl
