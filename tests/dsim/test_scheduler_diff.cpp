// Randomized differential test: Scheduler must execute events in exactly the
// order of a brute-force oracle, across random time mixes, equal-time ties,
// step, run_until, advance_to, and events that re-schedule from inside
// their own execution.  The oracle states the contract — strict
// (when, insertion-seq) order — in the most obvious way: a vector
// of pending events whose next one is found by a linear scan.  Any
// divergence is a Scheduler bug by definition.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/rng.hpp"
#include "src/dsim/scheduler.hpp"

namespace castanet {
namespace {

/// Events whose id is divisible by 5 schedule one follow-up from inside
/// their own execution; both sides derive it from the id, so the streams
/// stay identical as long as execution order does.
struct FollowUp {
  SimTime delay;
  int id;
};
std::optional<FollowUp> follow_up(int id) {
  if (id % 5 != 0 || id >= 1'000'000) return std::nullopt;
  return FollowUp{SimTime::from_ns(1 + id % 7), id + 1'000'000};
}

/// The ordering contract by brute force.
class Oracle {
 public:
  SimTime now() const { return now_; }
  bool empty() const { return pending_.empty(); }
  SimTime next_event_time() const {
    return pending_.empty() ? SimTime::max() : pending_[next()].when;
  }
  std::uint64_t scheduled() const { return seq_; }
  std::uint64_t executed() const { return executed_; }

  void schedule_at(SimTime when, int id) {
    pending_.push_back({when, seq_++, id});
  }

  bool step() {
    if (pending_.empty()) return false;
    const std::size_t i = next();
    const Pending e = pending_[i];
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    now_ = e.when;
    ++executed_;
    log.push_back(e.id);
    if (const auto f = follow_up(e.id)) {
      schedule_at(now_ + f->delay, f->id);
    }
    return true;
  }

  std::uint64_t run_until(SimTime limit) {
    if (limit < now_) return 0;
    std::uint64_t n = 0;
    while (!pending_.empty() && pending_[next()].when <= limit) {
      step();
      ++n;
    }
    if (now_ < limit) now_ = limit;
    return n;
  }

  std::uint64_t run() {
    std::uint64_t n = 0;
    while (step()) ++n;
    return n;
  }

  void advance_to(SimTime t) { now_ = t; }

  std::vector<int> log;

 private:
  struct Pending {
    SimTime when;
    std::uint64_t seq;
    int id;
  };

  std::size_t next() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < pending_.size(); ++i) {
      const Pending& a = pending_[i];
      const Pending& b = pending_[best];
      if (a.when != b.when ? a.when < b.when : a.seq < b.seq) {
        best = i;
      }
    }
    return best;
  }

  SimTime now_ = SimTime::zero();
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Pending> pending_;
};

/// Drives the same operation stream into the Scheduler and the oracle and
/// checks that every observable agrees: execution order, now(),
/// next_event_time(), empty(), and the E7 counters.
class DiffHarness {
 public:
  void schedule(SimTime when, int id) {
    sched_.schedule_at(when, [this, id] { run_event(id); });
    oracle_.schedule_at(when, id);
  }

  void step_both() {
    const bool s = sched_.step();
    const bool o = oracle_.step();
    ASSERT_EQ(s, o);
    check();
  }

  void run_until_both(SimTime limit) {
    const std::uint64_t s = sched_.run_until(limit);
    const std::uint64_t o = oracle_.run_until(limit);
    ASSERT_EQ(s, o);
    check();
  }

  void advance_both(SimTime delta) {
    SimTime t = sched_.now() + delta;
    if (oracle_.next_event_time() < t) t = oracle_.next_event_time();
    sched_.advance_to(t);
    oracle_.advance_to(t);
    check();
  }

  void drain() {
    const std::uint64_t s = sched_.run();
    const std::uint64_t o = oracle_.run();
    ASSERT_EQ(s, o);
    check();
    ASSERT_TRUE(sched_.empty());
  }

  void check() {
    ASSERT_EQ(log_.size(), oracle_.log.size());
    ASSERT_EQ(log_, oracle_.log) << "execution order diverged";
    ASSERT_EQ(sched_.now(), oracle_.now());
    ASSERT_EQ(sched_.next_event_time(), oracle_.next_event_time());
    ASSERT_EQ(sched_.empty(), oracle_.empty());
    ASSERT_EQ(sched_.events_executed(), oracle_.executed());
    ASSERT_EQ(sched_.events_scheduled(), oracle_.scheduled());
  }

  SimTime now() const { return sched_.now(); }

 private:
  void run_event(int id) {
    log_.push_back(id);
    if (const auto f = follow_up(id)) {
      const int next = f->id;
      sched_.schedule_at(sched_.now() + f->delay,
                         [this, next] { run_event(next); });
    }
  }

  Scheduler sched_;
  Oracle oracle_;
  std::vector<int> log_;
};

SimTime random_delay(Rng& rng, std::int64_t spread_ps) {
  return SimTime::from_ps(static_cast<std::int64_t>(
      rng.uniform_int(0, static_cast<std::uint64_t>(spread_ps))));
}

/// One randomized episode: `spread_ps` controls how far into the future
/// events land relative to now().
void run_episode(std::uint64_t seed, std::int64_t spread_ps, int ops) {
  Rng rng(seed);
  DiffHarness hx;
  int next_id = 1;
  SimTime last_when = SimTime::zero();
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t dice = rng.uniform_int(0, 99);
    if (dice < 60) {
      // Schedule; one in four reuses the previous time stamp to force
      // equal-time (seq) tie-breaking.
      SimTime when = hx.now() + random_delay(rng, spread_ps);
      if (rng.bernoulli(0.25) && last_when >= hx.now()) when = last_when;
      last_when = when;
      hx.schedule(when, next_id++);
    } else if (dice < 85) {
      hx.step_both();
    } else if (dice < 94) {
      hx.run_until_both(hx.now() + random_delay(rng, spread_ps));
    } else {
      hx.advance_both(random_delay(rng, spread_ps / 2 + 1));
    }
    if (testing::Test::HasFatalFailure()) return;
  }
  hx.drain();
}

TEST(SchedulerDiff, DenseTraffic) {
  // Small spread: heavy equal-time collisions.
  for (const std::uint64_t seed : {1u, 2u, 42u}) {
    run_episode(seed, 5'000, 1500);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(SchedulerDiff, CellRateTraffic) {
  // Spread around the ATM cell slot (~2.7us at 155 Mb/s), the network
  // simulator's own time scale.
  for (const std::uint64_t seed : {3u, 7u, 12345u}) {
    run_episode(seed, 3'000'000, 1500);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(SchedulerDiff, WideSpreadTraffic) {
  // Spread of 0.4 s: pending events many orders of magnitude apart.
  for (const std::uint64_t seed : {5u, 99u, 2026u}) {
    run_episode(seed, 400'000'000'000, 800);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(SchedulerDiff, MixedDenseAndWideBursts) {
  // Alternate dense bursts with wide ones, popping part of the backlog
  // between them, so near and far events interleave in one heap.
  Rng rng(77);
  DiffHarness hx;
  int next_id = 1;
  for (int round = 0; round < 6; ++round) {
    const std::int64_t spread = (round % 2 == 0) ? 2'000 : 50'000'000'000;
    for (int i = 0; i < 400; ++i) {
      const SimTime when =
          hx.now() + SimTime::from_ps(static_cast<std::int64_t>(rng.uniform_int(
                         1, static_cast<std::uint64_t>(spread))));
      hx.schedule(when, next_id++);
    }
    for (int i = 0; i < 300; ++i) {
      hx.step_both();
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  hx.drain();
}

}  // namespace
}  // namespace castanet
