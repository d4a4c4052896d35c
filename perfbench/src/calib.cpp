#include "perfbench/src/calib.hpp"

#include <time.h>

#include <algorithm>
#include <numeric>
#include <utility>

namespace perfbench {

namespace {

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

namespace {

constexpr std::uint32_t kTable = 1u << 18;  // 2 MiB of state, 1 MiB of links
constexpr std::uint32_t kSteps = 60000;
constexpr std::uint32_t kPending = 512;

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Calibrator::Calibrator() : next_(kTable), state_(kTable) {
  // Sattolo's algorithm: a single cycle through every slot.
  std::iota(next_.begin(), next_.end(), 0u);
  std::uint64_t x = 1;
  for (std::uint32_t i = kTable - 1; i > 0; --i)
    std::swap(next_[i], next_[splitmix(x) % i]);
  for (std::uint64_t& s : state_) s = splitmix(x);
}

double Calibrator::pass() const {
  // The shape of an event-driven simulator's inner loop: pop the earliest
  // event, read the state it touches, branch on it, schedule its successor.
  // The tables are only read, so a forked farm worker shares them with the
  // parent without copying a page.
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // time, slot
  std::vector<Event> heap;
  heap.reserve(kPending);
  const auto later = [](const Event& a, const Event& b) { return a.first > b.first; };
  const double t0 = thread_cpu_s();
  for (std::uint32_t i = 0; i < kPending; ++i) heap.emplace_back(i, i * 509u % kTable);
  std::make_heap(heap.begin(), heap.end(), later);
  std::uint64_t acc = 0;
  for (std::uint32_t step = 0; step < kSteps; ++step) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [t, slot] = heap.back();
    const std::uint64_t s = state_[slot] * 0x5851f42d4c957f2dull + t + acc;
    if ((s >> 61) == 0) {
      acc ^= state_[next_[next_[slot]]];
    } else if ((s & 6) == 2) {
      acc += s >> 7;
    } else {
      acc = (acc << 13) | (acc >> 51);
    }
    heap.back() = {t + 1 + ((s >> 33) & 255), next_[slot]};
    std::push_heap(heap.begin(), heap.end(), later);
  }
  const double spent = thread_cpu_s() - t0;
  sink_.store(acc, std::memory_order_relaxed);
  return spent;
}

const Calibrator& calibrator() {
  static const Calibrator instance;
  return instance;
}

}  // namespace perfbench
