#include "calibrate.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kLoopKeys = 20000;
constexpr int kLoopRounds = 2;
constexpr int kLoopsPerProbe = 3;

std::atomic<uint64_t> loop_sink{0};  // keeps the loop's work observable

const std::vector<std::string>& LoopKeys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> out;
    uint64_t x = 7;
    for (int i = 0; i < kLoopKeys; ++i) {
      std::string key;
      const int length = 6 + i % 10;
      for (int j = 0; j < length; ++j) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        key.push_back(static_cast<char>('a' + (x >> 59) % 26));
      }
      out.push_back(std::move(key));
    }
    return out;
  }();
  return keys;
}

/// One run of the calibration loop: substring copies, hashing and map
/// inserts over a fixed key set. Returns its wall time in seconds.
double LoopSeconds() {
  const std::vector<std::string>& keys = LoopKeys();
  const Clock::time_point start = Clock::now();
  std::unordered_map<std::string, uint32_t> counts;
  uint64_t sum = 0;
  for (int round = 0; round < kLoopRounds; ++round) {
    for (const std::string& key : keys) sum += ++counts[key.substr(1)];
  }
  loop_sink.store(sum + counts.size(), std::memory_order_relaxed);
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

double MedianLoopSeconds() {
  double runs[kLoopsPerProbe];
  for (double& run : runs) run = LoopSeconds();
  std::sort(runs, runs + kLoopsPerProbe);
  return runs[kLoopsPerProbe / 2];
}

}  // namespace

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

ScopedPin::ScopedPin(int cpu) {
  restore_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
  PinToCpu(cpu);
}

ScopedPin::~ScopedPin() {
  if (restore_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
}

double HostSpeed(const std::vector<int>& cpus) {
  LoopKeys();  // built once, outside any probe
  if (cpus.empty()) return kReferenceLoopS / MedianLoopSeconds();
  if (cpus.size() == 1) {
    const ScopedPin pin(cpus.front());
    return kReferenceLoopS / MedianLoopSeconds();
  }
  // All CPUs at once: a unit that keeps several CPUs busy slows down with
  // everything they share, which a probe of one CPU at a time misses.
  std::vector<double> seconds(cpus.size(), 0.0);
  std::vector<std::thread> probes;
  for (size_t i = 0; i < cpus.size(); ++i) {
    probes.emplace_back([&seconds, &cpus, i] {
      PinToCpu(cpus[i]);
      seconds[i] = MedianLoopSeconds();
    });
  }
  for (std::thread& probe : probes) probe.join();
  double total_s = 0.0;
  for (double s : seconds) total_s += s;
  return kReferenceLoopS * static_cast<double>(cpus.size()) / total_s;
}

}  // namespace perfbench
