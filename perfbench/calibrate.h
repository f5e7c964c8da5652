// Host-speed calibration. Other tenants of a shared host slow every CPU of
// a guest VM by up to a third, in phases that last from a second to
// minutes, so two runs of the same code can differ by 20% in wall time. The
// benchmark therefore probes the host's speed right before and right after
// each timed unit of work with a fixed loop of its own (string hashing and
// map inserts, the same kind of work as the library's hot paths), and
// scales the unit's wall time to the speed at which the loop takes
// kReferenceLoopS:
//
//   time at reference speed = wall time x kReferenceLoopS / loop time
//
// The probes run only while the program under test is idle (between pair
// runs, between passes, between load rounds), so nothing the program does
// can slow a probe down. Wall times are printed too, as raw.* metrics.

#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

#include <sched.h>

#include <vector>

namespace perfbench {

/// The calibration loop's time at reference speed: about its median time
/// on the 4-vCPU Xeon VM the benchmark's bounds were set on, so reference
/// times read close to that host's wall times.
inline constexpr double kReferenceLoopS = 0.004;

/// CPUs this process may run on (empty when the kernel will not say).
std::vector<int> AllowedCpus();

/// Pins the calling thread to one CPU while in scope, then gives it back
/// the CPU set it had (threads it starts meanwhile inherit the pin).
class ScopedPin {
 public:
  explicit ScopedPin(int cpu);
  ~ScopedPin();
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool restore_ = false;
};

/// The host's speed now, relative to reference speed (>1 is faster): the
/// loop runs three times on each of `cpus`, on all of them at once, and
/// each CPU's median time counts. With one CPU the calling thread runs it
/// there and gets its CPU set back; with none it runs where it is.
double HostSpeed(const std::vector<int>& cpus);

/// One timed unit of work: its wall time and the mean of the host speeds
/// probed right before and right after it.
struct Timing {
  double wall_s = 0.0;
  double speed = 1.0;
  double reference_s() const { return wall_s * speed; }
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
