#pragma once
// What the three workloads share: the result record, statistics helpers,
// thread binding and idle spinners, the host-steal counter and the machine
// context. Every run ends by printing one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/stats.hpp"

namespace vcgtbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  ///< traced run: report per-layer metrics only
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `correct` turns false on the first
/// failed check; each failed operation is also counted in `failed`.
struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a correctness check; prints failures to stderr.
  void check(bool ok, const std::string& what);
};

using vcgt::util::quantile;
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
inline double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Binds the calling thread to `count` CPUs starting at `first` (indices
/// wrap at the CPU count), the way MPI launchers bind ranks to cores; rank
/// threads then keep their core and cache for the whole run. Threads the
/// caller creates afterwards inherit the binding. Unbound when the OS
/// refuses.
void bind_to_cpus(int first, int count = 1);
/// Binds the thread with kernel id `tid` (of this process) to one CPU.
void bind_thread_id(int tid, int cpu);

/// The CPU a rank thread is bound to: CPU 0 stays with the driver thread.
inline int rank_cpu(int rank) { return rank + 1; }

/// Keeps CPUs [first, first + count) busy at SCHED_IDLE priority while
/// alive. minimpi ranks block in the kernel while they wait for a message,
/// where MPI ranks busy-poll; a vCPU left with nothing to run halts, and on
/// a loaded host waking it again costs the woken thread up to milliseconds
/// of steal. With the spinners the vCPUs keep running (measured: host steal
/// per 15 s run fell from 2-5 s to 0.2-0.5 s), and any normal thread that
/// becomes runnable preempts them at once.
class IdleSpinners {
 public:
  IdleSpinners(int first, int count);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Peak resident set size of this process (VmHWM) in MiB.
double peak_rss_mb();

/// CPU time stolen by the hypervisor so far, summed over CPUs (the "steal"
/// column of /proc/stat); 0 where the kernel does not report it.
double steal_seconds();

/// One-line JSON description of the machine: nproc and the cache sizes
/// sysfs reports for cpu0. Printed with every run.
std::string machine_context_json();

/// Prints the closing JSON line with the metrics the run mode asks for.
void print_result(const Result& r, bool trace);

}  // namespace vcgtbench
