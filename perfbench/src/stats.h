// Clocks, resource readings and summary statistics for the benchmark.
#pragma once

#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double wall_s();
/// CPU time of this process, all threads, user + system, seconds.
double process_cpu_s();
/// CPU time, user + system, of the children this process has waited for.
double children_cpu_s();
/// Peak resident set of this process so far, MiB.
double peak_rss_mb();

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// The highest percentile with at least ten samples above it: the
/// (n-10)-th smallest sample. `*percentile` receives its rank as a
/// percentile. With ten samples or fewer it is the maximum (100).
double tail(std::vector<double> v, double* percentile);

/// Context for reading a run on a shared box: the hardware threads the
/// OS reports, and the parallelism a fixed spin loop actually reaches on
/// two threads (1.0 = none, 2.0 = two free cores). Neighbours on the
/// host move the second from run to run.
struct BoxCalibration {
  unsigned hardware_threads = 0;
  double parallelism = 0.0;
};
BoxCalibration calibrate_box();

}  // namespace perfbench
