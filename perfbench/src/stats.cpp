#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <numeric>
#include <thread>

namespace perfbench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double children_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double tail(std::vector<double> v, double* percentile) {
  *percentile = 0.0;
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t k = n > 10 ? n - 11 : n - 1;
  *percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  return v[k];
}

namespace {

/// A dependent xorshift chain: no memory traffic, nothing to vectorize,
/// so its wall time only depends on how much of a core it gets.
uint64_t spin(uint64_t iters) {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double time_spin(int threads, uint64_t iters) {
  std::vector<uint64_t> sink(static_cast<size_t>(threads));
  std::vector<std::thread> pool;
  const double t0 = wall_s();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t, iters] { sink[t] = spin(iters); });
  }
  for (auto& th : pool) th.join();
  const double dt = wall_s() - t0;
  volatile uint64_t keep = sink[0];
  (void)keep;
  return dt;
}

}  // namespace

BoxCalibration calibrate_box() {
  constexpr uint64_t kIters = 20'000'000;  // ~20-40 ms per thread
  std::vector<double> one;
  std::vector<double> two;
  for (int r = 0; r < 3; ++r) {
    one.push_back(time_spin(1, kIters));
    two.push_back(time_spin(2, kIters));
  }
  BoxCalibration c;
  c.hardware_threads = std::thread::hardware_concurrency();
  c.parallelism = 2.0 * median(one) / median(two);
  return c;
}

}  // namespace perfbench
