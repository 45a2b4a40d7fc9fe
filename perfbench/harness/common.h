// Shared helpers of the benchmark harness: clocks, order statistics, the
// metric sink every workload writes into, and the run configuration.
#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0, Clock::time_point t1 = Clock::now()) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty vector.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// printf into a std::string (report lines are short).
template <typename... Args>
std::string Sprintf(const char* format, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Keeps a computed value observable so a timed loop is not optimized away.
inline void Consume(double v) { asm volatile("" : : "g"(v) : "memory"); }

inline double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Size of a workload: kFull is what BENCHMARK.json measures; kSmall is the
/// self-check's reduced mode (same code paths, 1/16 of the records).
enum class Scale { kFull, kSmall };

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  int threads = 1;              // nproc; every build and the server use it
  std::string serve_bin;        // path of the wavemr_serve binary
  std::string trace_out;        // Chrome trace-event file (traced runs)
};

/// Everything a run reports. `metrics` holds the machine-read numbers
/// (end-to-end in untraced runs, per-layer in traced runs); `notes` are the
/// human-readable report lines printed above the JSON result.
struct RunResult {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  /// Records one operation and whether its output passed the checks.
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
