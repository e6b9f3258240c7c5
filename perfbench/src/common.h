// Shared helpers of the benchmark: its own seeded RNG, timing, order
// statistics, payload parsing and the result line.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The benchmark's own generator RNG (splitmix64), independent of the
/// library's, so inputs stay fixed whatever the program does with its RNG.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : x_(seed) {}
  uint64_t Next() {
    uint64_t z = (x_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); the tiny modulo bias is irrelevant here.
  size_t Below(size_t bound) { return static_cast<size_t>(Next() % bound); }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  uint64_t x_;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median (mean of the two middle values for an even count); 0 if empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Peak resident set size of this process, in MB (from /proc/self/status).
double PeakRssMb();

/// `key=value` fields of a response payload (values unquoted verbatim).
std::map<std::string, std::string> PayloadFields(const std::string& payload);

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The run's result: printed as human-readable lines, then as the final
/// JSON line the harness reads.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  // the line's "metrics" object
  std::vector<Metric> info;     // printed only as readable lines
  std::vector<std::string> errors;

  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
  void Print() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
