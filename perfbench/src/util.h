// Small measurement helpers shared by the benchmark's workloads: order
// statistics over raw samples, process CPU / memory readings, and a
// metric sink that prints each value by name with its unit.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t MonoNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(MonoNs() - start_ns) / 1e9;
}

/// Linear-interpolated percentile (p in [0, 100]); sorts `v` in place.
/// Returns 0 for an empty sample.
inline double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

inline double Median(std::vector<double> v) { return Percentile(v, 50); }

/// Process CPU and context-switch counters from getrusage(RUSAGE_SELF).
struct Usage {
  double cpu_s = 0.0;
  int64_t ctx_switches = 0;

  static Usage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                  1e6;
    u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
    return u;
  }
};

inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Current resident set size in KiB (from /proc/self/statm).
inline double CurrentRssKb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long pages_total = 0;
  long pages_resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

/// Ordered (name, value, unit) triples; printed as human-readable lines
/// and as the metrics object of the result line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back(Item{name, value, unit});
  }

  void PrintLines() const {
    for (const Item& m : items_) {
      std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    char buf[256];
    for (size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", items_[i].name.c_str(),
                    items_[i].value, items_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
