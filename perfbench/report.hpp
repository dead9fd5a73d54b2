// Result record, outcome digest and timing helpers shared by the forksim
// benchmark workloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "crypto/keccak.hpp"
#include "support/bytes.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds this process has used so far, all threads, user and
/// system. On a shared host, wall time also counts the time the host gives
/// this guest's vCPUs to other guests (steal) and the waits that causes
/// between threads; CPU time leaves both out.
double process_cpu_s();

/// One timed stretch, in host (wall) seconds and process CPU seconds.
struct Timing {
  double host_s = 0.0;
  double cpu_s = 0.0;
};

/// Runs `body` and times it.
template <typename Body>
Timing timed(Body&& body) {
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  body();
  const double host_s = seconds_since(start);
  return {host_s, process_cpu_s() - cpu0};
}

/// Restarts the peak-resident-set mark at the current resident set (Linux
/// clear_refs; a no-op where that is not writable).
void reset_peak_rss();
/// Peak resident set of this process since the last reset_peak_rss() (or
/// since start), in MiB.
double peak_rss_mb();

/// Median of `xs` (0 for an empty list).
double median_of(std::vector<double> xs);

/// Keccak over simulated outcomes only. Values go in as fixed-width
/// big-endian words (doubles by bit pattern), so equal outcomes give equal
/// digests on every host.
class OutcomeDigest {
 public:
  void add(std::uint64_t v) {
    const auto be = forksim::be_fixed64(v);
    hasher_.update(forksim::BytesView(be.data(), be.size()));
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(bool v) { add(std::uint64_t{v ? 1u : 0u}); }
  void add(const forksim::Hash256& h) { hasher_.update(h.view()); }
  forksim::Hash256 finish() { return hasher_.digest(); }

 private:
  forksim::Keccak256 hasher_;
};

/// Everything one benchmark run reports: its parameters, every metric with
/// its unit, the correctness checks, the operation tally and the outcome
/// digest. Printed as one JSON line that run.py turns into the result.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::string workload;
  std::uint64_t seed = 0;
  std::vector<std::pair<std::string, double>> params;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;

  void param(std::string name, double value) {
    params.emplace_back(std::move(name), value);
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(std::string name, bool ok) {
    checks.emplace_back(std::move(name), ok);
  }

  /// One "name = value unit" line per metric, then the checks.
  void print_human(std::ostream& os) const;
  /// The single JSON line run.py parses.
  void print_json(std::ostream& os) const;
};

}  // namespace perfbench
