#include "report.hpp"

#include <sys/resource.h>

#include <cstdlib>
#include <ctime>
#include <fstream>

#include "obs/json.hpp"
#include "support/stats.hpp"

namespace perfbench {

double process_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median_of(std::vector<double> xs) {
  return xs.empty() ? 0.0 : forksim::median(std::move(xs));
}

void Report::print_human(std::ostream& os) const {
  for (const Metric& m : metrics)
    os << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  for (const auto& [name, ok] : checks)
    os << "  check " << name << ": " << (ok ? "ok" : "FAILED") << "\n";
  os << "  operations: " << attempted << " attempted, " << failed
     << " failed\n  outcome digest: " << digest << "\n";
}

void Report::print_json(std::ostream& os) const {
  using forksim::obs::json_number;
  using forksim::obs::json_string;
  os << "{\"workload\": ";
  json_string(os, workload);
  os << ", \"seed\": " << seed << ", \"digest\": ";
  json_string(os, digest);
  os << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"params\": {";
  for (std::size_t i = 0; i < params.size(); ++i) {
    os << (i ? ", " : "");
    json_string(os, params[i].first);
    os << ": ";
    json_number(os, params[i].second);
  }
  os << "}, \"checks\": {";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    os << (i ? ", " : "");
    json_string(os, checks[i].first);
    os << ": " << (checks[i].second ? "true" : "false");
  }
  os << "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "");
    json_string(os, metrics[i].name);
    os << ": {\"value\": ";
    json_number(os, metrics[i].value);
    os << ", \"unit\": ";
    json_string(os, metrics[i].unit);
    os << "}";
  }
  os << "}}\n";
}

}  // namespace perfbench
