// In-memory host-time span recorder for the traced benchmark run.
//
// Spans are opened around calls into the simulator's layers from the
// benchmark's own code (no instrumentation inside src/). Each records its
// name, host start and end, its parent span and the workload run id. They
// stay in memory until the run ends; then they are summarised into per-name
// self time and written out as Chrome trace JSON through obs::EventTracer,
// the format the simulator's own sim-time traces use.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // host seconds since the recorder was created
    double end = 0.0;
    int parent = -1;  // the parent's recording index, -1 for a root span
    std::uint32_t run = 0;
  };

  /// Per-name totals. Self time is a span's duration minus the part of it
  /// its direct children cover.
  struct Totals {
    std::string name;
    std::uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };

  /// A disabled recorder hands out no-op scopes: the untraced run pays one
  /// branch per scope.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_ = -1;
  };

  Scope scope(std::string name) {
    return Scope(enabled_ ? this : nullptr, std::move(name));
  }
  void set_run(std::uint32_t run) noexcept { run_ = run; }

  /// Totals per span name, in first-seen order.
  std::vector<Totals> totals() const;
  /// Chrome trace-event JSON (one complete event per span; lane = run id,
  /// args carry span id, parent id and self time in microseconds).
  bool write_chrome_json(const std::string& path) const;

 private:
  double now() const { return seconds_since(origin_); }
  std::vector<double> self_times() const;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::uint32_t run_ = 0;
};

}  // namespace perfbench
