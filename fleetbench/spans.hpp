// spans.hpp — the benchmark's own span log. Spans are recorded from the
// benchmark's files around calls into the library's public functions (the
// library itself carries no benchmark instrumentation), kept in memory and
// written out once when the run ends. Single-threaded by design: every span
// opens and closes on the caller's thread, so parent links follow the call
// nesting and a span's self time is its duration minus its direct children.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace fleetbench {

struct Span {
  std::string name;   ///< the library call, e.g. "fleet.step_epoch"
  std::string layer;  ///< the module the call belongs to, e.g. "fleet"
  double start_s = 0.0;  ///< seconds since the log was created
  double end_s = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  long long count = 1;  ///< calls the span covers (probes batch many)
};

class SpanLog {
 public:
  SpanLog();

  /// Opens a span nested in the innermost open one; returns its index.
  int open(std::string name, std::string layer, long long count = 1);
  /// Closes span `id`, which must be the innermost open span.
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the time covered by direct children, per span.
  [[nodiscard]] std::vector<double> self_times() const;
  /// Self time summed per layer.
  [[nodiscard]] std::map<std::string, double> self_time_by_layer() const;
  /// Durations (seconds) of every span called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Seconds since the log was created.
  [[nodiscard]] double now() const;

  /// Writes every span as one JSON document; throws std::runtime_error when
  /// the file cannot be written.
  void write_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log makes it a no-op, so one code path serves the timed
/// and the traced run.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::string layer,
             long long count = 1)
      : log_(log),
        id_(log != nullptr ? log->open(std::move(name), std::move(layer), count)
                           : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace fleetbench
