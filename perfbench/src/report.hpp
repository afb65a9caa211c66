// Result plumbing for the benchmark: order statistics, a minimal JSON
// writer, process provenance, and the benchmark-side host span log used by
// the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic host clock in seconds.
inline double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile (the "type 7" estimator), q in [0, 1].
/// Empty input reads as 0.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

/// Nearest-rank percentile over exact integer samples: the sample at rank
/// ceil(p * n); 0 for no samples.
double nearest_rank(std::vector<std::uint32_t> samples, double p);

/// Shortest round-trip decimal text for a double ("null" for NaN/inf).
std::string json_number(double value);
std::string json_string(std::string_view text);

/// An ordered JSON object built field by field.
class JsonObject {
 public:
  JsonObject& add(std::string_view key, double value);
  JsonObject& add(std::string_view key, std::uint64_t value);
  JsonObject& add(std::string_view key, bool value);
  JsonObject& add(std::string_view key, std::string_view value);
  JsonObject& add(std::string_view key, const char* value) {
    return add(key, std::string_view(value));
  }
  JsonObject& add(std::string_view key, const std::vector<double>& values);
  JsonObject& add(std::string_view key, const JsonObject& object);
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

/// One named metric with its unit, as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }
  /// Value of `name`; throws when absent.
  [[nodiscard]] double value(std::string_view name) const;
  [[nodiscard]] JsonObject json() const;

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident set size of this process in MiB (getrusage).
double peak_rss_mb();

/// Build facts recorded with every result.
JsonObject provenance(std::uint64_t seed);

/// Benchmark-side host spans: one per call the benchmark makes into a
/// layer, with its parent (the enclosing open span) and the request it
/// serves. Spans live in memory up to a cap and are written out as a
/// chrome trace when the run ends; calls past the cap are still counted
/// and timed into the per-name totals.
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap) : cap_(cap) {}

  /// Open a span; returns a token for end(). `name` must be a literal.
  std::size_t begin(const char* name, std::uint64_t request = 0);
  void end(std::size_t token);

  struct Totals {
    std::string name;
    std::uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;  ///< total minus time covered by child spans
  };
  [[nodiscard]] std::vector<Totals> totals() const;
  /// Write the stored spans as chrome-trace JSON ("X" events, host µs).
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    double start;
    double end;
  };
  struct Open {
    const char* name;
    std::uint64_t id;
    std::uint64_t request;
    double start;
    double child_s;  ///< time covered by closed children
  };
  struct Sum {
    const char* name;
    std::uint64_t calls;
    double total_s;
    double self_s;
  };

  std::size_t cap_;
  std::uint64_t next_id_ = 1;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::vector<Sum> sums_;
};

/// RAII span; a null log makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t request = 0)
      : log_(log), token_(log ? log->begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(token_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t token_;
};

}  // namespace perfbench
