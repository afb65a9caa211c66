#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

Quartiles quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quartiles{quantile(values, 0.25), quantile(values, 0.5),
                   quantile(values, 0.75)};
}

double nearest_rank(std::vector<std::uint32_t> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return static_cast<double>(samples[rank - 1]);
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  if (ec != std::errc()) return "null";
  return std::string(buf, end);
}

std::string json_string(std::string_view text) {
  return '"' + namecoh::json_escape(text) + '"';
}

void JsonObject::key(std::string_view k) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(k);
  body_ += ": ";
}

JsonObject& JsonObject::add(std::string_view k, double value) {
  key(k);
  body_ += json_number(value);
  return *this;
}

JsonObject& JsonObject::add(std::string_view k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::add(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::add(std::string_view k, std::string_view value) {
  key(k);
  body_ += json_string(value);
  return *this;
}

JsonObject& JsonObject::add(std::string_view k,
                            const std::vector<double>& values) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += json_number(values[i]);
  }
  body_ += "]";
  return *this;
}

JsonObject& JsonObject::add(std::string_view k, const JsonObject& object) {
  key(k);
  body_ += object.str();
  return *this;
}

double MetricSet::value(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  throw std::out_of_range("no metric " + std::string(name));
}

JsonObject MetricSet::json() const {
  JsonObject out;
  for (const Metric& m : metrics_) {
    JsonObject entry;
    entry.add("value", m.value).add("unit", m.unit);
    out.add(m.name, entry);
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

JsonObject provenance(std::uint64_t seed) {
  JsonObject out;
  out.add("seed", seed);
  out.add("num_cpus",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
#ifdef NDEBUG
  out.add("build_type", "optimized, NDEBUG");
#else
  out.add("build_type", "optimized, asserts on");
#endif
#if defined(__clang__)
  out.add("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  out.add("compiler", "gcc " __VERSION__);
#else
  out.add("compiler", "unknown");
#endif
  return out;
}

std::size_t SpanLog::begin(const char* name, std::uint64_t request) {
  stack_.push_back(Open{name, next_id_++, request, host_now(), 0.0});
  return stack_.size() - 1;
}

void SpanLog::end(std::size_t token) {
  // Spans nest strictly (RAII), so the token is always the top of stack.
  const Open open = stack_[token];
  stack_.resize(token);
  const double now = host_now();
  const double dur = now - open.start;
  const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  if (!stack_.empty()) stack_.back().child_s += dur;
  if (spans_.size() < cap_) {
    spans_.push_back(
        Span{open.name, open.id, parent, open.request, open.start, now});
  }
  auto it = std::find_if(sums_.begin(), sums_.end(), [&](const Sum& s) {
    return std::string_view(s.name) == open.name;
  });
  if (it == sums_.end()) {
    sums_.push_back(Sum{open.name, 0, 0.0, 0.0});
    it = sums_.end() - 1;
  }
  ++it->calls;
  it->total_s += dur;
  it->self_s += dur - open.child_s;
}

std::vector<SpanLog::Totals> SpanLog::totals() const {
  std::vector<Totals> out;
  for (const Sum& s : sums_) {
    out.push_back(Totals{s.name, s.calls, s.total_s, s.self_s});
  }
  return out;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i > 0 ? ",\n" : "") << "{\"name\": " << json_string(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << json_number((s.start - origin) * 1e6)
        << ", \"dur\": " << json_number((s.end - s.start) * 1e6)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
