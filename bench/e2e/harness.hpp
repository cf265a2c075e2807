// Measurement plumbing for the repository benchmark (bench/e2e): a
// steady-clock stopwatch, an in-memory span tracer, a byte digest for
// determinism checks, and the metric report that ends in the one-line
// JSON result.
//
// Everything here sits outside the library: spans are recorded around
// calls into src/ modules from the benchmark's own code, never inside them.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `start`.
inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// One recorded span: a named interval on the benchmark's clock, the span
/// that contained it (-1 at the root) and the operation it belongs to
/// (one schedule, one update, one simulation run).
struct SpanRecord {
  const char* name = "";
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::uint64_t op = 0;
};

/// Span store. When disabled, opening and closing a span records nothing
/// (the Span still times its interval, so untraced runs share the code
/// path). Spans nest by construction order on the calling thread only.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Pauses or resumes recording; call only with no span open.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Opens a span; returns its index (or -1 when disabled).
  int open(const char* name, std::uint64_t op);
  void close(int index);

  /// Self time of every span: its length minus the union of its children.
  std::vector<double> self_ms() const;

  /// Writes one JSON object per span (name, start_ms, end_ms, parent, op,
  /// self_ms). Returns false when the file cannot be written.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span that always measures its own length.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t op)
      : tracer_(&tracer), index_(tracer.open(name, op)), start_(Clock::now()) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent) and returns its length in ms.
  double stop() {
    if (!stopped_) {
      length_ms_ = ms_since(start_);
      tracer_->close(index_);
      stopped_ = true;
    }
    return length_ms_;
  }

 private:
  Tracer* tracer_;
  int index_;
  Clock::time_point start_;
  bool stopped_ = false;
  double length_ms_ = 0.0;
};

/// Percentile `p` of `values` by parva::Samples (0 when empty). Copies
/// the values, so the caller's time order is kept.
double percentile_of(const std::vector<double>& values, double p);

enum class Better { kLower, kHigher };

/// FNV-1a over raw bytes; values are folded by their exact bit pattern.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add(std::uint64_t value) { add_bytes(&value, sizeof value); }
  void add(std::int64_t value) { add_bytes(&value, sizeof value); }
  void add(int value) { add(static_cast<std::int64_t>(value)); }
  void add(double value) { add(bits_of(value)); }
  /// Folds a multiset of values: the result does not depend on their
  /// order (a wrapping sum of mixed bit patterns, plus the count).
  void add_unordered(const std::vector<double>& values);
  std::uint64_t value() const { return state_; }

 private:
  static std::uint64_t bits_of(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
  }
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// One metric as printed: name, value, unit, direction.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Better better = Better::kLower;
};

/// Collects metrics, operation counts and report lines; renders the
/// human-readable report and the final JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit, Better better);
  /// Records one attempted operation; `ok == false` counts it as failed
  /// and prints `what` as a check failure.
  void operation(bool ok, const std::string& what);
  /// Free-form report line (printed before the JSON result).
  void note(const std::string& line) { notes_.push_back(line); }

  std::uint64_t failed() const { return failed_; }

  /// Prints the report lines, every metric with unit and direction, and
  /// the final JSON object as the last line of standard output.
  void print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace e2e
