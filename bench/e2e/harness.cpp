#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/stats.hpp"

namespace e2e {

int Tracer::open(const char* name, std::uint64_t op) {
  if (!enabled_) return -1;
  SpanRecord record;
  record.name = name;
  record.start_ms = ms_since(origin_);
  record.parent = stack_.empty() ? -1 : stack_.back();
  record.op = op;
  spans_.push_back(record);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ms = ms_since(origin_);
  // Spans close in reverse open order (RAII on one thread).
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<double> Tracer::self_ms() const {
  // Children of one parent run one after another on the calling thread, so
  // the part of the parent they cover is the sum of their lengths.
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ms - spans_[i].start_ms;
  }
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end_ms - span.start_ms;
    }
  }
  for (double& value : self) value = std::max(0.0, value);
  return self;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<double> self = self_ms();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f, "
                 "\"parent\": %d, \"op\": %llu, \"self_ms\": %.6f}\n",
                 i, span.name, span.start_ms, span.end_ms, span.parent,
                 static_cast<unsigned long long>(span.op), self[i]);
  }
  return std::fclose(out) == 0;
}

double percentile_of(const std::vector<double>& values, double p) {
  parva::Samples samples;
  samples.reserve(values.size());
  for (const double value : values) samples.add(value);
  return samples.percentile(p);
}

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::add_unordered(const std::vector<double>& values) {
  std::uint64_t sum = 0;
  for (const double v : values) {
    // SplitMix64 finalizer, so nearby values do not cancel in the sum.
    std::uint64_t z = bits_of(v) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    sum += z ^ (z >> 31);
  }
  add(static_cast<std::uint64_t>(values.size()));
  add(sum);
}

void Report::metric(const std::string& name, double value, const std::string& unit,
                    Better better) {
  metrics_.push_back(Metric{name, value, unit, better});
}

void Report::operation(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
}

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

void Report::print() const {
  for (const std::string& line : notes_) std::cout << line << "\n";
  for (const std::string& failure : failures_) std::cout << "CHECK FAILED: " << failure << "\n";
  std::cout << "operations: attempted=" << attempted_ << " failed=" << failed_
            << " failed_frac="
            << number(attempted_ == 0 ? 0.0
                                      : static_cast<double>(failed_) /
                                            static_cast<double>(attempted_))
            << "\n";
  for (const Metric& m : metrics_) {
    std::cout << "metric " << m.name << " = " << number(m.value) << " " << m.unit << " ("
              << (m.better == Better::kLower ? "lower" : "higher") << " is better)\n";
  }
  std::string json = "{\"correct\": ";
  json += failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + number(metrics_[i].value) +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace e2e
