// The benchmark workloads (README.md in this directory): plan_churn and
// serve_llm. Each one plans its fleet, churns it through
// a seeded sequence of single-service updates applied live, and simulates
// serving; the workloads differ in fleet and in which phase gets the
// measurement time.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measurement budget of the run (the phases share it).
  double budget_ms = 10'000.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

/// True when `name` is one of the workloads.
bool known_workload(const std::string& name);

/// Runs one workload and fills `report` with the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run), the operation
/// counts, and the report lines.
void run_workload(const RunOptions& options, Report& report);

}  // namespace e2e
