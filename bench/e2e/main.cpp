// Repository benchmark entry point. Run through run.py, which builds this
// binary first:
//
//   python3 bench/e2e/run.py --workload plan_churn --seed 1 --seconds 10 --trace 0
//
// Prints a human-readable report followed by one JSON line
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
// operation failed or any correctness check did not hold, 2 on bad usage.
#include <exception>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "workload.hpp"

namespace {

void usage() {
  std::cerr << "usage: parva_e2e --workload plan_churn|serve_llm --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n";
}

}  // namespace

int main(int argc, char** argv) {
  const parva::CliArgs args(argc, argv);
  e2e::RunOptions options;
  options.workload = args.get("workload", "");
  const long long seed = args.get_int("seed", -1);
  const long long seconds = args.get_int("seconds", -1);
  const long long trace = args.get_int("trace", -1);
  options.trace_out = args.get("trace-out", "");
  if (!e2e::known_workload(options.workload) || seed < 0 || seconds < 1 || seconds > 600 ||
      (trace != 0 && trace != 1) || !args.repeated().empty() ||
      !args.positional().empty()) {
    usage();
    return 2;
  }
  options.seed = static_cast<std::uint64_t>(seed);
  options.budget_ms = static_cast<double>(seconds) * 1000.0;
  options.trace = trace == 1;

  e2e::Report report;
  try {
    e2e::run_workload(options, report);
  } catch (const std::exception& error) {
    // A throw out of the library is a failed operation, not a crash.
    report.operation(false, std::string("uncaught exception: ") + error.what());
  }
  report.print();
  return report.failed() == 0 ? 0 : 1;
}
