// Quickstart: register three inference services, profile their models,
// and let ParvaGPU produce a minimal-GPU deployment map.
//
//   $ ./examples/quickstart
//
// Walks the whole public API in ~50 lines: ModelCatalog -> Profiler ->
// ParvaGpuScheduler -> metrics.
#include <iostream>

#include "core/metrics.hpp"
#include "core/parvagpu.hpp"
#include "profiler/profiler.hpp"

int main() {
  using namespace parva;

  // 1. The built-in catalog describes the paper's 11 DNN workloads.
  const auto& catalog = perfmodel::ModelCatalog::builtin();
  perfmodel::AnalyticalPerfModel perf(catalog);

  // 2. One-time profiling: throughput/latency over (instance size, batch,
  //    MPS process count). On real hardware this sweep runs on a spare GPU.
  profiler::Profiler profiler(perf);
  const profiler::ProfileSet profiles =
      profiler.profile_all({"resnet-50", "bert-large", "mobilenetv2"});

  // 3. Register services: model + SLO latency (ms) + request rate (req/s).
  const std::vector<core::ServiceSpec> services = {
      {0, "resnet-50", 205.0, 829.0, {}},
      {1, "bert-large", 6434.0, 19.0, {}},
      {2, "mobilenetv2", 167.0, 677.0, {}},
  };

  // 4. Schedule: Segment Configurator + Segment Allocator.
  core::ParvaGpuScheduler scheduler(profiles);
  const auto result = scheduler.schedule(services);
  if (!result.ok()) {
    std::cerr << "scheduling failed: " << result.error().to_string() << "\n";
    return 1;
  }

  // 5. Inspect the deployment map.
  const core::Deployment& deployment = result.value().deployment;
  std::cout << "deployment map: " << scheduler.last_plan().to_string() << "\n\n";
  for (const core::DeployedUnit& unit : deployment.units) {
    std::cout << "  service " << unit.service_id << " (" << unit.model << ") -> GPU"
              << unit.gpu_index << " " << unit.gpc_grant << "g@"
              << unit.placement->start_slot << "  batch=" << unit.batch
              << " procs=" << unit.procs << "  " << unit.actual_throughput
              << " req/s @ " << unit.actual_latency_ms << " ms\n";
  }

  const auto metrics = core::compute_metrics(deployment, services);
  std::cout << "\nGPUs used:              " << metrics.gpu_count
            << "\ninternal slack:         " << metrics.internal_slack * 100 << "%"
            << "\nexternal fragmentation: " << metrics.external_fragmentation * 100 << "%"
            << "\nscheduling delay:       " << result.value().scheduling_delay_ms << " ms\n";
  return 0;
}
