// Reproduces Figure 11: scheduling delay as the S5 service count scales
// from 1x to 10x. MIG-serving's joint sizing+placement search makes its
// delay grow steeply with the service count; ParvaGPU's two-stage pipeline
// stays near-linear.
//
// Paper: ParvaGPU reduces delay by on average 15.8% vs gpulet and 99.9% vs
// MIG-serving; ParvaGPU-single is slightly faster than ParvaGPU.
//
// A second table carries ParvaGPU's control plane past the figure, to S5
// x100/x200/x400: the cold schedule() and one live single-service update
// (Reconfigurer + to_deployment + LiveUpdater::apply, in place).
#include <algorithm>
#include <chrono>
#include <iostream>

#include "bench/bench_util.hpp"
#include "common/strings.hpp"
#include "core/deployer.hpp"
#include "core/live_update.hpp"
#include "core/parvagpu.hpp"
#include "core/reconfigure.hpp"
#include "gpu/nvml_sim.hpp"
#include "scenarios/experiment.hpp"

namespace {

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

double median_delay(const parva::scenarios::ExperimentContext& context,
                    parva::scenarios::Framework framework,
                    const parva::scenarios::Scenario& scenario, int repetitions) {
  std::vector<double> delays;
  for (int i = 0; i < repetitions; ++i) {
    const auto r = parva::scenarios::run_experiment(context, framework, scenario);
    if (!r.feasible) return -1.0;
    delays.push_back(r.scheduling_delay_ms);
  }
  return median(std::move(delays));
}

/// One row per fold: median scheduling delay of a cold schedule() (the
/// scheduler's own configure + allocate timing) and median single-service
/// update, each update a 1.5x rate change of a different service applied
/// live on top of the previous one. False (with a message) on any failure.
bool control_plane_scale(const parva::scenarios::ExperimentContext& context) {
  using namespace parva;
  using Clock = std::chrono::steady_clock;
  constexpr int kSchedules = 5;
  constexpr int kUpdates = 21;

  TextTable table({"fold", "services", "gpus", "schedule_ms", "update_ms", "schedule_growth",
                   "update_growth"});
  double last_schedule = 0.0;
  double last_update = 0.0;
  // Ratio to the previous (half-size) fold: ~2 is linear, ~4 quadratic.
  const auto growth = [](double now, double before) {
    return before > 0.0 ? format_double(now / before, 2) : std::string("-");
  };
  for (const int fold : {100, 200, 400}) {
    const auto fail = [fold](const std::string& what) {
      std::cerr << "control-plane scale failed at fold " << fold << ": " << what << "\n";
      return false;
    };
    const scenarios::Scenario scaled = scenarios::scale_scenario(scenarios::scenario("S5"), fold);
    core::ParvaGpuOptions options;
    options.pool = &context.pool();
    core::ParvaGpuScheduler scheduler(context.profiles(), options);
    std::vector<double> schedule_ms;
    core::Deployment current;
    for (int i = 0; i < kSchedules; ++i) {
      auto scheduled = scheduler.schedule(scaled.services);
      if (!scheduled.ok()) return fail(scheduled.error().to_string());
      schedule_ms.push_back(scheduled.value().scheduling_delay_ms);
      current = std::move(scheduled.value().deployment);
    }
    const int gpus = current.gpu_count;
    core::DeploymentPlan plan = scheduler.last_plan();
    std::vector<core::ConfiguredService> configured = scheduler.last_configured();
    std::vector<core::ServiceSpec> specs = scaled.services;

    gpu::GpuCluster cluster(static_cast<std::size_t>(gpus), /*elastic=*/true);
    gpu::NvmlSim nvml(cluster);
    core::Deployer deployer(nvml, context.perf());
    auto deployed = deployer.deploy(current);
    if (!deployed.ok()) return fail(deployed.error().to_string());
    core::DeployedState state = std::move(deployed).value();
    const core::Reconfigurer reconfigurer{core::SegmentConfigurator(), core::SegmentAllocator()};
    core::LiveUpdater updater(deployer);

    std::vector<double> update_ms;
    for (int u = 0; u < kUpdates; ++u) {
      core::ServiceSpec& spec = specs[static_cast<std::size_t>(u) * specs.size() / kUpdates];
      spec.request_rate *= 1.5;
      const auto start = Clock::now();
      const auto stats = reconfigurer.update_service(plan, configured, spec, context.surfaces());
      if (!stats.ok()) return fail(stats.error().to_string());
      core::Deployment target = core::ParvaGpuScheduler::to_deployment(plan, "ParvaGPU");
      for (auto& unit : target.units) {
        unit.model = specs[static_cast<std::size_t>(unit.service_id)].model;
      }
      const auto applied = updater.apply(current, state, target, core::UpdateStrategy::kInPlace);
      if (!applied.ok()) return fail(applied.error().to_string());
      update_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - start).count());
      current = std::move(target);
      nvml.clear_operation_log();
    }
    const double schedule = median(schedule_ms);
    const double update = median(update_ms);
    std::string label = "x";
    label += std::to_string(fold);
    table.add_row({std::move(label), std::to_string(specs.size()),
                   std::to_string(gpus), format_double(schedule, 3),
                   format_double(update, 3), growth(schedule, last_schedule),
                   growth(update, last_update)});
    last_schedule = schedule;
    last_update = update;
  }
  bench::emit(table, "fig11_control_plane_scale");
  std::cout << "Growth is per doubling of the fleet: ~2 is a linear control plane, ~4 a\n"
               "quadratic one.\n\n";
  return true;
}

}  // namespace

int main() {
  using namespace parva;
  using namespace parva::scenarios;

  bench::banner("Figure 11", "Scheduling delay (ms) with S5 services scaled 1x..10x");

  const ExperimentContext context = ExperimentContext::create();
  const std::vector<Framework> frameworks = {Framework::kGpulet, Framework::kMigServing,
                                             Framework::kParvaGpu,
                                             Framework::kParvaGpuSingle};

  std::vector<std::string> header = {"delay_ms"};
  for (int fold = 1; fold <= 10; ++fold) {
    std::string label = "x";
    label += std::to_string(fold);
    header.push_back(std::move(label));
  }
  TextTable table(header);

  for (Framework framework : frameworks) {
    std::vector<std::string> row = {framework_name(framework)};
    // Fewer repetitions for the heavyweight baseline at large folds.
    const int repetitions = framework == Framework::kMigServing ? 3 : 9;
    for (int fold = 1; fold <= 10; ++fold) {
      const Scenario scaled = scale_scenario(scenario("S5"), fold);
      const double delay = median_delay(context, framework, scaled, repetitions);
      row.push_back(delay < 0.0 ? "fail" : format_double(delay, 3));
    }
    table.add_row(std::move(row));
  }
  bench::emit(table, "fig11_scalability_delay");
  if (!control_plane_scale(context)) return 1;

  std::cout << "Paper: ParvaGPU reduces delay by 15.8% vs gpulet and 99.9% vs MIG-serving;\n"
               "       ParvaGPU-single slightly faster (no process-count exploration).\n";
  return 0;
}
