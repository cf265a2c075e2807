#include "core/live_update.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <numeric>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "core/parvagpu.hpp"
#include "core/reconfigure.hpp"
#include "scenarios/scenarios.hpp"
#include "tests/core/test_support.hpp"

namespace parva::core {
namespace {

using testing::builtin_profiles;
using testing::service;

/// A hand-placed MIG unit (gpc_grant = gpcs).
DeployedUnit mig_unit(int service_id, int gpu_index, int gpcs, int start_slot, int batch) {
  DeployedUnit unit;
  unit.service_id = service_id;
  unit.model = "resnet-50";
  unit.gpu_index = gpu_index;
  unit.gpc_grant = gpcs;
  unit.placement = gpu::Placement{gpcs, start_slot};
  unit.batch = batch;
  return unit;
}

Deployment mig_deployment(int gpu_count, std::vector<DeployedUnit> units) {
  Deployment deployment;
  deployment.uses_mig = true;
  deployment.gpu_count = gpu_count;
  deployment.units = std::move(units);
  return deployment;
}

bool same_unit(const DeployedUnit& a, const DeployedUnit& b) {
  return a.service_id == b.service_id && a.gpu_index == b.gpu_index &&
         a.placement == b.placement && a.batch == b.batch && a.procs == b.procs;
}

/// Reference diff by linear search (units are unique under MIG): indices
/// of `from`'s units that have no identical unit in `to`, ascending.
std::vector<std::size_t> unmatched(const Deployment& from, const Deployment& to) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < from.units.size(); ++i) {
    const bool found = std::any_of(to.units.begin(), to.units.end(), [&](const DeployedUnit& u) {
      return same_unit(from.units[i], u);
    });
    if (!found) out.push_back(i);
  }
  return out;
}

std::vector<std::string> ops_with_prefix(const gpu::NvmlSim& nvml, const std::string& prefix) {
  std::vector<std::string> out;
  for (const std::string& op : nvml.operation_log()) {
    if (op.rfind(prefix, 0) == 0) out.push_back(op);
  }
  return out;
}

class LiveUpdateTest : public ::testing::Test {
 protected:
  LiveUpdateTest() : nvml_(cluster_), deployer_(nvml_, perf_), updater_(deployer_) {}

  Deployment schedule(const std::vector<ServiceSpec>& services) {
    ParvaGpuScheduler scheduler(builtin_profiles());
    return scheduler.schedule(services).value().deployment;
  }

  perfmodel::AnalyticalPerfModel perf_{perfmodel::ModelCatalog::builtin()};
  gpu::GpuCluster cluster_{8};
  gpu::NvmlSim nvml_{cluster_};
  Deployer deployer_;
  LiveUpdater updater_;
};

TEST_F(LiveUpdateTest, InPlaceUpdateIncursDowntime) {
  const auto current = schedule({service(0, "resnet-50", 205, 829),
                                 service(1, "vgg-19", 397, 354)});
  auto state = deployer_.deploy(current).value();
  // Triple resnet's rate.
  const auto target = schedule({service(0, "resnet-50", 205, 2500),
                                service(1, "vgg-19", 397, 354)});
  const auto report = updater_.apply(current, state, target, UpdateStrategy::kInPlace);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_GT(report.value().worst_downtime_ms(), 0.0);
  EXPECT_GT(report.value().added_units, 0);
  // Final cluster matches the target.
  EXPECT_EQ(state.unit_instances.size(), target.units.size());
  EXPECT_EQ(cluster_.total_allocated_gpcs(),
            static_cast<int>(target.total_granted_gpcs()));
}

TEST_F(LiveUpdateTest, ShadowedUpdateEliminatesDowntime) {
  const auto current = schedule({service(0, "resnet-50", 205, 829),
                                 service(1, "vgg-19", 397, 354)});
  auto state = deployer_.deploy(current).value();
  const auto target = schedule({service(0, "resnet-50", 205, 2500),
                                service(1, "vgg-19", 397, 354)});
  const auto report = updater_.apply(current, state, target, UpdateStrategy::kShadowed);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_DOUBLE_EQ(report.value().worst_downtime_ms(), 0.0);
  EXPECT_GT(report.value().shadow_units, 0);
  // Shadows are gone afterwards: allocation equals the target exactly.
  EXPECT_EQ(cluster_.total_allocated_gpcs(),
            static_cast<int>(target.total_granted_gpcs()));
}

TEST_F(LiveUpdateTest, UntouchedServicesKeepInstances) {
  // Build the target through the Reconfigurer (Section III-F), which keeps
  // other services' placements stable — exactly the situation live update
  // exploits. vgg-16 at 5000 req/s owns several fully-allocated GPUs that
  // the Allocation Optimization never dissolves (> threshold GPCs), so its
  // instances must survive the update verbatim.
  const std::vector<ServiceSpec> services = {service(0, "resnet-50", 205, 829),
                                             service(1, "vgg-16", 400, 5000)};
  ParvaGpuScheduler scheduler(builtin_profiles());
  const auto current = scheduler.schedule(services).value().deployment;
  auto plan = scheduler.last_plan();
  auto configured = scheduler.last_configured();
  auto state = deployer_.deploy(current).value();

  // Identify vgg's instance ids before the update.
  std::set<int> vgg_handles_before;
  for (std::size_t i = 0; i < current.units.size(); ++i) {
    if (current.units[i].service_id == 1) {
      vgg_handles_before.insert(state.unit_instances[i].handle);
    }
  }

  Reconfigurer reconfigurer{SegmentConfigurator(), SegmentAllocator()};
  ASSERT_TRUE(reconfigurer
                  .update_service(plan, configured, service(0, "resnet-50", 205, 2500),
                                  builtin_profiles())
                  .ok());
  Deployment target = ParvaGpuScheduler::to_deployment(plan, "ParvaGPU");
  for (auto& unit : target.units) {
    unit.model = unit.service_id == 0 ? "resnet-50" : "vgg-16";
  }

  const auto report = updater_.apply(current, state, target, UpdateStrategy::kInPlace);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_GT(report.value().untouched_units, 0);
  // The bulk of vgg's segments survive with their original instance
  // handles (a minority segment co-resident with the updated service may
  // legitimately move during the optimization pass).
  std::set<int> vgg_handles_after;
  for (std::size_t i = 0; i < target.units.size(); ++i) {
    if (target.units[i].service_id == 1) {
      vgg_handles_after.insert(state.unit_instances[i].handle);
    }
  }
  std::set<int> surviving;
  std::set_intersection(vgg_handles_before.begin(), vgg_handles_before.end(),
                        vgg_handles_after.begin(), vgg_handles_after.end(),
                        std::inserter(surviving, surviving.begin()));
  EXPECT_GE(surviving.size(), vgg_handles_before.size() / 2);
}

TEST_F(LiveUpdateTest, IdenticalTargetIsNoop) {
  const auto current = schedule({service(0, "resnet-50", 205, 829)});
  auto state = deployer_.deploy(current).value();
  const auto report = updater_.apply(current, state, current, UpdateStrategy::kInPlace);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().removed_units, 0);
  EXPECT_EQ(report.value().added_units, 0);
  EXPECT_DOUBLE_EQ(report.value().worst_downtime_ms(), 0.0);
  EXPECT_DOUBLE_EQ(report.value().makespan_ms, 0.0);
}

TEST_F(LiveUpdateTest, BrandNewServiceCannotBeShadowed) {
  const auto current = schedule({service(0, "resnet-50", 205, 829)});
  auto state = deployer_.deploy(current).value();
  const auto target = schedule({service(0, "resnet-50", 205, 829),
                                service(1, "densenet-121", 183, 353)});
  const auto report = updater_.apply(current, state, target, UpdateStrategy::kShadowed);
  ASSERT_TRUE(report.ok());
  // The new service has no running segment to clone; it simply comes up
  // (its "downtime" is its startup window).
  EXPECT_GT(report.value().downtime_ms.at(1), 0.0);
}

TEST_F(LiveUpdateTest, MismatchedStateRejected) {
  const auto current = schedule({service(0, "resnet-50", 205, 829)});
  DeployedState bogus;  // wrong arity
  const auto report = updater_.apply(current, bogus, current, UpdateStrategy::kInPlace);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code(), ErrorCode::kInvalidArgument);
}

TEST_F(LiveUpdateTest, ShuffledTargetKeepsEveryUnit) {
  const auto current = schedule({service(0, "resnet-50", 205, 829),
                                 service(1, "vgg-19", 397, 354),
                                 service(2, "densenet-121", 183, 353)});
  auto state = deployer_.deploy(current).value();
  const DeployedState before = state;

  std::vector<std::size_t> order(current.units.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(7);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_int(0, i - 1)]);
  }
  Deployment target = current;
  for (std::size_t t = 0; t < order.size(); ++t) target.units[t] = current.units[order[t]];

  nvml_.clear_operation_log();
  const auto report = updater_.apply(current, state, target, UpdateStrategy::kInPlace);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(report.value().removed_units, 0);
  EXPECT_EQ(report.value().added_units, 0);
  EXPECT_EQ(report.value().untouched_units, static_cast<int>(current.units.size()));
  EXPECT_TRUE(nvml_.operation_log().empty());
  // The state follows the target's order: slot t holds the instance that
  // already backed the unit now listed there.
  ASSERT_EQ(state.unit_instances.size(), order.size());
  for (std::size_t t = 0; t < order.size(); ++t) {
    EXPECT_EQ(state.unit_instances[t], before.unit_instances[order[t]]) << "slot " << t;
  }
}

TEST_F(LiveUpdateTest, OperationLogFollowsDiffOrder) {
  const auto current = schedule({service(0, "resnet-50", 205, 829),
                                 service(1, "vgg-19", 397, 354),
                                 service(2, "densenet-121", 183, 353)});
  auto state = deployer_.deploy(current).value();
  const DeployedState before = state;
  const auto target = schedule({service(0, "resnet-50", 205, 1600),
                                service(1, "vgg-19", 397, 354),
                                service(2, "densenet-121", 183, 700)});

  nvml_.clear_operation_log();
  const auto report = updater_.apply(current, state, target, UpdateStrategy::kInPlace);
  ASSERT_TRUE(report.ok()) << report.error().to_string();

  // Destroys in ascending current index.
  std::vector<std::string> expected_destroys;
  for (std::size_t i : unmatched(current, target)) {
    expected_destroys.push_back("destroy_gi gpu=" + std::to_string(before.unit_instances[i].gpu) +
                                " handle=" + std::to_string(before.unit_instances[i].handle));
  }
  // Creates in target order.
  std::vector<std::string> expected_creates;
  for (std::size_t t : unmatched(target, current)) {
    const DeployedUnit& unit = target.units[t];
    expected_creates.push_back("create_gi_placed gpu=" + std::to_string(unit.gpu_index) +
                               " gpcs=" + std::to_string(unit.placement->gpcs) + "@" +
                               std::to_string(unit.placement->start_slot));
  }
  ASSERT_FALSE(expected_destroys.empty());
  ASSERT_FALSE(expected_creates.empty());
  EXPECT_EQ(ops_with_prefix(nvml_, "destroy_gi "), expected_destroys);
  EXPECT_EQ(ops_with_prefix(nvml_, "create_gi_placed "), expected_creates);
  EXPECT_EQ(report.value().removed_units, static_cast<int>(expected_destroys.size()));
  EXPECT_EQ(report.value().added_units, static_cast<int>(expected_creates.size()));
}

TEST_F(LiveUpdateTest, ShadowTemplatesPickSmallestFirstUnit) {
  // Service 0 has two smallest units (grant 1, batch 4 then batch 2): the
  // first wins the tie. Service 1's smallest unit is its 3-GPC one.
  // Service 2 is untouched; service 3 is new and has nothing to shadow.
  const Deployment current = mig_deployment(
      2, {mig_unit(0, 0, 2, 0, 8), mig_unit(1, 1, 4, 0, 8), mig_unit(0, 0, 1, 2, 4),
          mig_unit(2, 0, 2, 4, 8), mig_unit(0, 0, 1, 3, 2), mig_unit(1, 1, 3, 4, 16)});
  const Deployment target = mig_deployment(
      2, {mig_unit(0, 0, 2, 0, 8), mig_unit(1, 1, 1, 0, 8), mig_unit(0, 0, 2, 2, 8),
          mig_unit(2, 0, 2, 4, 8), mig_unit(3, 0, 1, 6, 1), mig_unit(1, 1, 3, 4, 16)});
  auto state = deployer_.deploy(current).value();

  // Reference: rescan every current unit per affected service.
  std::set<int> affected;
  for (std::size_t i : unmatched(current, target)) affected.insert(current.units[i].service_id);
  for (std::size_t t : unmatched(target, current)) affected.insert(target.units[t].service_id);
  ASSERT_EQ(affected, (std::set<int>{0, 1, 3}));
  std::map<int, const DeployedUnit*> templates;
  for (int service_id : affected) {
    const DeployedUnit* tmpl = nullptr;
    for (const DeployedUnit& unit : current.units) {
      if (unit.service_id != service_id) continue;
      if (tmpl == nullptr || unit.gpc_grant < tmpl->gpc_grant) tmpl = &unit;
    }
    if (tmpl != nullptr) templates[service_id] = tmpl;
  }
  ASSERT_EQ(templates.size(), 2u);
  EXPECT_EQ(templates.at(0), &current.units[2]);
  EXPECT_EQ(templates.at(1), &current.units[5]);

  nvml_.clear_operation_log();
  const auto report = updater_.apply(current, state, target, UpdateStrategy::kShadowed);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(report.value().shadow_units, static_cast<int>(templates.size()));
  EXPECT_EQ(report.value().shadow_teardown_failures, 0);
  // Shadows land on the spare GPUs in ascending service order, each a
  // clone of its template at the profile's first legal slot.
  int spare = 2;
  for (const auto& [service_id, tmpl] : templates) {
    const std::string gpu = "gpu=" + std::to_string(spare++);
    const int gpcs = tmpl->placement->gpcs;
    EXPECT_EQ(ops_with_prefix(nvml_, "create_gi_placed " + gpu + " "),
              std::vector<std::string>{"create_gi_placed " + gpu + " gpcs=" +
                                       std::to_string(gpcs) + "@" +
                                       std::to_string(gpu::legal_start_slots(gpcs).front())})
        << "service " << service_id;
    const auto launches = ops_with_prefix(nvml_, "launch " + gpu + " ");
    ASSERT_EQ(launches.size(), 1u) << "service " << service_id;
    const std::string batch = " batch=" + std::to_string(tmpl->batch);
    EXPECT_EQ(launches.front().substr(launches.front().size() - batch.size()), batch)
        << "service " << service_id;
  }
  EXPECT_TRUE(ops_with_prefix(nvml_, "create_gi_placed gpu=" + std::to_string(spare)).empty());
  EXPECT_DOUBLE_EQ(report.value().downtime_ms.at(0), 0.0);
  EXPECT_DOUBLE_EQ(report.value().downtime_ms.at(1), 0.0);
  EXPECT_GT(report.value().downtime_ms.at(3), 0.0);
}

TEST_F(LiveUpdateTest, ShadowsAfterAGpuDropLandOnNoLiveDevice) {
  // Seeded updates, applied in place, until the plan has dropped a GPU
  // mid-plan (its device span exceeds the GPUs in use) and counting the
  // GPUs in use would name a live device as the first spare. That update
  // is applied shadowed: every shadow must land past both spans.
  const scenarios::Scenario fleet = scenarios::scale_scenario(scenarios::scenario("S5"), 10);
  ParvaGpuScheduler scheduler(builtin_profiles());
  Deployment current = scheduler.schedule(fleet.services).value().deployment;
  DeploymentPlan plan = scheduler.last_plan();
  std::vector<ConfiguredService> configured = scheduler.last_configured();
  std::vector<ServiceSpec> specs = fleet.services;
  auto state = deployer_.deploy(current).value();
  const Reconfigurer reconfigurer{SegmentConfigurator(), SegmentAllocator()};

  Rng rng(11);
  bool shadowed = false;
  for (int step = 0; step < 200 && !shadowed; ++step) {
    ServiceSpec spec = fleet.services[rng.uniform_int(0, fleet.services.size() - 1)];
    spec.request_rate *= rng.uniform(0.6, 1.4);
    specs[static_cast<std::size_t>(spec.id)] = spec;
    ASSERT_TRUE(reconfigurer.update_service(plan, configured, spec, builtin_profiles()).ok());
    Deployment target = ParvaGpuScheduler::to_deployment(plan, "ParvaGPU");
    for (DeployedUnit& unit : target.units) {
      unit.model = specs[static_cast<std::size_t>(unit.service_id)].model;
    }
    std::set<int> live;
    for (const DeployedUnit& unit : current.units) live.insert(unit.gpu_index);
    for (const DeployedUnit& unit : target.units) live.insert(unit.gpu_index);
    const bool gap = current.gpus_in_use() < current.gpu_count;
    shadowed = gap && live.count(std::max(current.gpus_in_use(), target.gpus_in_use())) != 0;

    nvml_.clear_operation_log();
    const auto report = updater_.apply(
        current, state, target, shadowed ? UpdateStrategy::kShadowed : UpdateStrategy::kInPlace);
    ASSERT_TRUE(report.ok()) << "step " << step << ": " << report.error().to_string();
    if (shadowed) {
      ASSERT_GT(report.value().shadow_units, 0);
      EXPECT_EQ(report.value().worst_downtime_ms(), 0.0);
      // Phase 0 creates the shadows before anything else happens.
      const auto creates = ops_with_prefix(nvml_, "create_gi_placed gpu=");
      ASSERT_GE(creates.size(), static_cast<std::size_t>(report.value().shadow_units));
      for (int i = 0; i < report.value().shadow_units; ++i) {
        const std::string& op = creates[static_cast<std::size_t>(i)];
        const int device = std::stoi(op.substr(std::string("create_gi_placed gpu=").size()));
        EXPECT_EQ(live.count(device), 0u) << op;
        EXPECT_GE(device, std::max(current.gpu_count, target.gpu_count)) << op;
      }
    }
    EXPECT_EQ(cluster_.total_allocated_gpcs(),
              static_cast<int>(std::lround(target.total_granted_gpcs())));
    current = std::move(target);
  }
  EXPECT_TRUE(shadowed) << "no update followed a mid-plan GPU drop";
}

}  // namespace
}  // namespace parva::core
