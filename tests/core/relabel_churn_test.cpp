// Differential test of relabel-only churn. GPU ids stay stable across a
// seeded sequence of single-service updates on a scaled scenario, and that
// changes nothing but the labels. At every step:
//   (a) the plan equals a reference that renumbers its GPUs densely after
//       every update (the numbering compaction used to impose), position by
//       position: same segments on the same GPUs, same GPUs in use; the
//       plan's ids are unique;
//   (b) LiveUpdater::apply rebuilds exactly the plan-level diff keyed on
//       (GPU id, start slot), so no unit of a GPU whose segments did not
//       change is torn down or re-created.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/live_update.hpp"
#include "core/parvagpu.hpp"
#include "core/reconfigure.hpp"
#include "scenarios/scenarios.hpp"
#include "tests/core/test_support.hpp"

namespace parva::core {
namespace {

using testing::builtin_profiles;

using SlotKey = std::pair<int, int>;                  ///< (GPU id, start slot)
using Segment = std::tuple<int, int, int, int, int>;  ///< service, gpcs, slot, batch, procs
using SlotMap = std::map<SlotKey, Segment>;

Segment segment_of(const PlacedSegment& placed) {
  return {placed.service_id, placed.triplet.gpcs, placed.placement.start_slot,
          placed.triplet.batch, placed.triplet.procs};
}

std::vector<Segment> layout(const GpuPlan& gpu) {
  std::vector<Segment> out;
  for (const PlacedSegment& placed : gpu.segments()) out.push_back(segment_of(placed));
  return out;
}

SlotMap slots_of(const DeploymentPlan& plan) {
  SlotMap out;
  for (const GpuPlan& gpu : plan.gpus()) {
    for (const PlacedSegment& placed : gpu.segments()) {
      out.emplace(SlotKey{gpu.id(), placed.placement.start_slot}, segment_of(placed));
    }
  }
  return out;
}

/// Slots of `from` that `to` does not hold identically.
std::set<SlotKey> changed(const SlotMap& from, const SlotMap& to) {
  std::set<SlotKey> out;
  for (const auto& [key, segment] : from) {
    const auto it = to.find(key);
    if (it == to.end() || it->second != segment) out.insert(key);
  }
  return out;
}

/// Each GPU id's segments, sorted (so equal contents compare equal).
std::map<int, std::vector<Segment>> by_gpu(const SlotMap& slots) {
  std::map<int, std::vector<Segment>> out;
  for (const auto& [key, segment] : slots) out[key.first].push_back(segment);
  return out;
}

TEST(RelabelChurnTest, StableIdsOnlyRelabelAndRebuildOnlyWhatMoved) {
  constexpr int kUpdates = 80;
  const scenarios::Scenario fleet = scenarios::scale_scenario(scenarios::scenario("S5"), 10);
  ParvaGpuScheduler scheduler(builtin_profiles());
  auto scheduled = scheduler.schedule(fleet.services);
  ASSERT_TRUE(scheduled.ok());
  Deployment current = std::move(scheduled).value().deployment;
  DeploymentPlan plan = scheduler.last_plan();
  std::vector<ConfiguredService> configured = scheduler.last_configured();
  DeploymentPlan reference = plan;
  std::vector<ConfiguredService> reference_configured = configured;
  std::vector<ServiceSpec> specs = fleet.services;

  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  gpu::GpuCluster cluster(static_cast<std::size_t>(current.gpu_count));
  gpu::NvmlSim nvml(cluster);
  Deployer deployer(nvml, perf);
  auto deployed = deployer.deploy(current);
  ASSERT_TRUE(deployed.ok()) << deployed.error().to_string();
  DeployedState state = std::move(deployed).value();
  LiveUpdater updater(deployer);
  const Reconfigurer reconfigurer{SegmentConfigurator(), SegmentAllocator()};

  Rng rng(20240917);
  int drops = 0;       // updates that dropped a GPU
  int relabelled = 0;  // updates after which some id differs from its position
  for (int step = 0; step < kUpdates; ++step) {
    ServiceSpec spec = fleet.services[rng.uniform_int(0, fleet.services.size() - 1)];
    spec.request_rate *= rng.uniform(0.6, 1.4);
    spec.slo_latency_ms *= rng.uniform(1.0, 1.3);
    specs[static_cast<std::size_t>(spec.id)] = spec;

    const SlotMap before = slots_of(plan);
    ASSERT_TRUE(reconfigurer.update_service(plan, configured, spec, builtin_profiles()).ok());
    ASSERT_TRUE(
        reconfigurer.update_service(reference, reference_configured, spec, builtin_profiles())
            .ok());
    reference.renumber();

    // (a) Same plan up to labels; unique ids.
    ASSERT_EQ(plan.gpu_count(), reference.gpu_count()) << "step " << step;
    EXPECT_EQ(plan.gpus_in_use(), reference.gpus_in_use()) << "step " << step;
    std::set<int> ids;
    bool dense = true;
    for (std::size_t i = 0; i < plan.gpu_count(); ++i) {
      ASSERT_EQ(layout(plan.gpu(i)), layout(reference.gpu(i)))
          << "step " << step << " position " << i;
      ASSERT_TRUE(ids.insert(plan.gpu(i).id()).second)
          << "step " << step << " duplicate id " << plan.gpu(i).id();
      dense = dense && plan.gpu(i).id() == static_cast<int>(i);
    }
    const SlotMap after = slots_of(plan);
    const auto gpus_before = by_gpu(before);
    const auto gpus_after = by_gpu(after);
    for (const auto& [id, segments] : gpus_before) {
      if (gpus_after.count(id) == 0) {
        ++drops;
        break;
      }
    }
    if (!dense) ++relabelled;

    // (b) The live update rebuilds exactly the plan-level diff.
    Deployment target = ParvaGpuScheduler::to_deployment(plan, "ParvaGPU");
    for (DeployedUnit& unit : target.units) {
      unit.model = specs[static_cast<std::size_t>(unit.service_id)].model;
    }
    const DeployedState old_state = state;
    const auto report = updater.apply(current, state, target, UpdateStrategy::kInPlace);
    ASSERT_TRUE(report.ok()) << "step " << step << ": " << report.error().to_string();
    const std::set<gpu::GlobalInstanceId> old_instances(old_state.unit_instances.begin(),
                                                        old_state.unit_instances.end());
    const std::set<gpu::GlobalInstanceId> new_instances(state.unit_instances.begin(),
                                                        state.unit_instances.end());
    std::set<SlotKey> torn_down;
    for (std::size_t i = 0; i < current.units.size(); ++i) {
      if (new_instances.count(old_state.unit_instances[i]) == 0) {
        torn_down.insert({current.units[i].gpu_index, current.units[i].placement->start_slot});
      }
    }
    std::set<SlotKey> created;
    for (std::size_t t = 0; t < target.units.size(); ++t) {
      if (old_instances.count(state.unit_instances[t]) == 0) {
        created.insert({target.units[t].gpu_index, target.units[t].placement->start_slot});
      }
    }
    EXPECT_EQ(torn_down, changed(before, after)) << "step " << step;
    EXPECT_EQ(created, changed(after, before)) << "step " << step;
    EXPECT_EQ(report.value().removed_units, static_cast<int>(torn_down.size()));
    EXPECT_EQ(report.value().added_units, static_cast<int>(created.size()));
    for (const auto& key : torn_down) {
      const auto it = gpus_after.find(key.first);
      EXPECT_TRUE(it == gpus_after.end() || it->second != gpus_before.at(key.first))
          << "step " << step << ": unchanged GPU " << key.first << " lost a unit";
    }
    for (const auto& key : created) {
      const auto it = gpus_before.find(key.first);
      EXPECT_TRUE(it == gpus_before.end() || it->second != gpus_after.at(key.first))
          << "step " << step << ": unchanged GPU " << key.first << " gained a unit";
    }
    EXPECT_EQ(cluster.total_allocated_gpcs(),
              static_cast<int>(std::lround(target.total_granted_gpcs())));
    current = std::move(target);
  }
  // The sequence must exercise what it tests: GPUs dropped mid-plan, after
  // which the old numbering would have relabelled every later GPU.
  EXPECT_GT(drops, 0);
  EXPECT_GT(relabelled, 0);
}

}  // namespace
}  // namespace parva::core
