#include "baselines/gpulet.hpp"

#include <gtest/gtest.h>

#include <map>

#include "scenarios/scenarios.hpp"

namespace parva::baselines {
namespace {

class GpuletTest : public ::testing::Test {
 protected:
  perfmodel::AnalyticalPerfModel perf_{perfmodel::ModelCatalog::builtin()};
  GpuletScheduler scheduler_{perf_};
};

TEST_F(GpuletTest, AtMostTwoPartitionsPerGpu) {
  const auto result = scheduler_.schedule(scenarios::scenario("S2").services).value();
  std::map<int, int> partitions_per_gpu;
  for (const auto& unit : result.deployment.units) {
    ++partitions_per_gpu[unit.gpu_index];
  }
  for (const auto& [gpu, count] : partitions_per_gpu) {
    EXPECT_LE(count, 2) << "GPU " << gpu;
  }
}

TEST_F(GpuletTest, PairedGpusAreFullyGranted) {
  // gpulet grants the second partition all remaining resources, and a lone
  // partition the whole GPU: granted compute per GPU is always 7 GPCs.
  const auto result = scheduler_.schedule(scenarios::scenario("S2").services).value();
  std::map<int, double> granted;
  for (const auto& unit : result.deployment.units) {
    granted[unit.gpu_index] += unit.gpc_grant;
  }
  for (const auto& [gpu, gpcs] : granted) {
    EXPECT_NEAR(gpcs, 7.0, 1e-9) << "GPU " << gpu;
  }
}

TEST_F(GpuletTest, CapacityCoversEveryService) {
  const auto& services = scenarios::scenario("S3").services;
  const auto result = scheduler_.schedule(services).value();
  for (const auto& spec : services) {
    // gpulet's optimistic predictor may under-provision slightly (the
    // paper's violation episode); allow a small relative shortfall.
    EXPECT_GE(result.deployment.service_capacity(spec.id), 0.93 * spec.request_rate)
        << spec.model;
  }
}

TEST_F(GpuletTest, HighRatesSplitIntoManyChunks) {
  const auto s2 = scheduler_.schedule(scenarios::scenario("S2").services).value();
  const auto s5 = scheduler_.schedule(scenarios::scenario("S5").services).value();
  EXPECT_GT(s5.deployment.gpu_count, 3 * s2.deployment.gpu_count)
      << "gpulet's GPU usage must escalate at high request rates (paper Fig. 5)";
}

TEST_F(GpuletTest, HeterogeneousPairsCarryInterference) {
  const auto result = scheduler_.schedule(scenarios::scenario("S2").services).value();
  std::map<int, std::vector<const core::DeployedUnit*>> by_gpu;
  for (const auto& unit : result.deployment.units) {
    by_gpu[unit.gpu_index].push_back(&unit);
  }
  bool saw_pair = false;
  for (const auto& [gpu, units] : by_gpu) {
    if (units.size() != 2) continue;
    saw_pair = true;
    for (const auto* unit : units) {
      // Ground truth must be strictly worse than the interference-free
      // evaluation at the SAME grant and batch (the planned numbers use a
      // different grant for second partitions, so compare like-for-like).
      const auto& traits = perfmodel::ModelCatalog::builtin().at(unit->model);
      const auto clean =
          perf_.evaluate_mps_share(traits, unit->gpc_grant / 7.0, unit->batch, 1, 0.0);
      ASSERT_TRUE(clean.ok());
      EXPECT_GT(unit->actual_latency_ms, clean.value().latency_ms) << unit->model;
      EXPECT_LT(unit->actual_throughput, clean.value().throughput) << unit->model;
    }
  }
  EXPECT_TRUE(saw_pair) << "S2 should produce at least one paired GPU";
}

TEST_F(GpuletTest, MpsUnitsNotMigBacked) {
  const auto result = scheduler_.schedule(scenarios::scenario("S1").services).value();
  EXPECT_FALSE(result.deployment.uses_mig);
  for (const auto& unit : result.deployment.units) {
    EXPECT_FALSE(unit.placement.has_value());
    EXPECT_EQ(unit.procs, 1);
  }
}

TEST_F(GpuletTest, ImpossibleSloRejected) {
  const std::vector<core::ServiceSpec> impossible = {{0, "vgg-19", 0.5, 100, {}}};
  const auto result = scheduler_.schedule(impossible);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kCapacityExceeded);
}

TEST_F(GpuletTest, UnknownModelRejected) {
  const std::vector<core::ServiceSpec> bad = {{0, "mystery", 100, 100, {}}};
  const auto result = scheduler_.schedule(bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kNotFound);
}

}  // namespace
}  // namespace parva::baselines
