#include "baselines/gslice.hpp"

#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "scenarios/scenarios.hpp"

namespace parva::baselines {
namespace {

class GsliceTest : public ::testing::Test {
 protected:
  perfmodel::AnalyticalPerfModel perf_{perfmodel::ModelCatalog::builtin()};
  GsliceScheduler scheduler_{perf_};

  /// A workload mix that comfortably fits one GPU.
  std::vector<core::ServiceSpec> single_gpu_mix() {
    return {
        {0, "resnet-50", 205, 300, {}},
        {1, "mobilenetv2", 167, 250, {}},
        {2, "densenet-121", 183, 120, {}},
    };
  }
};

TEST_F(GsliceTest, SingleGpuMixFeasible) {
  const auto result = scheduler_.schedule(single_gpu_mix());
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().deployment.gpu_count, 1);
  EXPECT_EQ(result.value().deployment.units.size(), 3u);
}

TEST_F(GsliceTest, EveryServiceCovered) {
  const auto services = single_gpu_mix();
  const auto result = scheduler_.schedule(services).value();
  for (const auto& spec : services) {
    EXPECT_GE(result.deployment.service_capacity(spec.id), spec.request_rate) << spec.model;
  }
}

TEST_F(GsliceTest, SelfTuningPreventsInternalSlack) {
  // GSLICE's shrink phase must leave the deployment tighter than a naive
  // even split: internal slack clearly below the even-split's.
  const auto services = single_gpu_mix();
  const auto result = scheduler_.schedule(services).value();
  const auto metrics = core::compute_metrics(result.deployment, services);
  EXPECT_LT(metrics.internal_slack, 0.60);
  // Partitions sum to at most the GPU.
  double granted = 0.0;
  for (const auto& unit : result.deployment.units) granted += unit.gpc_grant;
  EXPECT_LE(granted, 7.0 + 1e-9);
}

TEST_F(GsliceTest, MeasurementBasedSoPlannedEqualsActual) {
  const auto result = scheduler_.schedule(single_gpu_mix()).value();
  for (const auto& unit : result.deployment.units) {
    EXPECT_DOUBLE_EQ(unit.planned_throughput, unit.actual_throughput);
    EXPECT_DOUBLE_EQ(unit.planned_latency_ms, unit.actual_latency_ms);
  }
}

TEST_F(GsliceTest, HighRequestRatesInfeasible) {
  // Table I: GSLICE has no multi-GPU story. S2's full demand exceeds one
  // GPU and must be rejected.
  const auto result = scheduler_.schedule(scenarios::scenario("S2").services);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kCapacityExceeded);
}

TEST_F(GsliceTest, TooManyWorkloadsInfeasible) {
  std::vector<core::ServiceSpec> crowd;
  for (int i = 0; i < 60; ++i) crowd.push_back({i, "mobilenetv2", 167, 1, {}});
  const auto result = scheduler_.schedule(crowd);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kCapacityExceeded);
}

TEST_F(GsliceTest, EmptySetIsTrivial) {
  const auto result = scheduler_.schedule({});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().deployment.units.empty());
}

TEST_F(GsliceTest, UnknownModelRejected) {
  const std::vector<core::ServiceSpec> bad = {{0, "mystery", 100, 10, {}}};
  const auto result = scheduler_.schedule(bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kNotFound);
}

}  // namespace
}  // namespace parva::baselines
