#include "scenarios/scenarios.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace parva::scenarios {
namespace {

TEST(ScenariosTest, SixScenariosInOrder) {
  const auto& all = all_scenarios();
  ASSERT_EQ(all.size(), 6u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::string expected = "S";  // avoids a GCC 12 -Wrestrict false positive
    expected += std::to_string(i + 1);
    EXPECT_EQ(all[i].name, expected);
  }
}

TEST(ScenariosTest, S1HasSixModels) {
  EXPECT_EQ(scenario("S1").services.size(), 6u);
}

TEST(ScenariosTest, S2ThroughS6HaveElevenModels) {
  for (const char* name : {"S2", "S3", "S4", "S5", "S6"}) {
    EXPECT_EQ(scenario(name).services.size(), 11u) << name;
  }
}

TEST(ScenariosTest, TableIvSpotChecks) {
  const auto& s2 = scenario("S2");
  const auto& s5 = scenario("S5");
  auto find = [](const Scenario& sc, const std::string& model) -> const core::ServiceSpec& {
    for (const auto& spec : sc.services) {
      if (spec.model == model) return spec;
    }
    throw std::logic_error("not in scenario");
  };
  EXPECT_DOUBLE_EQ(find(s2, "bert-large").request_rate, 19);
  EXPECT_DOUBLE_EQ(find(s2, "bert-large").slo_latency_ms, 6434);
  EXPECT_DOUBLE_EQ(find(s2, "resnet-50").request_rate, 829);
  EXPECT_DOUBLE_EQ(find(s5, "mobilenetv2").request_rate, 5009);
  EXPECT_DOUBLE_EQ(find(s5, "mobilenetv2").slo_latency_ms, 59);
}

TEST(ScenariosTest, IdsAreUniqueWithinScenario) {
  for (const auto& sc : all_scenarios()) {
    std::set<int> ids;
    for (const auto& spec : sc.services) {
      EXPECT_TRUE(ids.insert(spec.id).second) << sc.name;
    }
  }
}

TEST(ScenariosTest, RatesGrowFromS3ToS4) {
  // S4 keeps S3's SLOs but raises every rate (Table IV design).
  const auto& s3 = scenario("S3");
  const auto& s4 = scenario("S4");
  ASSERT_EQ(s3.services.size(), s4.services.size());
  for (std::size_t i = 0; i < s3.services.size(); ++i) {
    EXPECT_EQ(s3.services[i].model, s4.services[i].model);
    EXPECT_DOUBLE_EQ(s3.services[i].slo_latency_ms, s4.services[i].slo_latency_ms);
    EXPECT_GT(s4.services[i].request_rate, s3.services[i].request_rate);
  }
}

TEST(ScenariosTest, UnknownScenarioThrows) {
  EXPECT_THROW(scenario("S9"), std::logic_error);
}

TEST(ScenariosTest, ScaleScenarioReplicatesWithFreshIds) {
  const Scenario scaled = scale_scenario(scenario("S5"), 3);
  EXPECT_EQ(scaled.name, "S5x3");
  ASSERT_EQ(scaled.services.size(), 33u);
  std::set<int> ids;
  for (const auto& spec : scaled.services) {
    EXPECT_TRUE(ids.insert(spec.id).second);
  }
  // Replicas preserve rates and SLOs.
  EXPECT_DOUBLE_EQ(scaled.services[0].request_rate, scaled.services[11].request_rate);
  EXPECT_DOUBLE_EQ(scaled.services[0].slo_latency_ms, scaled.services[22].slo_latency_ms);
}

TEST(ScenariosTest, ScaleFoldOneIsIdentityModuloName) {
  const Scenario scaled = scale_scenario(scenario("S2"), 1);
  EXPECT_EQ(scaled.services.size(), scenario("S2").services.size());
}

TEST(ScenariosTest, ScaleRejectsZeroFold) {
  EXPECT_THROW(scale_scenario(scenario("S1"), 0), std::logic_error);
}

}  // namespace
}  // namespace parva::scenarios
