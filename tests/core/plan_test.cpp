#include "core/plan.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "tests/core/test_support.hpp"

namespace parva::core {
namespace {

using testing::triplet;

TEST(GpuPlanTest, PlaceUsesPreferredSlots) {
  GpuPlan gpu(0);
  ASSERT_TRUE(gpu.try_place(0, triplet(3, 100)));
  EXPECT_EQ(gpu.segments().front().placement.start_slot, 4);  // 3g -> slot 4
  ASSERT_TRUE(gpu.try_place(1, triplet(2, 100)));
  EXPECT_EQ(gpu.segments().back().placement.start_slot, 0);
}

TEST(GpuPlanTest, DeclinesSecondThreeGpcSegment) {
  GpuPlan gpu(0);
  ASSERT_TRUE(gpu.try_place(0, triplet(3, 100)));
  // Slot 4 taken; 3@0 is declined by policy (Section III-E1).
  EXPECT_FALSE(gpu.try_place(1, triplet(3, 100)));
}

TEST(GpuPlanTest, ExplicitPlacement) {
  GpuPlan gpu(0);
  ASSERT_TRUE(gpu.try_place_at(0, triplet(3, 100), 0));  // legal on hardware
  EXPECT_EQ(gpu.allocated_gpcs(), 3);
  EXPECT_EQ(gpu.occupied_slots(), 4);  // 3@0 blocks four slots
  EXPECT_FALSE(gpu.try_place_at(1, triplet(2, 100), 2));  // overlap
  EXPECT_FALSE(gpu.try_place_at(1, triplet(2, 100), 1));  // illegal start
}

TEST(GpuPlanTest, RemoveSegmentFreesSlots) {
  GpuPlan gpu(0);
  ASSERT_TRUE(gpu.try_place(0, triplet(4, 100)));
  ASSERT_TRUE(gpu.try_place(1, triplet(3, 100)));
  EXPECT_FALSE(gpu.can_fit(1));
  const PlacedSegment removed = gpu.remove_segment(0);
  EXPECT_EQ(removed.triplet.gpcs, 4);
  EXPECT_TRUE(gpu.can_fit(4));
  EXPECT_EQ(gpu.allocated_gpcs(), 3);
}

TEST(GpuPlanTest, RemoveOutOfRangeThrows) {
  GpuPlan gpu(0);
  EXPECT_THROW(gpu.remove_segment(0), std::logic_error);
}

TEST(DeploymentPlanTest, FirstFitAppendsWhenFull) {
  DeploymentPlan plan;
  EXPECT_EQ(plan.place_first_fit(0, triplet(7, 100)), 0u);
  EXPECT_EQ(plan.place_first_fit(1, triplet(7, 100)), 1u);
  EXPECT_EQ(plan.place_first_fit(2, triplet(1, 100)), 2u);
  EXPECT_EQ(plan.gpu_count(), 3u);
}

TEST(DeploymentPlanTest, FirstFitFillsEarlierGaps) {
  DeploymentPlan plan;
  plan.place_first_fit(0, triplet(4, 100));  // GPU0 slots 0-3
  plan.place_first_fit(1, triplet(7, 100));  // GPU1 (doesn't fit GPU0)
  plan.place_first_fit(2, triplet(3, 100));  // back into GPU0 slot 4
  EXPECT_EQ(plan.gpu_count(), 2u);
  EXPECT_EQ(plan.gpu(0).allocated_gpcs(), 7);
}

/// GPU ids in plan order.
std::vector<int> ids_of(const DeploymentPlan& plan) {
  std::vector<int> ids;
  for (const GpuPlan& gpu : plan.gpus()) ids.push_back(gpu.id());
  return ids;
}

TEST(DeploymentPlanTest, CompactDropsEmptyAndKeepsIds) {
  DeploymentPlan plan;
  for (int s = 0; s < 4; ++s) plan.place_first_fit(s, triplet(7, 100));
  plan.gpu(2).remove_segment(0);
  plan.gpu(1).remove_segment(0);
  plan.compact();
  EXPECT_EQ(ids_of(plan), (std::vector<int>{0, 3}));
  EXPECT_EQ(plan.gpus_in_use(), 2u);
  // Appends reuse the lowest released id first, then the next fresh one;
  // they still go to the back, so plan order (and first-fit) is unchanged.
  EXPECT_EQ(plan.add_gpu().id(), 1);
  EXPECT_EQ(plan.place_first_fit(9, triplet(7, 100)), 2u);
  EXPECT_EQ(plan.gpu(2).id(), 1);
  EXPECT_EQ(plan.add_gpu().id(), 2);
  EXPECT_EQ(plan.add_gpu().id(), 4);
  EXPECT_EQ(ids_of(plan), (std::vector<int>{0, 3, 1, 2, 4}));
  EXPECT_EQ(plan.to_string(), "GPU0{s0:7@0} GPU3{s3:7@0} GPU1{s9:7@0} GPU2{} GPU4{}");
}

TEST(DeploymentPlanTest, RenumberIsDenseAndForgetsReleasedIds) {
  DeploymentPlan plan;
  for (int s = 0; s < 3; ++s) plan.place_first_fit(s, triplet(7, 100));
  plan.gpu(0).remove_segment(0);
  plan.compact();
  EXPECT_EQ(ids_of(plan), (std::vector<int>{1, 2}));
  plan.renumber();
  EXPECT_EQ(ids_of(plan), (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.add_gpu().id(), 2);  // id 0's release is forgotten
  EXPECT_EQ(plan.to_string(), "GPU0{s1:7@0} GPU1{s2:7@0} GPU2{}");
}

TEST(DeploymentPlanTest, CopiesKeepTheIdLedger) {
  DeploymentPlan plan;
  for (int s = 0; s < 3; ++s) plan.place_first_fit(s, triplet(7, 100));
  plan.gpu(1).remove_segment(0);
  plan.compact();
  DeploymentPlan copy = plan;
  EXPECT_EQ(copy.add_gpu().id(), 1);
  EXPECT_EQ(plan.add_gpu().id(), 1);
}

TEST(DeploymentPlanTest, Accounting) {
  DeploymentPlan plan;
  plan.place_first_fit(0, triplet(4, 100));
  plan.place_first_fit(1, triplet(2, 50));
  EXPECT_EQ(plan.total_allocated_gpcs(), 6);
  EXPECT_EQ(plan.all_segments().size(), 2u);
  EXPECT_EQ(plan.gpus_in_use(), 1u);
}

TEST(DeploymentPlanTest, ToStringListsLayout) {
  DeploymentPlan plan;
  plan.place_first_fit(3, triplet(4, 100));
  const std::string text = plan.to_string();
  EXPECT_NE(text.find("s3:4@0"), std::string::npos);
}

TEST(DeploymentPlanTest, EmptyPlanToString) {
  const DeploymentPlan plan;
  EXPECT_EQ(plan.to_string(), "empty-plan");
}

}  // namespace
}  // namespace parva::core
