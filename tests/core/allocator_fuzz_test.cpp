// Randomised property tests for the Configurator+Allocator pipeline:
// seeded fuzzing over service mixes drawn from the real profile grid.
// Invariants checked on every draw:
//   * every GPU layout is geometrically legal (no slot overlap),
//   * every service's placed capacity covers its request rate,
//   * every placed segment respects the internal latency bound,
//   * Allocation Optimization never uses more GPUs than relocation alone,
//   * a fresh plan numbers its GPUs 0..n-1 in plan order.
// Differentially, on the same draws, on S5 x100 and on plans with holes:
//   * the allocator's resumable first-fit places every segment exactly
//     where a front-to-back scan of Algorithm 2 (the oracle below) does.
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "common/rng.hpp"
#include "core/allocator.hpp"
#include "core/configurator.hpp"
#include "scenarios/scenarios.hpp"
#include "tests/core/test_support.hpp"

namespace parva::core {
namespace {

using testing::builtin_profiles;

struct FuzzDraw {
  std::vector<ServiceSpec> services;
};

FuzzDraw draw_services(Rng& rng) {
  static const std::vector<std::string> models =
      perfmodel::ModelCatalog::builtin().names();
  FuzzDraw draw;
  const auto count = rng.uniform_int(1, 14);
  for (std::uint64_t i = 0; i < count; ++i) {
    ServiceSpec spec;
    spec.id = static_cast<int>(i);
    spec.model = models[rng.uniform_int(0, models.size() - 1)];
    // SLOs from generous to tight; rates across four orders of magnitude.
    spec.slo_latency_ms = rng.uniform(40.0, 8000.0);
    spec.request_rate = std::exp(rng.uniform(std::log(2.0), std::log(20000.0)));
    draw.services.push_back(std::move(spec));
  }
  return draw;
}

void check_plan(const DeploymentPlan& plan, const std::vector<ConfiguredService>& configured,
                std::uint64_t seed) {
  for (std::size_t i = 0; i < plan.gpu_count(); ++i) {
    ASSERT_EQ(plan.gpu(i).id(), static_cast<int>(i)) << "seed " << seed;
  }
  // Geometric validity.
  for (const auto& gpu : plan.gpus()) {
    std::uint8_t mask = 0;
    for (const auto& segment : gpu.segments()) {
      ASSERT_TRUE(gpu::is_legal_placement(segment.placement))
          << "seed " << seed << " " << gpu.to_string();
      ASSERT_EQ(mask & segment.placement.slot_mask(), 0)
          << "seed " << seed << " " << gpu.to_string();
      mask |= segment.placement.slot_mask();
    }
  }
  // Coverage and latency bounds.
  std::map<int, double> capacity;
  for (const auto& [gpu_index, segment] : plan.all_segments()) {
    capacity[segment->service_id] += segment->triplet.throughput;
  }
  for (const ConfiguredService& service : configured) {
    EXPECT_GE(capacity[service.spec.id] + 1e-6, service.spec.request_rate)
        << "seed " << seed << " service " << service.spec.model;
  }
  for (const auto& [gpu_index, segment] : plan.all_segments()) {
    const auto it =
        std::find_if(configured.begin(), configured.end(), [&](const ConfiguredService& c) {
          return c.spec.id == segment->service_id;
        });
    ASSERT_NE(it, configured.end());
    EXPECT_LT(segment->triplet.latency_ms, it->spec.slo_latency_ms * 0.5)
        << "seed " << seed;
  }
}

// --- Front-scan oracle of Algorithm 2 -------------------------------------
// Every segment scans GPUs from index 0: O(segments x GPUs), kept here as the
// reference the allocator must reproduce byte for byte.

using OracleQueues = std::map<int, std::vector<std::pair<int, Triplet>>, std::greater<int>>;

void oracle_enqueue(OracleQueues& queues, const ConfiguredService& service) {
  for (int i = 0; i < service.num_opt_seg; ++i) {
    queues[service.opt_seg.gpcs].emplace_back(service.spec.id, service.opt_seg);
  }
  if (service.last_seg.has_value()) {
    queues[service.last_seg->gpcs].emplace_back(service.spec.id, *service.last_seg);
  }
}

void oracle_allocation(const OracleQueues& queues, DeploymentPlan& plan) {
  for (const auto& [gpcs, queue] : queues) {
    for (const auto& [service_id, triplet] : queue) {
      bool placed = false;
      for (GpuPlan& gpu : plan.gpus()) {
        if ((placed = gpu.try_place(service_id, triplet))) break;
      }
      if (placed) continue;
      ASSERT_TRUE(plan.add_gpu().try_place(service_id, triplet));
    }
  }
}

DeploymentPlan oracle_relocation(const std::vector<ConfiguredService>& services) {
  OracleQueues queues;
  for (const ConfiguredService& service : services) oracle_enqueue(queues, service);
  DeploymentPlan plan;
  oracle_allocation(queues, plan);
  return plan;
}

/// SMALLSEGMENTS: bulk of the GPC-efficient small triplet, then the
/// smallest small triplet covering the remainder.
std::vector<Triplet> oracle_small_segments(const ConfiguredService& service, double rate) {
  const auto& small1 = service.opt_tri_array[0];
  const auto& small2 = service.opt_tri_array[1];
  std::vector<Triplet> out;
  if (rate <= 0.0 || (!small1.has_value() && !small2.has_value())) return out;
  const Triplet& bulk =
      !small2.has_value() ||
              (small1.has_value() && small1->throughput_per_gpc() >= small2->throughput_per_gpc())
          ? *small1
          : *small2;
  const double largest = std::max(small1.has_value() ? small1->throughput : 0.0,
                                  small2.has_value() ? small2->throughput : 0.0);
  double remaining = rate;
  while (remaining > largest) {
    out.push_back(bulk);
    remaining -= bulk.throughput;
  }
  if (remaining > 0.0) {
    out.push_back(small1.has_value() && small1->throughput >= remaining ? *small1 : *small2);
  }
  return out;
}

/// Full Algorithm 2: relocation, then optimization of GPUs at or below
/// 4 allocated GPCs, walked from the back with a carried freed-rate ledger,
/// and the fresh plan's dense renumbering.
DeploymentPlan oracle_allocate(const std::vector<ConfiguredService>& services) {
  DeploymentPlan plan = oracle_relocation(services);
  const std::size_t before = plan.gpus_in_use();
  DeploymentPlan candidate = plan;
  std::map<int, double> freed_rate;
  for (std::size_t gi = candidate.gpu_count(); gi-- > 0;) {
    GpuPlan& gpu = candidate.gpu(gi);
    if (gpu.empty() || gpu.allocated_gpcs() > 4) continue;
    OracleQueues queues;
    for (std::size_t si = gpu.segments().size(); si-- > 0;) {
      const int id = gpu.segments()[si].service_id;
      const auto service = std::find_if(services.begin(), services.end(),
                                        [&](const ConfiguredService& c) { return c.spec.id == id; });
      if (!service->opt_tri_array[0].has_value() && !service->opt_tri_array[1].has_value()) {
        continue;
      }
      freed_rate[id] += gpu.remove_segment(si).triplet.throughput;
      for (const Triplet& small : oracle_small_segments(*service, freed_rate[id])) {
        freed_rate[id] -= small.throughput;
        queues[small.gpcs].emplace_back(id, small);
      }
    }
    oracle_allocation(queues, candidate);
  }
  DeploymentPlan& chosen = candidate.gpus_in_use() <= before ? candidate : plan;
  chosen.compact();
  chosen.renumber();
  return chosen;
}

/// Frees the first segment of every `stride`-th GPU, leaving holes that a
/// later placement may sink into.
void punch_holes(DeploymentPlan& plan, std::size_t stride) {
  for (std::size_t gi = 0; gi < plan.gpu_count(); gi += stride) {
    if (!plan.gpu(gi).empty()) plan.gpu(gi).remove_segment(0);
  }
}

/// The allocator against the oracle on one configured fleet: relocation,
/// both allocate variants, and place_service into a plan with holes.
void expect_matches_oracle(const std::vector<ConfiguredService>& configured,
                           const std::string& label) {
  SegmentAllocator optimizing;
  AllocatorOptions unopt_options;
  unopt_options.optimize = false;
  SegmentAllocator relocation_only(unopt_options);

  const DeploymentPlan relocated = oracle_relocation(configured);
  EXPECT_EQ(optimizing.segment_relocation(configured).value().to_string(), relocated.to_string())
      << label;
  DeploymentPlan compacted = relocated;
  compacted.compact();
  EXPECT_EQ(relocation_only.allocate(configured).value().to_string(), compacted.to_string())
      << label;
  EXPECT_EQ(optimizing.allocate(configured).value().to_string(),
            oracle_allocate(configured).to_string())
      << label;

  DeploymentPlan holed = relocated;
  punch_holes(holed, 3);
  DeploymentPlan expected = holed;
  for (std::size_t i = 0; i < std::min<std::size_t>(configured.size(), 8); ++i) {
    ASSERT_TRUE(optimizing.place_service(holed, configured[i]).ok());
    OracleQueues queues;
    oracle_enqueue(queues, configured[i]);
    oracle_allocation(queues, expected);
    ASSERT_EQ(holed.to_string(), expected.to_string()) << label << " service " << i;
  }
}

class AllocatorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorFuzz, InvariantsHoldOnRandomMixes) {
  Rng rng(GetParam());
  SegmentConfigurator configurator;
  SegmentAllocator optimizing;
  AllocatorOptions unopt_options;
  unopt_options.optimize = false;
  SegmentAllocator relocation_only(unopt_options);

  for (int round = 0; round < 12; ++round) {
    const FuzzDraw draw = draw_services(rng);
    auto configured = configurator.configure(draw.services, builtin_profiles());
    if (!configured.ok()) continue;  // infeasible SLO drawn: fine

    const auto optimized = optimizing.allocate(configured.value());
    const auto relocated = relocation_only.allocate(configured.value());
    ASSERT_TRUE(optimized.ok());
    ASSERT_TRUE(relocated.ok());
    check_plan(optimized.value(), configured.value(), GetParam());
    check_plan(relocated.value(), configured.value(), GetParam());
    EXPECT_LE(optimized.value().gpus_in_use(), relocated.value().gpus_in_use())
        << "seed " << GetParam() << " round " << round;
  }
}

TEST_P(AllocatorFuzz, MatchesFrontScanOracle) {
  Rng rng(GetParam());
  SegmentConfigurator configurator;
  for (int round = 0; round < 12; ++round) {
    const FuzzDraw draw = draw_services(rng);
    auto configured = configurator.configure(draw.services, builtin_profiles());
    if (!configured.ok()) continue;
    expect_matches_oracle(configured.value(), "seed " + std::to_string(GetParam()) +
                                                  " round " + std::to_string(round));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

TEST(AllocatorOracle, MatchesFrontScanOnS5x100) {
  const scenarios::Scenario fleet = scenarios::scale_scenario(scenarios::scenario("S5"), 100);
  auto configured = SegmentConfigurator().configure(fleet.services, builtin_profiles());
  ASSERT_TRUE(configured.ok());
  expect_matches_oracle(configured.value(), "S5 x100");
}

}  // namespace
}  // namespace parva::core
