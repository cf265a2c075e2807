// Differential test: discrete-event simulator vs. the analytical perf law.
//
// The simulator executes a deployment with jittered per-batch service times
// derived from the unit's ground-truth latency; the analytical model
// predicts the same operating point in closed form (L(g,b,p) and T(g,b,p)).
// The two implementations are independent enough that agreement pins both:
//
//  * at saturation (offered rate slightly above capacity, paced arrivals)
//    the measured completion rate must match the analytic throughput within
//    5% — including the paper's InceptionV3 anchors at g=1, b=4;
//  * below saturation a lone request is served as a batch of one, so the
//    median latency must match the fill-scaled analytic latency within 5%
//    and the measured rate must track the offered rate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gpu/mig_geometry.hpp"
#include "perfmodel/analytical_model.hpp"
#include "serving/cluster_sim.hpp"

namespace parva::serving {
namespace {

struct OperatingPoint {
  std::string model;
  int gpcs = 1;
  int batch = 1;
  int procs = 1;
};

class SimVsModelTest : public ::testing::Test {
 protected:
  /// Builds a single-unit deployment pinned at the operating point, with
  /// ground truth taken from the analytical model (as the MIG path does).
  core::Deployment deployment_at(const OperatingPoint& point,
                                 const perfmodel::PerfPoint& perf_point) {
    core::DeployedUnit unit;
    unit.service_id = 0;
    unit.model = point.model;
    unit.gpu_index = 0;
    unit.gpc_grant = point.gpcs;
    unit.placement = gpu::Placement{point.gpcs, gpu::preferred_start_slots(point.gpcs).front()};
    unit.batch = point.batch;
    unit.procs = point.procs;
    unit.planned_throughput = unit.actual_throughput = perf_point.throughput;
    unit.planned_latency_ms = unit.actual_latency_ms = perf_point.latency_ms;
    unit.sm_occupancy = perf_point.sm_occupancy;
    unit.memory_gib = perf_point.memory_gib;

    core::Deployment deployment;
    deployment.framework = "test";
    deployment.uses_mig = true;
    deployment.gpu_count = 1;
    deployment.units.push_back(std::move(unit));
    return deployment;
  }

  SimulationOptions long_options() {
    SimulationOptions options;
    options.duration_ms = 20'000.0;
    options.warmup_ms = 2'000.0;
    options.seed = 11;
    return options;
  }

  /// Sustained request throughput of a saturated run, from the timeline
  /// buckets. `measured_rate` would overstate capacity: it counts every
  /// accepted arrival, including the backlog drained after the horizon, so
  /// an oversaturated unit still "measures" the offered rate. Completions
  /// inside the window are the honest signal; the first two buckets are
  /// skipped to let the queue reach steady state (all batches full).
  double sustained_rate(const OperatingPoint& point, const SimulationResult& result,
                        double bucket_ms) {
    constexpr std::size_t kSkip = 2;
    if (result.timeline.size() <= kSkip) return 0.0;
    std::uint64_t batches = 0;
    for (std::size_t b = kSkip; b < result.timeline.size(); ++b) {
      batches += static_cast<std::uint64_t>(result.timeline[b].batches);
    }
    const double span_s =
        static_cast<double>(result.timeline.size() - kSkip) * bucket_ms / 1000.0;
    return static_cast<double>(batches) * static_cast<double>(point.batch) / span_s;
  }

  perfmodel::AnalyticalPerfModel perf_{perfmodel::ModelCatalog::builtin()};
};

// The model x (g,b,p) grid both implementations must agree on.
const OperatingPoint kGrid[] = {
    {"inceptionv3", 1, 4, 1},  // paper anchor: 354 req/s
    {"inceptionv3", 1, 4, 2},  // paper anchor: 444 req/s
    {"inceptionv3", 1, 4, 3},  // paper anchor: 446 req/s
    {"resnet-50", 1, 8, 1},   {"resnet-50", 2, 16, 2}, {"resnet-50", 3, 32, 1},
    {"vgg-19", 2, 8, 1},      {"vgg-19", 4, 16, 2},    {"mobilenetv2", 1, 16, 2},
    {"bert-large", 2, 8, 1},  {"densenet-121", 1, 8, 1},
};

TEST_F(SimVsModelTest, SaturatedThroughputMatchesAnalyticModelWithin5Percent) {
  for (const OperatingPoint& point : kGrid) {
    const auto evaluated =
        perf_.evaluate_mig(point.model, point.gpcs, point.batch, point.procs);
    ASSERT_TRUE(evaluated.ok()) << point.model;
    const double analytic_rate = evaluated.value().throughput;

    // Offer well past capacity: the unit saturates (full batches back to
    // back) and the in-window completion rate is its true throughput.
    const std::vector<core::ServiceSpec> services = {
        {0, point.model, 1e9, analytic_rate * 1.3, {}}};
    const core::Deployment deployment = deployment_at(point, evaluated.value());
    ClusterSimulation sim(deployment, services, perf_);
    SimulationOptions options = long_options();
    options.warmup_ms = 0.0;
    options.timeline_bucket_ms = 1'000.0;
    const SimulationResult result = sim.run(options);

    EXPECT_NEAR(sustained_rate(point, result, options.timeline_bucket_ms), analytic_rate,
                0.05 * analytic_rate)
        << point.model << " g=" << point.gpcs << " b=" << point.batch
        << " p=" << point.procs;
  }
}

TEST_F(SimVsModelTest, InceptionAnchorsReproduceWithinTolerance) {
  // The paper's Section III-B example rates for InceptionV3 on a 1-GPC
  // instance at batch 4: ~354/444/446 req/s for p = 1/2/3. The built-in
  // calibration lands at 416/462/465 (see EXPERIMENTS.md) — within 20% of
  // the paper, exact about the p=2/3 MPS ordering — and the simulator must
  // track the *calibrated* surface within 5%.
  const double anchors[] = {354.0, 444.0, 446.0};
  double previous_rate = 0.0;
  for (int procs = 1; procs <= 3; ++procs) {
    const auto evaluated = perf_.evaluate_mig("inceptionv3", 1, 4, procs);
    ASSERT_TRUE(evaluated.ok());
    const double analytic_rate = evaluated.value().throughput;
    EXPECT_NEAR(analytic_rate, anchors[procs - 1], 0.20 * anchors[procs - 1]) << procs;
    EXPECT_GT(analytic_rate, previous_rate);  // more processes, more rate
    previous_rate = analytic_rate;

    const OperatingPoint point{"inceptionv3", 1, 4, procs};
    const std::vector<core::ServiceSpec> services = {
        {0, "inceptionv3", 1e9, analytic_rate * 1.3, {}}};
    const core::Deployment deployment = deployment_at(point, evaluated.value());
    ClusterSimulation sim(deployment, services, perf_);
    SimulationOptions options = long_options();
    options.warmup_ms = 0.0;
    options.timeline_bucket_ms = 1'000.0;
    const SimulationResult result = sim.run(options);
    EXPECT_NEAR(sustained_rate(point, result, options.timeline_bucket_ms), analytic_rate,
                0.05 * analytic_rate)
        << "p=" << procs;
  }
}

TEST_F(SimVsModelTest, SubSaturationMedianLatencyMatchesScaledAnalyticLatency) {
  for (const OperatingPoint& point : kGrid) {
    const auto evaluated =
        perf_.evaluate_mig(point.model, point.gpcs, point.batch, point.procs);
    ASSERT_TRUE(evaluated.ok()) << point.model;
    const perfmodel::WorkloadTraits* traits = perf_.catalog().find(point.model);
    ASSERT_NE(traits, nullptr);

    // A lone arrival is served immediately as a batch of one, so its
    // latency is the full-batch latency scaled by W(1)/W(b).
    const double full_work =
        perfmodel::AnalyticalPerfModel::batch_work_ms(*traits, point.batch);
    const double solo_work = perfmodel::AnalyticalPerfModel::batch_work_ms(*traits, 1);
    const double solo_latency = evaluated.value().latency_ms * solo_work / full_work;

    // Pace arrivals far enough apart that the unit is idle at each arrival.
    const double offered_rate = 1000.0 / (solo_latency * 1.25);
    const std::vector<core::ServiceSpec> services = {{0, point.model, 1e9, offered_rate, {}}};
    const core::Deployment deployment = deployment_at(point, evaluated.value());
    ClusterSimulation sim(deployment, services, perf_);
    const SimulationResult result = sim.run(long_options());

    ASSERT_GT(result.services[0].requests, 100u) << point.model;
    EXPECT_NEAR(result.services[0].request_latency_ms.percentile(50.0), solo_latency,
                0.05 * solo_latency)
        << point.model << " g=" << point.gpcs << " b=" << point.batch
        << " p=" << point.procs;
    // Nothing queues, so completions track arrivals.
    EXPECT_NEAR(result.services[0].measured_rate, offered_rate, 0.05 * offered_rate)
        << point.model;
  }
}

}  // namespace
}  // namespace parva::serving
