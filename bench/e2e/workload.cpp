#include "workload.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/allocator.hpp"
#include "core/configurator.hpp"
#include "core/deployer.hpp"
#include "core/live_update.hpp"
#include "core/parvagpu.hpp"
#include "core/reconfigure.hpp"
#include "gpu/gpu_cluster.hpp"
#include "gpu/nvml_sim.hpp"
#include "perfmodel/analytical_model.hpp"
#include "perfmodel/model_catalog.hpp"
#include "profiler/profile_surface.hpp"
#include "profiler/profiler.hpp"
#include "scenarios/scenarios.hpp"
#include "serving/cluster_sim.hpp"

namespace e2e {
namespace {

using namespace parva;

/// What one workload runs. The run interleaves four phases -- set-up
/// rebuilds, cold schedules, update chunks and simulation runs -- picking
/// next whichever phase is furthest below its share of the time spent, so
/// every metric samples the whole run and a burst of host noise lands on
/// all of them alike. Each phase also has a minimum, met however slow the
/// host is.
struct WorkloadConfig {
  const char* name;
  const char* scenario;  ///< base scenario, replicated `fold` times
  int fold;
  double shares[4];      ///< time shares: set-up, plan, churn, serve
  int shards;            ///< DES shards
  double horizon_ms;     ///< simulated time measured per DES run
  double warmup_ms;      ///< simulated warm-up discarded before it
  bool serve_churned;    ///< simulate the churned fleet instead of the fresh plan
};

// Shares, counts and horizons were sized on a 4-vCPU x86 VM so that one
// run spends most of its budget in the phase the workload is named for
// and still makes several whole update passes. plan_churn's serve phase is
// the sharded DES; serve_llm runs one shard.
constexpr WorkloadConfig kWorkloads[] = {
    {"plan_churn", "S5", 100, {0.05, 0.25, 0.55, 0.15}, 4, 150.0, 50.0, true},
    {"serve_llm", "S7", 100, {0.05, 0.05, 0.30, 0.60}, 1, 40'000.0, 2'000.0, false},
};

enum Phase { kSetup = 0, kPlan = 1, kChurn = 2, kServe = 3, kPhaseCount = 4 };

constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMinSchedules = 5;
/// Single-service updates per pass. update_ms_p95 is taken over each
/// pass's updates; p95 is the highest percentile that keeps at least 10
/// of them beyond it.
constexpr std::size_t kUpdatesPerPass = 240;
/// Whole passes a run makes at least, so every update has a repeat.
constexpr int kMinPasses = 2;
static_assert(kUpdatesPerPass * 5 / 100 >= 10 && kUpdatesPerPass * 1 / 100 < 10);
/// Updates per churn step; a pass is kUpdatesPerPass / kUpdateChunk steps.
constexpr std::size_t kUpdateChunk = 24;
/// Simulation seeds per run; sim-time metrics are their mean.
constexpr std::size_t kSimSeeds = 3;

/// Simulated-time outcomes of one simulation seed.
struct SimSummary {
  double compliance = 0.0;
  /// Worst model's p99 of request latency over SLO, pooling the model's
  /// replicas (a single replica's p99 over one horizon is noise-bound).
  double p99_over_slo = 0.0;
  double ttft_p50_ms = 0.0;
  double ttft_p99_ms = 0.0;
  double requests = 0.0;
  double events = 0.0;
  double generated_tokens = 0.0;
  double rejected = 0.0;
  double evicted = 0.0;
  double kv_loss_frac = 0.0;
  double kv_peak_mean = 0.0;
};
constexpr const char* kFramework = "ParvaGPU";

const WorkloadConfig* find_config(const std::string& name) {
  for (const WorkloadConfig& config : kWorkloads) {
    if (name == config.name) return &config;
  }
  return nullptr;
}

/// CPUs this process may run on (1 when the affinity mask is unreadable).
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

/// The benchmark's own pool: its workers plus the calling thread (which
/// joins in parallel_for) are at most `threads`. None for one thread,
/// where every call runs serially.
std::unique_ptr<ThreadPool> make_pool(std::size_t threads) {
  return threads > 1 ? std::make_unique<ThreadPool>(threads - 1) : nullptr;
}

std::string fmt(double value, int digits = 3) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
  return buffer;
}

/// Everything set-up builds: the perf model, profiles, surfaces, the
/// scheduler, the fresh plan and its live deployment. Owned through
/// pointers because the library keeps raw pointers between them.
struct Fleet {
  std::unique_ptr<perfmodel::AnalyticalPerfModel> perf;
  std::unique_ptr<profiler::ProfileSet> profiles;
  std::unique_ptr<profiler::ProfileSurfaceSet> surfaces;
  std::unique_ptr<core::ParvaGpuScheduler> scheduler;
  core::Deployment deployment;  ///< fresh plan, models filled in
  core::DeploymentPlan plan;
  std::vector<core::ConfiguredService> configured;
};

/// A live cluster: simulated devices, the NVML control plane over them,
/// and the Deployer's record of which instance backs which unit.
struct LiveCluster {
  std::unique_ptr<gpu::GpuCluster> cluster;
  std::unique_ptr<gpu::NvmlSim> nvml;
  std::unique_ptr<core::Deployer> deployer;
  core::DeployedState state;
};

std::uint64_t deployment_digest(const core::Deployment& deployment) {
  Digest digest;
  digest.add(deployment.gpu_count);
  for (const core::DeployedUnit& unit : deployment.units) {
    digest.add(unit.service_id);
    digest.add(unit.gpu_index);
    digest.add(unit.placement.has_value() ? unit.placement->gpcs : -1);
    digest.add(unit.placement.has_value() ? unit.placement->start_slot : -1);
    digest.add(unit.batch);
    digest.add(unit.procs);
    digest.add(unit.planned_throughput);
    digest.add(unit.actual_latency_ms);
    digest.add_bytes(unit.model.data(), unit.model.size());
  }
  return digest.value();
}

/// Digest of a simulation's per-service outcome: request, batch,
/// violation, loss and token counts plus every latency sample's bits
/// (as a multiset, so the digest does not depend on accumulation order).
std::uint64_t simulation_digest(const serving::SimulationResult& result) {
  Digest digest;
  digest.add(static_cast<std::uint64_t>(result.events_processed));
  for (const serving::ServiceOutcome& outcome : result.services) {
    digest.add(outcome.service_id);
    digest.add(static_cast<std::uint64_t>(outcome.requests));
    digest.add(static_cast<std::uint64_t>(outcome.batches));
    digest.add(static_cast<std::uint64_t>(outcome.violated_batches));
    digest.add(static_cast<std::uint64_t>(outcome.shed_requests));
    digest.add(static_cast<std::uint64_t>(outcome.rejected_requests));
    digest.add(static_cast<std::uint64_t>(outcome.evicted_requests));
    digest.add(outcome.generated_tokens);
    digest.add_unordered(outcome.request_latency_ms.values());
    digest.add_unordered(outcome.prefill_latency_ms.values());
  }
  return digest.value();
}

/// Fills in each unit's model name from the service specs (the part of
/// schedule() that follows to_deployment; the Deployer needs it).
void fill_models(core::Deployment& deployment, const std::vector<core::ServiceSpec>& specs) {
  for (core::DeployedUnit& unit : deployment.units) {
    unit.model = specs[static_cast<std::size_t>(unit.service_id)].model;
  }
}

/// Checks every service's deployed capacity against its current rate.
/// Returns the id of the first under-provisioned service, or -1.
int first_underprovisioned(const core::Deployment& deployment,
                           const std::vector<core::ServiceSpec>& specs) {
  std::vector<double> capacity(specs.size(), 0.0);
  for (const core::DeployedUnit& unit : deployment.units) {
    capacity[static_cast<std::size_t>(unit.service_id)] += unit.actual_throughput;
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (capacity[i] < specs[i].request_rate) return static_cast<int>(i);
  }
  return -1;
}

/// Percentile `p` of each whole pass of `ordered` (rounds of
/// kUpdatesPerPass samples in replay order), then the median over passes.
/// Every pass replays the same updates, so passes differ only by host
/// noise, which the median over passes damps. An unfinished last pass is
/// left out; 0 when no pass is whole.
double median_over_passes(const std::vector<double>& ordered, double p) {
  Samples per_pass;
  for (std::size_t first = 0; first + kUpdatesPerPass <= ordered.size();
       first += kUpdatesPerPass) {
    const auto begin = ordered.begin() + static_cast<std::ptrdiff_t>(first);
    per_pass.add(percentile_of(std::vector<double>(begin, begin + kUpdatesPerPass), p));
  }
  return per_pass.p50();
}

/// A seeded single-service update sequence: each picks a service at
/// random and redraws its rate (0.6-1.4x base) and SLO (1.0-1.3x base,
/// never tighter than Table IV, so every update stays feasible).
std::vector<core::ServiceSpec> make_updates(const std::vector<core::ServiceSpec>& base,
                                            std::size_t count, std::uint64_t seed) {
  Rng rng(seed ^ 0x5eed0f0c4a11ULL);
  std::vector<core::ServiceSpec> updates;
  updates.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::ServiceSpec spec = base[rng.uniform_int(0, base.size() - 1)];
    spec.request_rate *= rng.uniform(0.6, 1.4);
    spec.slo_latency_ms *= rng.uniform(1.0, 1.3);
    updates.push_back(spec);
  }
  return updates;
}

class WorkloadRun {
 public:
  WorkloadRun(const WorkloadConfig& config, const RunOptions& options, Report& report)
      : config_(config),
        options_(options),
        report_(report),
        tracer_(options.trace),
        threads_(usable_cpus()),
        pool_(make_pool(threads_)) {
    const scenarios::Scenario& base = scenarios::scenario(config.scenario);
    services_ = scenarios::scale_scenario(base, config.fold).services;
    streaming_ = base.streaming;
    generative_ = std::any_of(services_.begin(), services_.end(),
                              [](const core::ServiceSpec& s) { return s.llm.has_value(); });
  }

  void run() {
    const Clock::time_point start = Clock::now();
    if (!build_fleet()) return;
    updates_ = make_updates(services_, kUpdatesPerPass, options_.seed);
    const Clock::time_point measure_start = Clock::now();
    double spent_ms[kPhaseCount] = {};
    for (;;) {
      const double elapsed_ms = ms_since(measure_start);
      const bool over_budget = elapsed_ms >= options_.budget_ms;
      // Past the budget, minimums are pursued only while nothing has
      // failed, and never past twice the budget.
      if (over_budget && (report_.failed() > 0 || elapsed_ms >= 2.0 * options_.budget_ms)) break;
      int pick = -1;
      double lowest = 0.0;
      for (int p = 0; p < kPhaseCount; ++p) {
        if (!eligible(static_cast<Phase>(p))) continue;
        if (over_budget && minimum_met(static_cast<Phase>(p))) continue;
        const double used = spent_ms[p] / config_.shares[p];
        if (pick < 0 || used < lowest) {
          pick = p;
          lowest = used;
        }
      }
      if (pick < 0) break;
      const Clock::time_point step_start = Clock::now();
      step(static_cast<Phase>(pick));
      spent_ms[pick] += ms_since(step_start);
    }
    measured_ms_ = ms_since(measure_start);
    one_shard_check();
    total_ms_ = ms_since(start);
    finish();
  }

 private:
  bool eligible(Phase phase) const {
    // The churned fleet exists once the first update pass is done.
    return phase != kServe || !config_.serve_churned || passes_done_ > 0;
  }

  bool minimum_met(Phase phase) const {
    switch (phase) {
      case kSetup: return setup_samples_.size() >= kMinSetups;
      case kPlan: return schedule_samples_.size() >= kMinSchedules;
      // A pass still open at the end is dropped unchecked and unmeasured.
      case kChurn: return passes_done_ >= kMinPasses;
      // Every simulated seed runs at least twice (the repeat is checked).
      case kServe: return sim_runs_ >= static_cast<int>(2 * kSimSeeds);
      case kPhaseCount: break;
    }
    return true;
  }

  void step(Phase phase) {
    switch (phase) {
      case kSetup: (void)build_fleet(); break;
      case kPlan: options_.trace ? decomposed_schedule() : cold_schedule(); break;
      case kChurn: churn_step(); break;
      case kServe: simulate(); break;
      case kPhaseCount: break;
    }
  }

  // --- set-up -----------------------------------------------------------

  /// One set-up: perf model, profiling, surface indexing, the fresh plan
  /// and its initial deploy on a new simulated cluster. The first build is
  /// kept; later ones only sample set-up time (median reported as setup_s).
  bool build_fleet() {
    auto fleet = std::make_unique<Fleet>();
    auto live = std::make_unique<LiveCluster>();
    Span whole(tracer_, "setup", op_++);
    const perfmodel::ModelCatalog& catalog = generative_ ? perfmodel::ModelCatalog::with_llm()
                                                         : perfmodel::ModelCatalog::builtin();
    {
      Span span(tracer_, "perfmodel.init", op_);
      fleet->perf = std::make_unique<perfmodel::AnalyticalPerfModel>(catalog);
    }
    {
      Span span(tracer_, "profiler.profile", op_);
      const profiler::Profiler profiler(*fleet->perf);
      fleet->profiles = std::make_unique<profiler::ProfileSet>(
          pool_ ? profiler.profile_all(catalog.names(), *pool_)
                : profiler.profile_all(catalog.names()));
      layer_["profiler.profile_ms"].add(span.stop());
    }
    {
      Span span(tracer_, "profiler.surface_index", op_);
      fleet->surfaces = std::make_unique<profiler::ProfileSurfaceSet>(*fleet->profiles);
      layer_["profiler.surface_index_ms"].add(span.stop());
    }
    {
      Span span(tracer_, "scheduler.init", op_);
      core::ParvaGpuOptions parva;
      parva.pool = pool_.get();
      fleet->scheduler = std::make_unique<core::ParvaGpuScheduler>(*fleet->profiles, parva);
    }
    {
      Span span(tracer_, "schedule", op_);
      auto scheduled = fleet->scheduler->schedule(services_);
      span.stop();
      report_.operation(scheduled.ok(), "set-up schedule: " + error_text(scheduled));
      if (!scheduled.ok()) return false;
      fleet->deployment = std::move(scheduled).value().deployment;
      fleet->plan = fleet->scheduler->last_plan();
      fleet->configured = fleet->scheduler->last_configured();
    }
    {
      Span span(tracer_, "deployer.deploy", op_);
      auto deployed = deploy_fresh(*fleet, *live);
      layer_["deployer.deploy_ms"].add(span.stop());
      if (!deployed) return false;
    }
    setup_samples_.push_back(whole.stop());
    if (!fleet_) {
      fleet_ = std::move(fleet);
      live_ = std::move(live);
      fresh_digest_ = deployment_digest(fleet_->deployment);
    } else {
      report_.operation(deployment_digest(fleet->deployment) == fresh_digest_,
                        "set-up rebuild planned a different fleet");
    }
    return true;
  }

  /// Brings up a new simulated cluster and deploys the fresh plan on it.
  bool deploy_fresh(const Fleet& fleet, LiveCluster& live) {
    live.cluster = std::make_unique<gpu::GpuCluster>(
        static_cast<std::size_t>(fleet.deployment.gpu_count), /*elastic=*/true);
    live.nvml = std::make_unique<gpu::NvmlSim>(*live.cluster);
    live.deployer = std::make_unique<core::Deployer>(*live.nvml, *fleet.perf);
    auto deployed = live.deployer->deploy(fleet.deployment);
    report_.operation(deployed.ok(), "deploy of the fresh plan: " + error_text(deployed));
    if (!deployed.ok()) return false;
    live.state = std::move(deployed).value();
    live.nvml->clear_operation_log();
    return true;
  }

  template <typename R>
  static std::string error_text(const R& result) {
    return result.ok() ? std::string("ok") : result.error().to_string();
  }

  // --- plan: cold schedules ---------------------------------------------

  /// One full cold schedule() call on the fleet.
  void cold_schedule() {
    Span span(tracer_, "schedule", op_++);
    auto scheduled = fleet_->scheduler->schedule(services_);
    const double took = span.stop();
    report_.operation(scheduled.ok(), "cold schedule: " + error_text(scheduled));
    if (!scheduled.ok()) return;
    schedule_samples_.push_back(took);
    const std::uint64_t digest = deployment_digest(scheduled.value().deployment);
    report_.operation(digest == fresh_digest_,
                      "cold schedule digest differs from the set-up plan's");
  }

  /// The traced run's schedule: the configurator and both allocator stages
  /// called directly, to split schedule() from outside, then checked to
  /// give exactly schedule()'s plan.
  void decomposed_schedule() {
    const core::SegmentConfigurator configurator;
    const core::SegmentAllocator allocator;
    const profiler::ProfileSurfaceSet& surfaces = fleet_->scheduler->surfaces();
    const bool parallel =
        pool_ && services_.size() >= core::ParvaGpuOptions{}.parallel_threshold;
    Span whole(tracer_, "schedule.decomposed", op_++);
    Result<std::vector<core::ConfiguredService>> configured =
        Error(ErrorCode::kInternal, "not run");
    {
      Span span(tracer_, "configurator.configure", op_);
      configured = parallel ? configurator.configure(services_, surfaces, *pool_)
                            : configurator.configure(services_, surfaces);
      layer_["configurator.configure_ms"].add(span.stop());
    }
    report_.operation(configured.ok(), "configure: " + error_text(configured));
    if (!configured.ok()) return;
    Result<core::DeploymentPlan> relocated = Error(ErrorCode::kInternal, "not run");
    {
      Span span(tracer_, "allocator.segment_relocation", op_);
      relocated = allocator.segment_relocation(configured.value());
      layer_["allocator.relocation_ms"].add(span.stop());
    }
    report_.operation(relocated.ok(), "segment relocation: " + error_text(relocated));
    if (!relocated.ok()) return;
    gpus_relocation_ = static_cast<double>(relocated.value().gpus_in_use());
    core::DeploymentPlan plan;
    {
      Span span(tracer_, "allocator.allocation_optimization", op_);
      plan = allocator.allocation_optimization(std::move(relocated).value(),
                                               configured.value());
      layer_["allocator.optimization_ms"].add(span.stop());
    }
    core::Deployment deployment;
    {
      Span span(tracer_, "plan.to_deployment", op_);
      deployment = core::ParvaGpuScheduler::to_deployment(plan, kFramework);
      fill_models(deployment, services_);
    }
    schedule_samples_.push_back(whole.stop());
    report_.operation(deployment_digest(deployment) == fresh_digest_,
                      "decomposed schedule differs from schedule()'s plan");
    double segments = 0.0;
    for (const core::ConfiguredService& service : configured.value()) {
      segments += service.num_opt_seg + (service.last_seg.has_value() ? 1 : 0);
    }
    configurator_segments_ = segments;
  }

  // --- churn: single-service updates applied live ------------------------

  /// One pass of the seeded update sequence, replayed from the fresh plan
  /// on a live cluster.
  struct Pass {
    int index = 0;
    std::size_t next = 0;
    core::DeploymentPlan plan;
    std::vector<core::ConfiguredService> configured;
    core::Deployment current;
    std::vector<core::ServiceSpec> specs;
  };

  void churn_step() {
    if (!pass_) {
      auto pass = std::make_unique<Pass>();
      pass->index = passes_done_;
      if (pass->index > 0) {
        // The previous pass left the cluster churned: start from the
        // fresh plan on a new one (not an update, so not timed as one).
        auto live = std::make_unique<LiveCluster>();
        if (!deploy_fresh(*fleet_, *live)) return;
        live_ = std::move(live);
      }
      pass->plan = fleet_->plan;
      pass->configured = fleet_->configured;
      pass->current = fleet_->deployment;
      pass->specs = services_;
      pass_ = std::move(pass);
    }
    // In the traced run every other step is an untraced reference, so the
    // tracing overhead is measured over the same stretch of time.
    const bool traced = options_.trace && churn_steps_++ % 2 == 0;
    tracer_.set_enabled(traced);
    const std::size_t stop = std::min(updates_.size(), pass_->next + kUpdateChunk);
    for (; pass_->next < stop; ++pass_->next) apply_update(updates_[pass_->next], traced);
    tracer_.set_enabled(options_.trace);
    if (pass_->next == updates_.size()) finish_pass();
  }

  void apply_update(const core::ServiceSpec& update, bool traced) {
    Pass& pass = *pass_;
    const core::Reconfigurer reconfigurer{core::SegmentConfigurator(),
                                          core::SegmentAllocator()};
    core::LiveUpdater updater(*live_->deployer);
    Span whole(tracer_, "update", op_++);
    Result<core::ReconfigureStats> stats = Error(ErrorCode::kInternal, "not run");
    double reconfigure_ms = 0.0;
    {
      Span span(tracer_, "reconfigure.update_service", op_);
      stats = reconfigurer.update_service(pass.plan, pass.configured, update, *fleet_->surfaces);
      reconfigure_ms = span.stop();
    }
    if (!stats.ok()) {
      whole.stop();
      report_.operation(false, "update_service: " + error_text(stats));
      return;
    }
    pass.specs[static_cast<std::size_t>(update.id)] = update;
    core::Deployment target;
    double to_deployment_ms = 0.0;
    {
      Span span(tracer_, "plan.to_deployment", op_);
      target = core::ParvaGpuScheduler::to_deployment(pass.plan, kFramework);
      fill_models(target, pass.specs);
      to_deployment_ms = span.stop();
    }
    Result<core::LiveUpdateReport> applied = Error(ErrorCode::kInternal, "not run");
    double apply_ms = 0.0;
    {
      Span span(tracer_, "live_update.apply", op_);
      applied = updater.apply(pass.current, live_->state, target, core::UpdateStrategy::kInPlace);
      apply_ms = span.stop();
    }
    const double update_ms = whole.stop();

    // Checks, outside the timed region.
    report_.operation(applied.ok(), "live update: " + error_text(applied));
    if (!applied.ok()) return;
    const int short_id = first_underprovisioned(target, pass.specs);
    report_.operation(short_id < 0, "service " + std::to_string(short_id) +
                                        " deployed below its rate after an update");
    report_.operation(live_->state.unit_instances.size() == target.units.size() &&
                          live_->cluster->total_allocated_gpcs() ==
                              static_cast<int>(std::lround(target.total_granted_gpcs())),
                      "live state does not match the target deployment");
    live_->nvml->clear_operation_log();

    if (options_.trace && !traced) {
      reference_update_samples_.push_back(update_ms);
    } else {
      update_samples_.push_back(update_ms);
      layer_["reconfigure.update_ms"].add(reconfigure_ms);
      layer_["plan.to_deployment_ms"].add(to_deployment_ms);
      layer_["live_update.apply_ms"].add(apply_ms);
      layer_["live_update.makespan_ms"].add(applied.value().makespan_ms);
      const core::ReconfigureStats& s = stats.value();
      touched_segments_ += s.segments_added + s.segments_removed;
      all_segments_ += s.segments_added + s.segments_removed + s.segments_untouched;
      const core::LiveUpdateReport& r = applied.value();
      changed_units_ += r.added_units + r.removed_units;
      scanned_units_ += static_cast<double>(pass.current.units.size() + target.units.size());
    }
    pass.current = std::move(target);
  }

  /// A finished pass must end where pass 0 ended: same plan, same fleet.
  void finish_pass() {
    const double gpus_after = static_cast<double>(pass_->plan.gpus_in_use());
    if (pass_->index == 0) {
      gpus_after_churn_ = gpus_after;
      churned_ = std::move(pass_->current);
      churned_specs_ = std::move(pass_->specs);
    } else {
      report_.operation(gpus_after == gpus_after_churn_ &&
                            deployment_digest(pass_->current) == deployment_digest(churned_),
                        "update pass " + std::to_string(pass_->index) +
                            " ended in a different plan than pass 0");
    }
    pass_.reset();
    ++passes_done_;
  }

  // --- serve: discrete-event simulation ----------------------------------

  const core::Deployment& served_deployment() const {
    return config_.serve_churned ? churned_ : fleet_->deployment;
  }
  const std::vector<core::ServiceSpec>& served_specs() const {
    return config_.serve_churned ? churned_specs_ : services_;
  }

  serving::SimulationOptions sim_options(std::size_t which) {
    serving::SimulationOptions sim;
    sim.duration_ms = config_.horizon_ms;
    sim.warmup_ms = config_.warmup_ms;
    sim.seed = options_.seed * kSimSeeds + which;
    // Streaming scenarios (S7) arrive in bursts; the rest are Poisson.
    sim.arrivals =
        streaming_ ? serving::ArrivalProcess::kBursty : serving::ArrivalProcess::kPoisson;
    sim.llm.admission = serving::LlmAdmissionPolicy::kEvict;
    sim.shards = config_.shards;
    sim.shard_pool = pool_.get();
    return sim;
  }

  /// One simulation run of the served fleet. Runs cycle through
  /// kSimSeeds seeds derived from the run's seed; every repeat of a seed
  /// must produce that seed's digest.
  void simulate() {
    const std::size_t which = static_cast<std::size_t>(sim_runs_) % kSimSeeds;
    const serving::ClusterSimulation simulation(served_deployment(), served_specs(),
                                                *fleet_->perf);
    const serving::SimulationOptions sim = sim_options(which);
    Span span(tracer_, "des.run", op_++);
    const serving::SimulationResult result = simulation.run(sim);
    const double run_ms = span.stop();
    ++sim_runs_;
    report_.operation(true, "simulation run");
    record_simulation(result, run_ms);
    const std::uint64_t digest = simulation_digest(result);
    if (which == sim_digests_.size()) {
      sim_digests_.push_back(digest);
      sim_summaries_.push_back(summarize_simulation(result));
    } else {
      report_.operation(digest == sim_digests_[which],
                        "simulation digest differs between repeats of one seed");
    }
    sim_request_rates_.add(sim_summaries_[which].requests / (run_ms / 1000.0));
  }

  /// A sharded simulation's digest must equal a 1-shard run of the same
  /// inputs (after the measured phases).
  void one_shard_check() {
    if (config_.shards == 1 || sim_digests_.empty()) return;
    serving::SimulationOptions serial = sim_options(0);
    serial.shards = 1;
    const serving::ClusterSimulation simulation(served_deployment(), served_specs(),
                                                *fleet_->perf);
    report_.operation(simulation_digest(simulation.run(serial)) == sim_digests_[0],
                      "sharded simulation digest differs from the 1-shard run");
  }

  void record_simulation(const serving::SimulationResult& result, double run_ms) {
    const double run_s = run_ms / 1000.0;
    layer_["des.run_ms"].add(run_ms);
    layer_["des.events_per_s"].add(static_cast<double>(result.events_processed) / run_s);
    double busy_max_ms = 0.0;
    double busy_sum_ms = 0.0;
    for (const double busy_ms : result.shard_busy_ms) {
      busy_max_ms = std::max(busy_max_ms, busy_ms);
      busy_sum_ms += busy_ms;
    }
    layer_["des.shard_busy_ms_max"].add(busy_max_ms);
    layer_["des.parallel_efficiency"].add(
        busy_sum_ms / (static_cast<double>(result.shard_busy_ms.size()) * run_ms));
    layer_["llm.tokens_per_host_s"].add(static_cast<double>(result.generated_tokens) /
                                              run_s);
  }

  /// Simulated-time outcomes of one seed, identical across its repeats.
  SimSummary summarize_simulation(const serving::SimulationResult& result) const {
    const std::vector<core::ServiceSpec>& specs = served_specs();
    SimSummary out;
    out.compliance = result.overall_compliance();
    {
      std::map<std::string, Samples> over_slo;  // per model
      for (const serving::ServiceOutcome& outcome : result.services) {
        const core::ServiceSpec& spec = specs[static_cast<std::size_t>(outcome.service_id)];
        Samples& ratios = over_slo[spec.model];
        for (const double latency_ms : outcome.request_latency_ms.values()) {
          ratios.add(latency_ms / spec.slo_latency_ms);
        }
      }
      for (const auto& [model, ratios] : over_slo) {
        out.p99_over_slo = std::max(out.p99_over_slo, ratios.p99());
      }
    }
    Samples first_output;
    double offered = 0.0;
    for (const serving::ServiceOutcome& outcome : result.services) {
      const core::ServiceSpec& spec = specs[static_cast<std::size_t>(outcome.service_id)];
      // First output: prefill completion for generative requests, batch
      // completion for fixed-latency ones (whose only output it is).
      const Samples& first =
          spec.llm.has_value() ? outcome.prefill_latency_ms : outcome.request_latency_ms;
      first_output.merge(first);
      out.requests += static_cast<double>(outcome.requests);
      offered += static_cast<double>(outcome.requests + outcome.rejected_requests +
                                     outcome.evicted_requests + outcome.shed_requests);
    }
    out.ttft_p50_ms = first_output.p50();
    out.ttft_p99_ms = first_output.p99();
    out.events = static_cast<double>(result.events_processed);
    out.generated_tokens = static_cast<double>(result.generated_tokens);
    out.rejected = static_cast<double>(result.requests_rejected);
    out.evicted = static_cast<double>(result.requests_evicted);
    out.kv_loss_frac = offered <= 0.0 ? 0.0 : (out.rejected + out.evicted) / offered;
    double kv_peak_sum = 0.0;
    double llm_units = 0.0;
    const core::Deployment& deployment = served_deployment();
    for (std::size_t u = 0; u < result.unit_kv_peak.size(); ++u) {
      const auto service = static_cast<std::size_t>(deployment.units[u].service_id);
      if (!specs[service].llm.has_value()) continue;
      kv_peak_sum += result.unit_kv_peak[u];
      llm_units += 1.0;
    }
    out.kv_peak_mean = llm_units == 0.0 ? 0.0 : kv_peak_sum / llm_units;
    return out;
  }

  /// Mean of one simulated-time outcome over the simulated seeds.
  double sim_mean(double SimSummary::*field) const {
    double total = 0.0;
    for (const SimSummary& summary : sim_summaries_) total += summary.*field;
    return sim_summaries_.empty() ? 0.0 : total / static_cast<double>(sim_summaries_.size());
  }

  // --- results ------------------------------------------------------------

  double layer_median(const std::string& key) const {
    const auto it = layer_.find(key);
    return it == layer_.end() ? 0.0 : it->second.p50();
  }
  double layer_percentile(const std::string& key, double p) const {
    const auto it = layer_.find(key);
    return it == layer_.end() ? 0.0 : it->second.percentile(p);
  }

  void finish() {
    const double fresh_gpus = static_cast<double>(fleet_->deployment.gpu_count);
    add_notes(fresh_gpus);
    if (options_.trace) {
      layer_metrics(fresh_gpus);
      trace_checks();
      return;
    }
    const Better lower = Better::kLower;
    // Host times are medians over the whole run: of set-ups, of cold
    // schedules, of the update percentiles over passes, and of simulation
    // runs.
    report_.metric("setup_s", percentile_of(setup_samples_, 50.0) / 1000.0, "s", lower);
    report_.metric("schedule_ms", percentile_of(schedule_samples_, 50.0), "ms", lower);
    report_.metric("update_ms_p50", median_over_passes(update_samples_, 50.0), "ms", lower);
    report_.metric("update_ms_p95", median_over_passes(update_samples_, 95.0), "ms", lower);
    report_.metric("gpus", fresh_gpus, "count", Better::kLower);
    report_.metric("gpus_after_churn", gpus_after_churn_, "count", Better::kLower);
    report_.metric("sim_requests_per_s", sim_request_rates_.p50(), "1/s", Better::kHigher);
    report_.metric("slo_compliance", sim_mean(&SimSummary::compliance), "ratio",
                   Better::kHigher);
    report_.metric("p99_over_slo", sim_mean(&SimSummary::p99_over_slo), "ratio", lower);
    report_.metric("ttft_ms_p50", sim_mean(&SimSummary::ttft_p50_ms), "ms", lower);
    report_.metric("ttft_ms_p99", sim_mean(&SimSummary::ttft_p99_ms), "ms", lower);
  }

  void layer_metrics(double fresh_gpus) {
    auto ms = [this](const char* name, double value) {
      report_.metric(name, value, "ms", Better::kLower);
    };
    ms("profiler.profile_ms", layer_median("profiler.profile_ms"));
    ms("profiler.surface_index_ms", layer_median("profiler.surface_index_ms"));
    ms("configurator.configure_ms", layer_median("configurator.configure_ms"));
    report_.metric("configurator.segments", configurator_segments_, "count", Better::kLower);
    ms("allocator.relocation_ms", layer_median("allocator.relocation_ms"));
    ms("allocator.optimization_ms", layer_median("allocator.optimization_ms"));
    report_.metric("allocator.gpus_relocation", gpus_relocation_, "count", Better::kLower);
    report_.metric("allocator.optimization_gain",
                   gpus_relocation_ <= 0.0 ? 0.0 : 1.0 - fresh_gpus / gpus_relocation_, "ratio",
                   Better::kHigher);
    ms("reconfigure.update_ms_p50", layer_median("reconfigure.update_ms"));
    ms("reconfigure.update_ms_p95", layer_percentile("reconfigure.update_ms", 95.0));
    report_.metric("reconfigure.touched_frac",
                   all_segments_ <= 0.0 ? 0.0 : touched_segments_ / all_segments_, "ratio",
                   Better::kLower);
    ms("live_update.apply_ms_p50", layer_median("live_update.apply_ms"));
    ms("live_update.apply_ms_p95", layer_percentile("live_update.apply_ms", 95.0));
    report_.metric("live_update.changed_units_frac",
                   scanned_units_ <= 0.0 ? 0.0 : changed_units_ / scanned_units_, "ratio",
                   Better::kHigher);
    ms("live_update.makespan_ms_p50", layer_median("live_update.makespan_ms"));
    ms("plan.to_deployment_ms_p50", layer_median("plan.to_deployment_ms"));
    ms("deployer.deploy_ms", layer_median("deployer.deploy_ms"));
    ms("des.run_ms", layer_median("des.run_ms"));
    const double events = sim_mean(&SimSummary::events);
    const double requests = sim_mean(&SimSummary::requests);
    report_.metric("des.events", events, "count", Better::kLower);
    report_.metric("des.events_per_request", requests <= 0.0 ? 0.0 : events / requests, "count",
                   Better::kLower);
    report_.metric("des.events_per_s", layer_median("des.events_per_s"), "1/s", Better::kHigher);
    ms("des.shard_busy_ms_max", layer_median("des.shard_busy_ms_max"));
    report_.metric("des.parallel_efficiency", layer_median("des.parallel_efficiency"), "ratio",
                   Better::kHigher);
    report_.metric("llm.generated_tokens", sim_mean(&SimSummary::generated_tokens), "count",
                   Better::kHigher);
    report_.metric("llm.rejected", sim_mean(&SimSummary::rejected), "count", Better::kLower);
    report_.metric("llm.evicted", sim_mean(&SimSummary::evicted), "count", Better::kLower);
    report_.metric("llm.kv_peak_mean", sim_mean(&SimSummary::kv_peak_mean), "ratio",
                   Better::kLower);
    report_.metric("llm.tokens_per_host_s", layer_median("llm.tokens_per_host_s"), "tokens/s",
                   Better::kHigher);
    report_.metric("llm.kv_loss_frac", sim_mean(&SimSummary::kv_loss_frac), "ratio",
                   Better::kLower);
  }

  /// The traced run's own checks: the update decomposition accounts for
  /// the update span, and the spans reach their file.
  void trace_checks() {
    const std::vector<SpanRecord>& spans = tracer_.spans();
    const std::vector<double> self = tracer_.self_ms();
    std::vector<double> update_self;
    std::vector<double> children_self;
    std::vector<double> children_of(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const int parent = spans[i].parent;
      if (parent >= 0 && std::string(spans[static_cast<std::size_t>(parent)].name) == "update") {
        children_of[static_cast<std::size_t>(parent)] += self[i];
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (std::string(spans[i].name) != "update") continue;
      update_self.push_back(self[i]);
      children_self.push_back(children_of[i]);
    }
    const double traced_p50 = percentile_of(update_samples_, 50.0);
    const double untraced_p50 = percentile_of(reference_update_samples_, 50.0);
    const double overhead_ms = traced_p50 - untraced_p50;
    const double unaccounted_ms = percentile_of(update_self, 50.0);
    report_.note("trace: update_ms_p50 traced " + fmt(traced_p50) + " ms, untraced " +
                 fmt(untraced_p50) + " ms, tracing overhead " + fmt(overhead_ms) + " ms");
    report_.note("trace: self time of reconfigure + to_deployment + live_update.apply p50 " +
                 fmt(percentile_of(children_self, 50.0)) + " ms; update span self time p50 " +
                 fmt(unaccounted_ms, 4) + " ms");
    report_.operation(unaccounted_ms <= std::max(std::abs(overhead_ms), 0.01 * untraced_p50),
                      "update spans leave " + fmt(unaccounted_ms, 4) +
                          " ms unaccounted, more than the tracing overhead");
    if (!options_.trace_out.empty()) {
      report_.operation(tracer_.write_jsonl(options_.trace_out),
                        "cannot write trace file " + options_.trace_out);
      report_.note("trace: " + std::to_string(spans.size()) + " spans written to " +
                   options_.trace_out);
    }
  }

  void add_notes(double fresh_gpus) {
    const std::string horizon =
        fmt(config_.horizon_ms / 1000.0, 2) + " s (+" + fmt(config_.warmup_ms / 1000.0, 2) +
        " s warm-up)";
    report_.note("workload " + std::string(config_.name) + " seed " +
                 std::to_string(options_.seed) + (options_.trace ? " (traced run)" : ""));
    report_.note("fleet: " + std::string(config_.scenario) + " x" + std::to_string(config_.fold) +
                 " = " + std::to_string(services_.size()) + " services, " + fmt(fresh_gpus, 0) +
                 " GPUs, " + std::to_string(fleet_->deployment.units.size()) +
                 " units in the fresh plan");
    report_.note("threads: pool " + std::to_string(pool_ ? pool_->size() : 0) +
                 " + calling thread (limit " + std::to_string(threads_) + " usable CPUs)");
    report_.note("set-up: " + std::to_string(setup_samples_.size()) + " builds, median " +
                 fmt(percentile_of(setup_samples_, 50.0) / 1000.0, 4) + " s");
    report_.note("plan: " + std::to_string(schedule_samples_.size()) +
                 " cold schedules (the median reported)");
    report_.note("churn: " + std::to_string(passes_done_) + " pass(es) of " +
                 std::to_string(kUpdatesPerPass) + " updates; " +
                 std::to_string(update_samples_.size()) +
                 " timed samples; percentiles per whole pass, median over passes; p95 leaves " +
                 std::to_string(kUpdatesPerPass * 5 / 100) +
                 " updates beyond it (p99 would leave under 10); fleet after churn " +
                 fmt(gpus_after_churn_, 0) + " GPUs");
    report_.note("serve: " + std::string(config_.serve_churned ? "churned" : "fresh") +
                 " fleet, " + std::to_string(served_deployment().gpu_count) + " GPUs, " +
                 std::to_string(served_deployment().units.size()) + " units, " +
                 std::to_string(config_.shards) + " shard(s), horizon " + horizon + ", " +
                 std::to_string(sim_runs_) + " runs over " +
                 std::to_string(sim_summaries_.size()) + " seeds, " +
                 fmt(sim_mean(&SimSummary::requests), 0) + " requests per run");
    report_.note("time: measured phases " + fmt(measured_ms_ / 1000.0, 2) + " s of a " +
                 fmt(options_.budget_ms / 1000.0, 0) + " s budget; whole run " +
                 fmt(total_ms_ / 1000.0, 2) + " s");
    report_.note("note: latencies, compliance and GPU counts come from the analytical A100 "
                 "performance model, which is not validated against A100 hardware; no "
                 "error figure is given.");
  }

  const WorkloadConfig& config_;
  const RunOptions& options_;
  Report& report_;
  Tracer tracer_;
  std::size_t threads_;
  std::unique_ptr<ThreadPool> pool_;  ///< null when the run has one thread
  std::vector<core::ServiceSpec> services_;
  bool streaming_ = false;   ///< bursty arrivals (Scenario::streaming)
  bool generative_ = false;  ///< LLM services: profile the LLM catalog
  std::unique_ptr<Fleet> fleet_;
  std::unique_ptr<LiveCluster> live_;
  std::uint64_t op_ = 1;
  std::uint64_t fresh_digest_ = 0;

  std::map<std::string, Samples> layer_;
  std::vector<double> setup_samples_;
  double measured_ms_ = 0.0;
  double total_ms_ = 0.0;
  std::vector<double> schedule_samples_;
  double configurator_segments_ = 0.0;
  double gpus_relocation_ = 0.0;

  std::vector<core::ServiceSpec> updates_;
  std::vector<double> update_samples_;
  std::vector<double> reference_update_samples_;
  std::unique_ptr<Pass> pass_;
  int passes_done_ = 0;
  int churn_steps_ = 0;
  double gpus_after_churn_ = 0.0;
  core::Deployment churned_;
  std::vector<core::ServiceSpec> churned_specs_;
  double touched_segments_ = 0.0;
  double all_segments_ = 0.0;
  double changed_units_ = 0.0;
  double scanned_units_ = 0.0;

  Samples sim_request_rates_;  ///< requests per host second, one per run
  int sim_runs_ = 0;
  std::vector<std::uint64_t> sim_digests_;  ///< one per simulated seed
  std::vector<SimSummary> sim_summaries_;
};

}  // namespace

bool known_workload(const std::string& name) { return find_config(name) != nullptr; }

void run_workload(const RunOptions& options, Report& report) {
  const WorkloadConfig* config = find_config(options.workload);
  if (config == nullptr) {
    report.operation(false, "unknown workload " + options.workload);
    return;
  }
  WorkloadRun run(*config, options, report);
  run.run();
}

}  // namespace e2e
