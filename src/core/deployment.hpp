// Framework-neutral deployment description. Every scheduler (ParvaGPU and
// the baselines) emits a Deployment; the metrics module and the
// discrete-event simulator consume it uniformly.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/service.hpp"
#include "gpu/mig_geometry.hpp"

namespace parva::core {

/// One serving unit: a MIG-backed GPU segment (ParvaGPU, MIG-serving) or an
/// MPS percentage partition (gpulet, iGniter).
struct DeployedUnit {
  int service_id = -1;
  std::string model;
  int gpu_index = -1;

  /// Compute grant in GPC units; fractional for percentage partitions.
  double gpc_grant = 0.0;
  /// Concrete MIG placement when the unit is instance-backed.
  std::optional<gpu::Placement> placement;

  int batch = 1;
  int procs = 1;

  /// The scheduler's belief about this unit (its profile/prediction).
  double planned_throughput = 0.0;
  double planned_latency_ms = 0.0;
  /// Ground truth under the unit's real co-location (equals planned for
  /// MIG-isolated units; inflated by true interference for MPS shares).
  double actual_throughput = 0.0;
  double actual_latency_ms = 0.0;

  /// SM busy fraction the unit achieves at full load (ground truth).
  double sm_occupancy = 0.0;
  double memory_gib = 0.0;

  int granted_sms() const;
};

/// A complete deployment across GPUs.
struct Deployment {
  std::string framework;
  bool uses_mig = false;
  /// Device span: every unit's gpu_index is below it. A fresh plan uses
  /// all of these devices; after live updates drop GPUs (ids stay stable)
  /// or a repair retires one, some may hold no unit. Count the GPUs that
  /// do with gpus_in_use().
  int gpu_count = 0;
  std::vector<DeployedUnit> units;

  /// Distinct GPUs holding at least one unit.
  int gpus_in_use() const;
  double total_granted_gpcs() const;
  std::vector<const DeployedUnit*> units_for_service(int service_id) const;
  /// Aggregate ground-truth capacity of a service across its units.
  double service_capacity(int service_id) const;
};

/// Outcome of one scheduling run.
struct ScheduleResult {
  Deployment deployment;
  double scheduling_delay_ms = 0.0;  ///< measured wall-clock of the algorithm
};

/// Abstract scheduler interface implemented by ParvaGPU, its variants, and
/// every baseline.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string name() const = 0;
  /// Produces a deployment for the services, or an error when the
  /// framework cannot handle the workload (e.g. iGniter at high rates).
  [[nodiscard]] virtual Result<ScheduleResult> schedule(std::span<const ServiceSpec> services) = 0;
};

}  // namespace parva::core
