// GPU utilisation metrics of the paper's evaluation:
//
//   Internal slack (Eq. 3):
//       1 - sum_i(SM_i * A_i) / sum_i(SM_i)
//   over deployed units i, where A_i is the unit's DCGM-style SM activity.
//   Analytically, A_i = occupancy_i * load_fraction_i: a unit is idle both
//   when its kernels cannot fill its grant (occupancy < 1) and when its
//   assigned load is below its capacity (over-provisioning).
//
//   External fragmentation (Eq. 4 complement):
//       1 - sum_i(SM_i) / (G * S)
//   the fraction of cluster SMs granted to nobody, over the G GPUs that
//   hold units (a device id a live update released is not a GPU).
#pragma once

#include <span>

#include "core/deployment.hpp"

namespace parva::core {

struct UtilizationMetrics {
  int gpu_count = 0;  ///< GPUs holding units (Deployment::gpus_in_use)
  double internal_slack = 0.0;          ///< [0,1]
  double external_fragmentation = 0.0;  ///< [0,1]
  double total_granted_gpcs = 0.0;
  /// Deployed units whose service_id had no ServiceSpec. Such units count
  /// as fully idle, which inflates internal_slack — nonzero here means the
  /// slack figure is measuring a mismatch, not over-provisioning (a
  /// warn-once log fires the first time it happens in a process).
  int units_without_spec = 0;
};

/// Computes the metrics analytically from the deployment and the offered
/// load (each service's rate is spread across its units proportionally to
/// their ground-truth capacity, which is how the serving layer dispatches).
UtilizationMetrics compute_metrics(const Deployment& deployment,
                                   std::span<const ServiceSpec> services);

/// Eq. 3 with externally measured activities (from the discrete-event
/// simulator's DCGM counters): activities[i] corresponds to units[i].
double internal_slack_from_activity(const Deployment& deployment,
                                    std::span<const double> activities);

}  // namespace parva::core
