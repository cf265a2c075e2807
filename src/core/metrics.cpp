#include "core/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "gpu/arch.hpp"

namespace parva::core {

UtilizationMetrics compute_metrics(const Deployment& deployment,
                                   std::span<const ServiceSpec> services) {
  UtilizationMetrics metrics;
  metrics.gpu_count = deployment.gpus_in_use();
  metrics.total_granted_gpcs = deployment.total_granted_gpcs();

  // One-time id -> spec map; the per-unit find_if this replaces made the
  // whole computation O(units x services).
  std::unordered_map<int, const ServiceSpec*> spec_by_id;
  spec_by_id.reserve(services.size());
  for (const ServiceSpec& spec : services) spec_by_id.emplace(spec.id, &spec);

  double granted_sms = 0.0;
  double busy_sms = 0.0;
  for (const DeployedUnit& unit : deployment.units) {
    // Load fraction: the share of this unit's capacity its service's rate
    // actually exercises. Units of one service all run at the same load
    // fraction because the dispatcher splits proportionally to capacity.
    double load_fraction = 0.0;
    const auto it = spec_by_id.find(unit.service_id);
    if (it != spec_by_id.end()) {
      const double capacity = deployment.service_capacity(unit.service_id);
      load_fraction = capacity <= 0.0 ? 0.0 : std::min(1.0, it->second->request_rate / capacity);
    } else {
      // A unit whose service has no spec contributes zero busy SM-time but
      // full granted SM-time, which silently inflates internal slack (the
      // typical cause: a fault shed a service's spec but its units were
      // passed in). Count it and warn once so the skew is visible.
      ++metrics.units_without_spec;
    }
    const double sms = unit.gpc_grant * gpu::kSmsPerGpc;
    granted_sms += sms;  // parva-audit: allow(R14): fixed vector index order
    busy_sms += sms * unit.sm_occupancy * load_fraction;
  }
  if (metrics.units_without_spec > 0) {
    static std::atomic<bool> warned{false};
    // relaxed: warn-once gate; the exchange is atomic and no other state
    // is published under the flag.
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      PARVA_LOG_WARN << "compute_metrics: " << metrics.units_without_spec
                     << " deployed unit(s) have no matching ServiceSpec; they count as "
                        "fully idle and inflate internal slack (warning once; see "
                        "UtilizationMetrics::units_without_spec)";
    }
  }
  metrics.internal_slack = granted_sms <= 0.0 ? 0.0 : 1.0 - busy_sms / granted_sms;

  const double cluster_sms =
      static_cast<double>(metrics.gpu_count) * gpu::kSmsPerGpu;
  metrics.external_fragmentation =
      cluster_sms <= 0.0 ? 0.0 : std::max(0.0, 1.0 - granted_sms / cluster_sms);
  return metrics;
}

double internal_slack_from_activity(const Deployment& deployment,
                                    std::span<const double> activities) {
  PARVA_REQUIRE(activities.size() == deployment.units.size(),
                "one activity sample per deployed unit required");
  double granted_sms = 0.0;
  double busy_sms = 0.0;
  for (std::size_t i = 0; i < deployment.units.size(); ++i) {
    const double sms = deployment.units[i].gpc_grant * gpu::kSmsPerGpc;
    granted_sms += sms;  // parva-audit: allow(R14): fixed vector index order
    busy_sms += sms * std::clamp(activities[i], 0.0, 1.0);
  }
  return granted_sms <= 0.0 ? 0.0 : 1.0 - busy_sms / granted_sms;
}

}  // namespace parva::core
