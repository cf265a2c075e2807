#include "core/deployment.hpp"

#include <algorithm>
#include <cmath>

#include "gpu/arch.hpp"

namespace parva::core {

int DeployedUnit::granted_sms() const {
  return static_cast<int>(std::lround(gpc_grant * gpu::kSmsPerGpc));
}

int Deployment::gpus_in_use() const {
  std::vector<int> gpus;
  gpus.reserve(units.size());
  for (const auto& unit : units) gpus.push_back(unit.gpu_index);
  std::sort(gpus.begin(), gpus.end());
  return static_cast<int>(std::unique(gpus.begin(), gpus.end()) - gpus.begin());
}

double Deployment::total_granted_gpcs() const {
  double total = 0.0;
  // parva-audit: allow(R14): summed in fixed vector index order.
  for (const auto& unit : units) total += unit.gpc_grant;
  return total;
}

std::vector<const DeployedUnit*> Deployment::units_for_service(int service_id) const {
  std::vector<const DeployedUnit*> out;
  for (const auto& unit : units) {
    if (unit.service_id == service_id) out.push_back(&unit);
  }
  return out;
}

double Deployment::service_capacity(int service_id) const {
  double total = 0.0;
  for (const auto& unit : units) {
    // parva-audit: allow(R14): summed in fixed vector index order.
    if (unit.service_id == service_id) total += unit.actual_throughput;
  }
  return total;
}

}  // namespace parva::core
