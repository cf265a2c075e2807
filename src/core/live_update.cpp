#include "core/live_update.hpp"

#include <algorithm>
#include <set>

#include "common/logging.hpp"

namespace parva::core {
namespace {

/// Identity of a deployed unit for diffing purposes.
struct UnitKey {
  int service_id;
  int gpu_index;
  int gpcs;
  int start_slot;
  int batch;
  int procs;
  auto operator<=>(const UnitKey&) const = default;
};

UnitKey key_of(const DeployedUnit& unit) {
  return UnitKey{unit.service_id,
                 unit.gpu_index,
                 unit.placement.has_value() ? unit.placement->gpcs : -1,
                 unit.placement.has_value() ? unit.placement->start_slot : -1,
                 unit.batch,
                 unit.procs};
}

}  // namespace

Result<LiveUpdateReport> LiveUpdater::apply(const Deployment& current, DeployedState& state,
                                            const Deployment& target,
                                            UpdateStrategy strategy) {
  if (!current.uses_mig || !target.uses_mig) {
    return Error(ErrorCode::kUnsupported, "live update operates on MIG-backed deployments");
  }
  if (state.unit_instances.size() != current.units.size()) {
    return Error(ErrorCode::kInvalidArgument,
                 "DeployedState does not match the current deployment");
  }

  LiveUpdateReport report;

  // Diff: one sort-merge over (key, index) pairs; equal keys pair up in
  // index order and keep their instance. The rest are removed in ascending
  // current index and added in target order. Keys are unique under MIG
  // ((gpu, start_slot) cannot repeat), so each pair is the same unit.
  using Keyed = std::vector<std::pair<UnitKey, std::size_t>>;
  const auto keyed = [](const Deployment& deployment) {
    Keyed out;
    out.reserve(deployment.units.size());
    for (std::size_t i = 0; i < deployment.units.size(); ++i) {
      out.emplace_back(key_of(deployment.units[i]), i);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const Keyed current_keys = keyed(current);
  const Keyed target_keys = keyed(target);

  DeployedState next;
  next.unit_instances.resize(target.units.size());
  std::vector<bool> current_kept(current.units.size(), false);
  std::vector<bool> target_kept(target.units.size(), false);
  for (std::size_t c = 0, t = 0; c < current_keys.size() && t < target_keys.size();) {
    if (current_keys[c].first < target_keys[t].first) {
      ++c;
    } else if (target_keys[t].first < current_keys[c].first) {
      ++t;
    } else {
      const std::size_t from = current_keys[c++].second;
      const std::size_t to = target_keys[t++].second;
      next.unit_instances[to] = state.unit_instances[from];
      current_kept[from] = target_kept[to] = true;
      ++report.untouched_units;
    }
  }
  std::vector<std::size_t> to_remove;  // indices into current.units
  for (std::size_t i = 0; i < current.units.size(); ++i) {
    if (!current_kept[i]) to_remove.push_back(i);
  }
  std::vector<const DeployedUnit*> to_add;  // units of target not yet live
  for (std::size_t i = 0; i < target.units.size(); ++i) {
    if (!target_kept[i]) to_add.push_back(&target.units[i]);
  }
  report.removed_units = static_cast<int>(to_remove.size());
  report.added_units = static_cast<int>(to_add.size());

  // Services whose serving set changes.
  std::set<int> affected;
  for (std::size_t i : to_remove) affected.insert(current.units[i].service_id);
  for (const DeployedUnit* unit : to_add) affected.insert(unit->service_id);

  // Phase 0 (shadowed only): clone one serving segment per affected
  // service onto the spare pool: devices past both spans (gpu_count), so
  // past every gpu_index either deployment uses.
  const double per_unit_create =
      costs_.create_instance_ms + costs_.start_mps_ms + costs_.launch_process_ms;
  std::map<int, gpu::GlobalInstanceId> shadows;
  int spare_gpu = std::max(current.gpu_count, target.gpu_count);
  if (strategy == UpdateStrategy::kShadowed) {
    // Template per affected service, in one pass: its smallest current unit
    // (first on ties) so the shadow is cheap; new services have none.
    std::map<int, const DeployedUnit*> templates;
    for (const DeployedUnit& unit : current.units) {
      if (affected.count(unit.service_id) == 0) continue;
      const DeployedUnit*& tmpl = templates[unit.service_id];
      if (tmpl == nullptr || unit.gpc_grant < tmpl->gpc_grant) tmpl = &unit;
    }
    for (const auto& [service_id, tmpl] : templates) {
      Deployment shadow;
      shadow.uses_mig = true;
      shadow.gpu_count = spare_gpu + 1;
      DeployedUnit clone = *tmpl;
      clone.gpu_index = spare_gpu;
      clone.placement = gpu::Placement{tmpl->placement->gpcs, 0};
      // Place at the profile's first legal slot on the empty spare GPU.
      clone.placement->start_slot = gpu::legal_start_slots(clone.placement->gpcs).front();
      shadow.units.push_back(clone);
      auto deployed = deployer_->deploy(shadow);
      if (!deployed.ok()) continue;  // no spare capacity: in-place fallback
      shadows[service_id] = deployed.value().unit_instances.front();
      ++report.shadow_units;
      ++spare_gpu;
      report.makespan_ms += per_unit_create;
    }
  }

  // Phase 1: tear down the replaced segments (per-service downtime starts
  // here for unshadowed services).
  std::map<int, double> window_ms;  // rebuild window per service
  for (std::size_t i : to_remove) {
    const DeployedUnit& unit = current.units[i];
    const auto kill_ret = deployer_->nvml().kill_processes(state.unit_instances[i]);
    if (kill_ret != gpu::NvmlReturn::kSuccess) {
      // Keep going: destroy below reclaims the slice even if the kill failed.
      PARVA_LOG_WARN << "live update: kill_processes failed on gpu "
                     << state.unit_instances[i].gpu << ": "
                     << gpu::nvml_error_string(kill_ret);
    }
    const auto ret = deployer_->nvml().destroy_gpu_instance(state.unit_instances[i]);
    if (ret != gpu::NvmlReturn::kSuccess) {
      return Error(ErrorCode::kInternal, std::string("teardown failed: ") +
                                             gpu::nvml_error_string(ret));
    }
    window_ms[unit.service_id] += costs_.destroy_instance_ms;
  }

  // Phase 2: build the new segments.
  Deployment additions;
  additions.uses_mig = true;
  additions.gpu_count = target.gpu_count;
  for (const DeployedUnit* unit : to_add) additions.units.push_back(*unit);
  auto added = deployer_->deploy(additions);
  if (!added.ok()) return added.error();
  for (const DeployedUnit* unit : to_add) {
    window_ms[unit->service_id] += per_unit_create;
  }

  // Phase 3: drop the shadows (their teardown happens after traffic has
  // shifted back; it adds makespan but no downtime).
  for (const auto& [service_id, instance] : shadows) {
    const auto kill_ret = deployer_->nvml().kill_processes(instance);
    const auto destroy_ret = deployer_->nvml().destroy_gpu_instance(instance);
    if (kill_ret != gpu::NvmlReturn::kSuccess ||
        destroy_ret != gpu::NvmlReturn::kSuccess) {
      // Shadow teardown happens after traffic has shifted back, so a failure
      // leaks a slice but cannot affect serving: count it and keep going.
      ++report.shadow_teardown_failures;
      PARVA_LOG_WARN << "live update: shadow teardown failed for service " << service_id
                     << " (kill=" << gpu::nvml_error_string(kill_ret)
                     << ", destroy=" << gpu::nvml_error_string(destroy_ret) << ")";
    }
    report.makespan_ms += costs_.destroy_instance_ms;
  }

  // Accounting: shadowed services keep serving through the window.
  for (int service_id : affected) {
    const bool shadowed = shadows.count(service_id) != 0;
    report.downtime_ms[service_id] = shadowed ? 0.0 : window_ms[service_id];
    report.makespan_ms += window_ms[service_id];
  }

  // New state: kept instances (filled by the diff) plus the additions,
  // which the deployer returned in target order.
  std::size_t add_cursor = 0;
  for (std::size_t i = 0; i < target.units.size(); ++i) {
    if (target_kept[i]) continue;
    PARVA_CHECK(add_cursor < added.value().unit_instances.size(),
                "added instance bookkeeping mismatch");
    next.unit_instances[i] = added.value().unit_instances[add_cursor++];
  }
  state = std::move(next);
  return report;
}

}  // namespace parva::core
