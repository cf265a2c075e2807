// The deployment map the GPU Segment Allocator produces: per-GPU segment
// placements validated against the MIG geometry (Table III's GPU object).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/service.hpp"
#include "gpu/mig_geometry.hpp"

namespace parva::core {

/// A segment pinned to a concrete placement on one GPU.
struct PlacedSegment {
  int service_id = -1;
  Triplet triplet;
  gpu::Placement placement;
};

/// One GPU in the deployment map.
class GpuPlan {
 public:
  explicit GpuPlan(int id) : id_(id) {}

  /// Device id: the GPU's identity for its whole life in a DeploymentPlan,
  /// emitted as DeployedUnit::gpu_index. Only DeploymentPlan assigns it.
  int id() const { return id_; }

  std::uint8_t occupied_mask() const { return occupied_mask_; }
  const std::vector<PlacedSegment>& segments() const { return segments_; }
  bool empty() const { return segments_.empty(); }

  /// GPCs allocated to segments (Table III num_gpcs).
  int allocated_gpcs() const;

  /// Slots this GPU has blocked (allocated plus geometry-unusable).
  int occupied_slots() const;

  bool can_fit(int gpcs) const {
    return gpu::find_start_slot(occupied_mask_, gpcs).has_value();
  }

  /// Places a segment at the first preferred legal slot; false if none.
  bool try_place(int service_id, const Triplet& triplet);

  /// Places a segment at an explicit start slot; false when the placement
  /// is illegal or overlaps. Lets baselines use their own slot orders.
  bool try_place_at(int service_id, const Triplet& triplet, int start_slot);

  /// Removes the segment at `index`, releasing its slots.
  PlacedSegment remove_segment(std::size_t index);

  std::string to_string() const;

 private:
  friend class DeploymentPlan;  // assigns ids

  int id_;
  std::uint8_t occupied_mask_ = 0;
  std::vector<PlacedSegment> segments_;
};

/// The full deployment map across GPUs. Vector order drives first-fit and
/// the optimization stage; ids are labels that stay fixed while GPUs come
/// and go, so a live update rebuilds only the segments that moved.
class DeploymentPlan {
 public:
  std::size_t gpu_count() const { return gpus_.size(); }
  const std::vector<GpuPlan>& gpus() const { return gpus_; }
  /// GPUs may gain and lose segments through this view; only add_gpu()
  /// appends one, so ids stay unique.
  std::span<GpuPlan> gpus() { return gpus_; }

  GpuPlan& gpu(std::size_t index) { return gpus_.at(index); }
  const GpuPlan& gpu(std::size_t index) const { return gpus_.at(index); }

  /// Places a segment on the first GPU at or after `from` that fits it,
  /// appending a new GPU when none does. Returns the GPU index used.
  /// The caller guarantees no GPU before `from` fits the segment's size;
  /// a GPU that failed a size keeps failing it while it only gains
  /// segments (gpu::proof::fit_is_monotone), so a caller that places
  /// same-size segments in a row may resume from the last index returned.
  std::size_t place_first_fit(int service_id, const Triplet& triplet, std::size_t from = 0);

  /// Appends an empty GPU under the lowest id compact() released, or else
  /// the next fresh id, and returns it.
  GpuPlan& add_gpu();

  /// Drops empty GPUs. The rest keep their ids and order; the dropped ids
  /// are released for add_gpu() to reuse.
  void compact();

  /// Relabels the GPUs 0..n-1 in order and forgets released ids: the dense
  /// numbering of a fresh plan, before any of it is deployed.
  void renumber();

  /// Total GPCs allocated across all GPUs.
  int total_allocated_gpcs() const;
  /// GPUs holding at least one segment.
  std::size_t gpus_in_use() const;

  /// All placed segments (position in gpus(), segment), in plan order.
  std::vector<std::pair<std::size_t, const PlacedSegment*>> all_segments() const;

  std::string to_string() const;

 private:
  std::vector<GpuPlan> gpus_;
  std::vector<int> released_ids_;  ///< min-heap (std::greater)
  int next_id_ = 0;                ///< one past every id handed out
};

}  // namespace parva::core
