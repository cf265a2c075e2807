// The GPU Segment Allocator (paper Algorithm 2).
//
// Stage 1 — Segment Relocation: enqueue every service's segments into
// per-size queues, then ALLOCATION drains the queues largest-size-first,
// placing each segment on the first GPU (front to back) with a legal free
// slot under the Section III-E1 preference rules.
//
// Stage 2 — Allocation Optimization: walk GPUs from the back; on each GPU
// whose allocated GPC count is at or below the threshold (default 4,
// heuristically optimal per the paper), free its segments, re-express the
// freed throughput as size-1/2 segments from the service's optimal-triplet
// array, and re-run ALLOCATION so the small segments sink into earlier
// gaps. Surplus small-segment capacity carries to the next freed GPU
// through the freed_rate ledger. The optimized map is kept only when it
// does not use more GPUs than the relocation map (it cannot, but the guard
// makes the invariant explicit).
//
// GPU ids: a fresh plan leaves allocate() numbered 0..n-1. On a live map
// (reoptimize, used by the Reconfigurer) GPUs keep their ids, so only the
// segments that actually moved differ in the next deployment.
#pragma once

#include <deque>
#include <map>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "core/plan.hpp"
#include "core/service.hpp"

namespace parva::core {

struct AllocatorOptions {
  /// GPUs with at most this many allocated GPCs are treated as fragmented
  /// and dissolved by Allocation Optimization (paper fixes 4).
  int optimization_threshold_gpcs = 4;
  /// Disables stage 2, reproducing ParvaGPU-unoptimized.
  bool optimize = true;
};

class SegmentAllocator {
 public:
  explicit SegmentAllocator(AllocatorOptions options = {}) : options_(options) {}

  const AllocatorOptions& options() const { return options_; }

  /// Full Algorithm 2: relocation followed by optimization. GPU ids are
  /// dense, 0..n-1 in plan order.
  [[nodiscard]] Result<DeploymentPlan> allocate(std::span<const ConfiguredService> services) const;

  /// Stage 1 only (exposed for tests and the unoptimized variant). Appends
  /// GPUs only as segments land on them, so ids are dense and none is empty.
  [[nodiscard]] Result<DeploymentPlan> segment_relocation(std::span<const ConfiguredService> services) const;

  /// Stage 2 only, applied to a fresh map: reoptimize(), then renumber the
  /// GPUs densely (what allocate() returns for the same map).
  DeploymentPlan allocation_optimization(DeploymentPlan plan,
                                         std::span<const ConfiguredService> services) const;

  /// Stage 2 on a live map: the same placements as allocation_optimization,
  /// but GPUs keep their ids and emptied ones are dropped with theirs
  /// released (DeploymentPlan::compact), so nothing untouched is relabelled.
  DeploymentPlan reoptimize(DeploymentPlan plan, std::span<const ConfiguredService> services) const;

  /// Incremental placement used by the reconfiguration path (Section
  /// III-F): places one service's segments into an existing map without
  /// disturbing other services.
  [[nodiscard]] Status place_service(DeploymentPlan& plan, const ConfiguredService& service) const;

 private:
  /// Size-indexed segment queues (key = gpcs, drained in descending order).
  using SegmentQueues = std::map<int, std::deque<Segment>, std::greater<int>>;

  static void enqueue(SegmentQueues& queues, int service_id, const Triplet& triplet);
  static void enqueue_service(SegmentQueues& queues, const ConfiguredService& service);
  /// The ALLOCATION function: drains queues into the plan.
  static void run_allocation(SegmentQueues& queues, DeploymentPlan& plan);

  /// SMALLSEGMENTS: size-1/2 segments from the service's triplet array
  /// covering `rate`; empty when the service has no small triplet.
  static std::vector<Triplet> small_segments(const ConfiguredService& service, double rate);

  AllocatorOptions options_;
};

}  // namespace parva::core
