// MIG placement geometry for the A100: which instance profiles may start at
// which GPC slot, which slots each placement occupies, and enumeration of
// the 19 legal full-GPU configurations of the paper's Figure 1.
//
// Placement rules (matching the hardware and Section III-E1):
//   * 7 GPC instances start at slot 0 and occupy all slots.
//   * 4 GPC instances start at slot 0 and occupy slots 0-3.
//   * 3 GPC instances start at slot 0 (occupying slots 0-3: the fourth slot
//     is blocked by the memory-slice span, which is why the paper avoids
//     placing size-3 segments at slot 0) or at slot 4 (occupying 4-6).
//   * 2 GPC instances start at even slots 0, 2, or 4 (memory alignment).
//   * 1 GPC instances start at any slot 0-6.
//
// The geometry is data, not code: kProfileTable (the 5 A100 instance
// profiles) and kPlacementTable (their 14 legal placements) are constexpr
// tables, and every Figure 1 invariant -- placements fit the 7-slot die,
// slot masks are consistent with spans, the 3@0 memory-span exception,
// per-profile memory grants within the 8 memory slices, no two placements
// of the same profile overlapping -- is discharged by static_assert at
// compile time. Runtime placement code (and parva_audit rule R8 enforces
// this) consults these tables instead of re-hardcoding slot lists.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "gpu/arch.hpp"

namespace parva::gpu {

/// A concrete placement: instance size plus start slot.
struct Placement {
  int gpcs = 0;       ///< instance size in GPCs (1,2,3,4,7)
  int start_slot = 0; ///< first GPC slot occupied

  /// Number of consecutive slots this placement makes unavailable.
  /// Equals `gpcs` except for a 3-GPC instance at slot 0, which blocks
  /// slots 0-3 (span 4) due to its memory-slice footprint.
  constexpr int span() const { return (gpcs == 3 && start_slot == 0) ? 4 : gpcs; }

  /// Bitmask over the 7 slots this placement occupies.
  constexpr std::uint8_t slot_mask() const {
    return static_cast<std::uint8_t>(((1u << span()) - 1u) << start_slot);
  }

  bool operator==(const Placement&) const = default;
  auto operator<=>(const Placement&) const = default;
};

/// One A100 MIG instance profile (a row of the paper's Figure 1 legend).
struct ProfileSpec {
  int gpcs = 0;             ///< compute slices (profile size)
  int memory_slices = 0;    ///< memory slices granted (of kMemorySlices)
  double memory_gib = 0.0;  ///< memory grant, memory_slices * kMemorySliceGiB
  int placement_count = 0;  ///< legal placements of this profile (rows below)
};

/// One legal placement of a profile, with its derived footprint.
struct PlacementSpec {
  int gpcs = 0;
  int start_slot = 0;
  int span = 0;                ///< consecutive slots blocked (3@0 blocks 4)
  std::uint8_t slot_mask = 0;  ///< bits over the 7 GPC slots
};

/// The 5 A100 instance profiles: 1g.10gb, 2g.20gb, 3g.40gb, 4g.40gb,
/// 7g.80gb (paper Section II-B).
inline constexpr std::array<ProfileSpec, 5> kProfileTable = {{
    {1, 1, 10.0, 7},
    {2, 2, 20.0, 3},
    {3, 4, 40.0, 2},
    {4, 4, 40.0, 1},
    {7, 8, 80.0, 1},
}};

/// The 14 legal placements, grouped by profile, start slots ascending.
/// 5 profiles + 14 placements are the 19 geometry facts behind Figure 1.
inline constexpr std::array<PlacementSpec, 14> kPlacementTable = {{
    {1, 0, 1, 0x01}, {1, 1, 1, 0x02}, {1, 2, 1, 0x04}, {1, 3, 1, 0x08},
    {1, 4, 1, 0x10}, {1, 5, 1, 0x20}, {1, 6, 1, 0x40},
    {2, 0, 2, 0x03}, {2, 2, 2, 0x0c}, {2, 4, 2, 0x30},
    {3, 0, 4, 0x0f}, {3, 4, 3, 0x70},
    {4, 0, 4, 0x0f},
    {7, 0, 7, 0x7f},
}};

namespace detail {

// Start-slot views over kPlacementTable, in hardware order. Proved below to
// agree row-for-row with the placement table.
inline constexpr std::array<int, 1> kStarts7 = {0};
inline constexpr std::array<int, 1> kStarts4 = {0};
inline constexpr std::array<int, 2> kStarts3 = {0, 4};
inline constexpr std::array<int, 3> kStarts2 = {0, 2, 4};
inline constexpr std::array<int, 7> kStarts1 = {0, 1, 2, 3, 4, 5, 6};

// Preference order of Section III-E1: slot choices that keep space open for
// the high-demand sizes. Size 3 uses slot 4 ONLY: a 3-GPC instance at slot
// 0 blocks slot 3 through its memory-slice span (configurations 5-7 of
// Figure 1), "which can cause significant external fragmentation across
// multiple GPUs" — the allocator therefore declines 3@0 and leaves such
// GPUs to the Allocation Optimization stage, which re-expresses their
// segments into sizes 1-2 and consolidates. Size 2 prefers 0 then 2,
// leaving the right block for size 3; size 1 fills the left block 0-3
// before spilling into 4-6.
inline constexpr std::array<int, 1> kPref3 = {4};
inline constexpr std::array<int, 3> kPref2 = {0, 2, 4};
inline constexpr std::array<int, 7> kPref1 = {0, 1, 2, 3, 4, 5, 6};

}  // namespace detail

/// Start slots at which an instance of `gpcs` may legally begin, in
/// hardware order (not preference order). Empty for invalid sizes.
constexpr std::span<const int> legal_start_slots(int gpcs) {
  switch (gpcs) {
    case 7: return detail::kStarts7;
    case 4: return detail::kStarts4;
    case 3: return detail::kStarts3;
    case 2: return detail::kStarts2;
    case 1: return detail::kStarts1;
    default: return {};
  }
}

/// Start slots in the *preference order* of Section III-E1: the order that
/// minimises external fragmentation (e.g. size 3 prefers slot 4 over 0;
/// size 2 prefers slots 0/2 over 4; size 1 prefers 0-3 before 4-6).
constexpr std::span<const int> preferred_start_slots(int gpcs) {
  switch (gpcs) {
    case 7: return detail::kStarts7;
    case 4: return detail::kStarts4;
    case 3: return detail::kPref3;
    case 2: return detail::kPref2;
    case 1: return detail::kPref1;
    default: return {};
  }
}

/// The profile row for an instance size, or nullptr for invalid sizes.
constexpr const ProfileSpec* find_profile(int gpcs) {
  for (const ProfileSpec& profile : kProfileTable) {
    if (profile.gpcs == gpcs) return &profile;
  }
  return nullptr;
}

/// Validates a single placement in isolation: true exactly when the
/// placement is a row of kPlacementTable.
constexpr bool is_legal_placement(const Placement& placement) {
  for (const PlacementSpec& spec : kPlacementTable) {
    if (spec.gpcs == placement.gpcs && spec.start_slot == placement.start_slot) {
      return true;
    }
  }
  return false;
}

/// Given the current slot occupancy mask, returns the first preferred start
/// slot at which an instance of `gpcs` fits, or nullopt.
constexpr std::optional<int> find_start_slot(std::uint8_t occupied_mask, int gpcs) {
  for (int start : preferred_start_slots(gpcs)) {
    const Placement candidate{gpcs, start};
    if (candidate.start_slot + candidate.span() > kGpcSlots) continue;
    if ((occupied_mask & candidate.slot_mask()) == 0) return start;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Compile-time proofs of the Figure 1 invariants. Each proof is a constexpr
// predicate over the tables, discharged by static_assert: geometry bugs are
// build breaks, not runtime surprises.
// ---------------------------------------------------------------------------

namespace proof {

/// Every placement fits the 7-slot die: start >= 0, span >= 1,
/// start + span <= kGpcSlots (GPC sums never exceed 7).
constexpr bool placements_fit_die() {
  for (const PlacementSpec& p : kPlacementTable) {
    if (p.start_slot < 0 || p.span < 1) return false;
    if (p.start_slot + p.span > kGpcSlots) return false;
  }
  return true;
}

/// Stored slot masks equal the span window, and agree with Placement's own
/// mask arithmetic.
constexpr bool masks_consistent() {
  for (const PlacementSpec& p : kPlacementTable) {
    const auto expected =
        static_cast<std::uint8_t>(((1u << p.span) - 1u) << p.start_slot);
    if (p.slot_mask != expected) return false;
    if (p.slot_mask != Placement{p.gpcs, p.start_slot}.slot_mask()) return false;
    if (p.span != Placement{p.gpcs, p.start_slot}.span()) return false;
  }
  return true;
}

/// The span rule: span == gpcs except the 3@0 memory-slice exception.
constexpr bool span_rule() {
  for (const PlacementSpec& p : kPlacementTable) {
    const int expected = (p.gpcs == 3 && p.start_slot == 0) ? 4 : p.gpcs;
    if (p.span != expected) return false;
  }
  return true;
}

/// Profile rows are consistent: a legal size, memory grant within the 8
/// memory slices and equal to slices * 10 GiB, and placement_count matching
/// the actual number of kPlacementTable rows of that size.
constexpr bool profiles_consistent() {
  int total_placements = 0;
  for (const ProfileSpec& profile : kProfileTable) {
    if (!is_valid_instance_size(profile.gpcs)) return false;
    if (profile.memory_slices < 1 || profile.memory_slices > kMemorySlices) return false;
    if (profile.memory_gib != profile.memory_slices * kMemorySliceGiB) return false;
    if (profile.memory_gib != instance_memory_gib(profile.gpcs)) return false;
    int count = 0;
    for (const PlacementSpec& p : kPlacementTable) {
      if (p.gpcs == profile.gpcs) ++count;
    }
    if (count != profile.placement_count) return false;
    total_placements += count;
  }
  // Every placement row belongs to exactly one profile row.
  return total_placements == static_cast<int>(kPlacementTable.size());
}

/// Within each profile the placements are listed with strictly ascending
/// start slots (so there are no duplicates) and are pairwise disjoint: the
/// legal placements of one profile tile the die without overlap.
constexpr bool no_intra_profile_overlap() {
  for (std::size_t i = 0; i < kPlacementTable.size(); ++i) {
    for (std::size_t j = i + 1; j < kPlacementTable.size(); ++j) {
      const PlacementSpec& a = kPlacementTable[i];
      const PlacementSpec& b = kPlacementTable[j];
      if (a.gpcs != b.gpcs) continue;
      if (a.start_slot >= b.start_slot) return false;
      if ((a.slot_mask & b.slot_mask) != 0) return false;
    }
  }
  return true;
}

/// The start-slot views agree row-for-row with kPlacementTable.
constexpr bool start_slot_views_agree() {
  for (const ProfileSpec& profile : kProfileTable) {
    const std::span<const int> starts = legal_start_slots(profile.gpcs);
    if (static_cast<int>(starts.size()) != profile.placement_count) return false;
    std::size_t next = 0;
    for (const PlacementSpec& p : kPlacementTable) {
      if (p.gpcs != profile.gpcs) continue;
      if (next >= starts.size() || starts[next] != p.start_slot) return false;
      ++next;
    }
    if (next != starts.size()) return false;
    // Preferred order is a permutation of the legal starts.
    const std::span<const int> preferred = preferred_start_slots(profile.gpcs);
    for (const int start : preferred) {
      if (!is_legal_placement({profile.gpcs, start})) return false;
    }
    if (preferred.size() > starts.size()) return false;
  }
  return true;
}

/// First-fit monotonicity: occupying one more slot never creates a fit.
/// For every 7-bit mask, extra slot bit and instance size, a fit on the
/// fuller mask implies a fit on the original one. A GPU that cannot host a
/// size therefore keeps failing it while it only gains segments, which is
/// what lets DeploymentPlan::place_first_fit resume a scan mid-plan.
constexpr bool fit_is_monotone() {
  for (unsigned mask = 0; mask < (1u << kGpcSlots); ++mask) {
    for (int bit = 0; bit < kGpcSlots; ++bit) {
      const auto fuller = static_cast<std::uint8_t>(mask | (1u << bit));
      for (const int gpcs : kInstanceSizes) {
        if (find_start_slot(fuller, gpcs).has_value() &&
            !find_start_slot(static_cast<std::uint8_t>(mask), gpcs).has_value()) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace proof

static_assert(proof::placements_fit_die(),
              "MIG geometry: a placement exceeds the 7 GPC slots");
static_assert(proof::masks_consistent(),
              "MIG geometry: a stored slot mask disagrees with its span window");
static_assert(proof::span_rule(),
              "MIG geometry: span must equal gpcs except the 3@0 exception");
static_assert(proof::profiles_consistent(),
              "MIG geometry: profile memory grants or placement counts are wrong");
static_assert(proof::no_intra_profile_overlap(),
              "MIG geometry: same-profile placements must be disjoint and ascending");
static_assert(proof::start_slot_views_agree(),
              "MIG geometry: start-slot views disagree with kPlacementTable");
static_assert(proof::fit_is_monotone(),
              "MIG geometry: occupying a slot must never create a fit (first-fit cursor)");
static_assert(kProfileTable.size() + kPlacementTable.size() == 19,
              "MIG geometry: the A100 has 5 profiles and 14 placements (Fig. 1)");
static_assert(find_start_slot(0, 3).has_value() && *find_start_slot(0, 3) == 4,
              "MIG geometry: size 3 must prefer slot 4 (Section III-E1)");
static_assert(!find_start_slot(0x7f, 1).has_value(),
              "MIG geometry: a full die admits no further instance");

/// A full-GPU configuration: a set of non-overlapping placements.
struct GpuConfig {
  std::vector<Placement> placements;

  /// Combined slot occupancy mask.
  std::uint8_t slot_mask() const;
  /// Total GPCs allocated (note: a 3@0 placement allocates 3 GPCs while
  /// blocking 4 slots).
  int total_gpcs() const;
  /// True when every placement is legal and none overlap.
  bool valid() const;
  /// True when no further instance (of any size) can be added.
  bool maximal() const;

  std::string to_string() const;
};

/// Enumerates every maximal legal configuration. The result has exactly 19
/// entries, reproducing Figure 1 (verified by tests/gpu/mig_geometry_test).
std::vector<GpuConfig> enumerate_maximal_configs();

/// Enumerates every legal configuration (including non-maximal ones, e.g. a
/// lone 2-GPC instance). Used by the MIG-serving baseline's search.
std::vector<GpuConfig> enumerate_all_configs();

}  // namespace parva::gpu
