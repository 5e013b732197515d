// visibility.hpp — the dynamic communication graph G_t(r).
//
// Given the agents' positions at time t and a transmission radius r, the
// visibility graph has an edge between two agents iff their Manhattan
// distance is ≤ r (paper Sec. 2; the metric is configurable for ablation).
// We never materialize the full edge set: the consumers only need
// *connected components* (rumors flood a component within the step), so
// the builder unions agents directly into a DisjointSets via the spatial
// index.
//
// One structure and one pass serve every r ≥ 0 (r = 0 is co-location):
// build() sizes a BucketIndex with BucketIndex::side_for — bucket side
// max(r, 1, bit_floor(⌊√(n/k)⌋)), so at most about 4k buckets and O(k)
// memory and setup on any grid — and each scan *unit* is an occupied
// bucket paired with itself and its forward half-neighborhood (E, SW, S,
// SE), so every unordered in-range pair is covered by exactly one unit.
// At r = 0 the unit is its own bucket alone: co-located agents always
// share one. The pass walks the bucket rows as a rolling two-row window.
//
// Dirty-region component pass (PR 4): per scan unit the builder caches the
// *reduced spanning edges* — the subset of the unit's in-range pairs that
// survive a unit-local mini-DSU, at most (agents touched − 1) edges — in a
// compact double-buffered edge arena. On rebuild_components(), a unit
// whose scan footprint (its bucket + forward neighbors) contains no bucket
// dirtied since the previous rebuild replays its cached edges in O(edges);
// only dirty footprints re-enumerate pairs. The resulting partition is
// identical because a spanning subset of each unit's pair edges yields the
// same DSU components (property-tested against build_naive). When the
// dirty fraction is high (the all-move model dirties nearly every bucket
// every step) the pass adaptively *bypasses* the cache — no mini-DSU, no
// arena writes, no taint expansion, pairs united straight into the DSU —
// because replay could save nothing; the switch depends only on the
// (deterministic) dirty set, so trajectories are unaffected.
//
// The pass is serial: one thread per replication. Paper sweeps are
// many-replication work, and sim::ReplicationPool fills the cores with
// replications, so the component pass keeps a single execution mode and
// a single union sequence.
//
// Two usage protocols:
//  * build() — one-shot: size and (re)index the positions and compute
//    components.
//  * incremental — after build(), the caller moves agents by writing the
//    positions and calls rebuild_components(), which first catches the
//    index up (an O(k) compare of every position with the node the index
//    last saw; only the changed agents are relinked and dirty their
//    buckets) and then recomputes the partition from the index + edge
//    cache. That catch-up, or an earlier sync() between passes (the
//    exchange-free certificate's), is the only way the index learns of
//    moves.
//    Components cannot be maintained under edge *deletions*, so the DSU
//    is always recomputed; the savings are the spatial index and the
//    clean-region replay.
//
// ComponentStats summarizes a partition: component count, maximum size
// ("islands" of Definition 2 / Lemma 6), size histogram, and the largest
// component's fraction of all agents (the percolation order parameter).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/dsu.hpp"
#include "grid/grid.hpp"
#include "grid/point.hpp"
#include "obs/tally.hpp"
#include "spatial/bucket_index.hpp"

namespace smn::graph {

/// Largest grid side the pair scan supports. Coordinates then differ by at
/// most 2^30 − 1 per axis, so an L1 distance, at most 2^31 − 2, fits the
/// int32 lanes of range_filter.hpp. core::validate_config enforces it.
inline constexpr grid::Coord kMaxSide = grid::Coord{1} << 30;

/// Builds connected components of G_t(r) into `dsu` (which is reset).
/// Reusable across steps: keeps its spatial structures and edge cache
/// allocated.
class VisibilityGraphBuilder {
public:
    /// Cumulative scan telemetry. The unit- and pass-level counts are
    /// maintained unconditionally (tests assert on them in every build
    /// configuration); the per-pair and per-edge tallies compile out under
    /// -DSMN_DISABLE_OBS and then read zero.
    struct ScanStats {
        std::int64_t passes{0};            ///< component passes (any r)
        std::int64_t bypass_passes{0};     ///< passes that bypassed the edge cache
        std::int64_t replayed_units{0};    ///< units replayed from the cache
        std::int64_t rescanned_units{0};   ///< units re-enumerated
        std::int64_t dirty_buckets{0};     ///< dirty buckets consumed across passes
        std::int64_t pairs_tested{0};      ///< candidate pairs distance-tested
        std::int64_t pairs_survived{0};    ///< in-range pairs reaching the sink
        std::int64_t edges_cached{0};      ///< spanning edges written by rescans
        std::int64_t edges_replayed{0};    ///< spanning edges replayed from cache
    };

    /// `radius` is the transmission radius r >= 0; `metric` defaults to the
    /// paper's Manhattan metric. Allocates nothing grid-sized: build()
    /// sizes the index. Throws std::invalid_argument when r is negative or
    /// does not fit the scan's 32-bit lanes (r >= 2^31), or when a grid
    /// side exceeds kMaxSide.
    VisibilityGraphBuilder(const grid::Grid2D& grid, std::int64_t radius,
                           grid::Metric metric = grid::Metric::kManhattan);

    /// Computes the components of G_t(r) for the given positions, sizing
    /// the index for positions.size() agents (BucketIndex::side_for) and
    /// (re)indexing them from scratch. Postcondition:
    /// dsu.element_count() == positions.size().
    void build(std::span<const grid::Point> positions, DisjointSets& dsu);

    /// No-ops, kept because e2ebench/harness.cpp calls them: every pass
    /// closes its dirty epoch, so each step already starts a fresh one, and
    /// rebuild_components() finds every node change itself.
    void begin_step() noexcept {}
    void on_move(std::int32_t /*agent*/, grid::Point /*from*/, grid::Point /*to*/) noexcept {}

    /// Incremental protocol: catch the index up with `positions` (the same
    /// agents as the last build(), in any storage) and recompute the
    /// components from the index and the spanning-edge cache. Closes the
    /// dirty epoch. Throws std::invalid_argument when the agent count
    /// differs from the last build().
    void rebuild_components(std::span<const grid::Point> positions, DisjointSets& dsu);

    /// Catches the index up with `positions` outside a pass (same contract
    /// as rebuild_components) and returns it for queries. The dirty marks
    /// accumulate until the next pass consumes them, so that pass's own
    /// sync finds nothing new and its partition is unchanged.
    const spatial::BucketIndex& sync(std::span<const grid::Point> positions) {
        buckets_.sync(positions);
        return buckets_;
    }

    [[nodiscard]] std::int64_t radius() const noexcept { return radius_; }
    [[nodiscard]] grid::Metric metric() const noexcept { return metric_; }

    /// Enables wall-clock attribution of the rebuild's index-prep portion
    /// (index sync + taint expansion); read it via prep_seconds().
    void set_timing(bool on) noexcept { timing_ = on; }

    /// Cumulative seconds spent in index prep across all rebuilds (0 until
    /// set_timing(true)).
    [[nodiscard]] double prep_seconds() const noexcept { return prep_seconds_; }

    /// Scan units replayed from the edge cache / rescanned since
    /// construction (diagnostics; also exercised by tests).
    [[nodiscard]] std::int64_t replayed_units() const noexcept { return stats_.replayed_units; }
    [[nodiscard]] std::int64_t rescanned_units() const noexcept {
        return stats_.rescanned_units;
    }

    /// Full cumulative scan telemetry (see ScanStats).
    [[nodiscard]] const ScanStats& scan_stats() const noexcept { return stats_; }

    /// Telemetry of the underlying bucket index.
    [[nodiscard]] const spatial::BucketIndex::Stats& index_stats() const noexcept {
        return buckets_.stats();
    }

    /// Occupied scan units right now.
    [[nodiscard]] std::int64_t occupied_units() const noexcept {
        return static_cast<std::int64_t>(buckets_.occupied_bucket_count());
    }

    /// Brute-force O(k²) reference builder used by tests.
    static void build_naive(std::span<const grid::Point> positions, std::int64_t radius,
                            grid::Metric metric, DisjointSets& dsu);

private:
    /// One cached spanning edge (agent ids).
    struct CachedEdge {
        std::int32_t a;
        std::int32_t b;
    };

    /// Epoch-stamped mini-DSU over agent ids, local to one scan unit at a
    /// time (only used on the cached path).
    struct ScanScratch {
        std::vector<std::int32_t> parent;
        std::vector<std::uint64_t> stamp;
        std::uint64_t epoch{0};
    };

    /// One gathered row of buckets for the rolling-window scan:
    /// per-bucket slices (off[bx]..off[bx+1]) of ids and coordinates, in
    /// list order. Two of these cover a unit's whole footprint and
    /// stay L1-resident, so each agent's position is loaded from the
    /// random-access positions array exactly once per step.
    struct RowBuffer {
        std::vector<std::int32_t> off;  ///< size buckets_x + 1, prefix offsets
        std::vector<std::int32_t> ids;
        std::vector<grid::Coord> xs;
        std::vector<grid::Coord> ys;
        std::vector<grid::Coord> occ;  ///< the row's occupied bx, ascending
    };

    void component_pass(std::span<const grid::Point> positions, DisjointSets& dsu,
                        bool force_rescan);
    void expand_taint();
    template <grid::Metric M, bool kBypass>
    void row_window_pass(std::span<const grid::Point> positions, DisjointSets& dsu,
                         bool force_rescan);
    void gather_row(grid::Coord row, std::span<const grid::Point> positions, RowBuffer& buf);
    template <grid::Metric M>
    void enumerate_unit(const RowBuffer& self_row, const RowBuffer* south_row, grid::Coord bx,
                        std::vector<CachedEdge>& out, DisjointSets& dsu);
    void prepare_scratch(std::size_t k);
    void record_pair(std::int32_t a, std::int32_t b, std::vector<CachedEdge>& out,
                     DisjointSets& dsu);

    /// The replay-or-rescan step of the cached pass: replay `bucket`'s
    /// previous entry into the current arena and `dsu` if its footprint is
    /// clean, else run `rescan(arena)` (which must append the unit's
    /// surviving edges to the passed arena and unite them).
    template <typename Rescan>
    void replay_or_rescan(std::int64_t bucket, bool force_rescan, DisjointSets& dsu,
                          Rescan&& rescan) {
        const auto bi = static_cast<std::size_t>(bucket);
        const auto cur = static_cast<std::size_t>(seq_ & 1);
        auto& arena = arena_[cur];
        const auto start = arena.size();
        entry_off_[cur][bi] = static_cast<std::int32_t>(start);
        if (replayable(bucket, force_rescan)) {
            ++stats_.replayed_units;
            const auto prev = cur ^ 1;
            const auto* edges = arena_[prev].data() + entry_off_[prev][bi];
            const auto count = static_cast<std::size_t>(entry_len_[prev][bi]);
            SMN_TALLY(stats_.edges_replayed += static_cast<std::int64_t>(count));
            arena.insert(arena.end(), edges, edges + count);
            for (std::size_t e = 0; e < count; ++e) dsu.unite(edges[e].a, edges[e].b);
        } else {
            ++stats_.rescanned_units;
            rescan(arena);
            SMN_TALLY(stats_.edges_cached += static_cast<std::int64_t>(arena.size() - start));
        }
        entry_len_[cur][bi] = static_cast<std::int32_t>(arena.size() - start);
        entry_stamp_[bi] = seq_;
    }
    [[nodiscard]] bool replayable(std::int64_t bucket, bool force_rescan) const noexcept {
        return !force_rescan &&
               entry_stamp_[static_cast<std::size_t>(bucket)] == seq_ - 1 &&
               taint_stamp_[static_cast<std::size_t>(bucket)] != seq_;
    }
    [[nodiscard]] std::int32_t mini_find(std::int32_t x) noexcept;

    grid::Grid2D grid_;
    std::int64_t radius_;
    grid::Coord rad32_;  ///< radius_ as the lane kernels' int32
    grid::Metric metric_;
    spatial::BucketIndex buckets_;  ///< one bucket until build() sizes it
    /// Neighbor-bucket rings of a unit's footprint, ⌈r / bucket side⌉: 1,
    /// or 0 at r = 0, where co-located agents always share a bucket and
    /// the footprint is the unit's own bucket.
    grid::Coord reach_{1};

    // Spanning-edge cache: double-buffered arena + per-bucket entries.
    std::vector<CachedEdge> arena_[2];
    std::vector<std::int32_t> entry_off_[2];
    std::vector<std::int32_t> entry_len_[2];
    std::vector<std::uint64_t> entry_stamp_;  ///< bucket -> seq of last entry
    std::vector<std::uint64_t> taint_stamp_;  ///< bucket -> seq of last taint
    std::uint64_t seq_{0};                    ///< rebuild sequence number

    RowBuffer rows_[2];                 ///< rolling window of the scan
    std::vector<std::int32_t> pair_a_;  ///< bypass pair staging, first ids
    std::vector<std::int32_t> pair_b_;  ///< bypass pair staging, second ids
    ScanScratch scratch_;

    bool timing_{false};
    double prep_seconds_{0.0};
    ScanStats stats_;  ///< cumulative scan telemetry (see ScanStats)
};

/// Summary of a component partition of k agents.
struct ComponentStats {
    std::int64_t component_count{0};   ///< number of connected components
    std::int64_t max_size{0};          ///< largest component ("island") size
    double mean_size{0.0};             ///< average component size
    double largest_fraction{0.0};      ///< max_size / k, percolation order parameter
    std::vector<std::int64_t> size_histogram;  ///< index s → #components of size s (0 unused)

    /// Number of isolated agents (components of size 1).
    [[nodiscard]] std::int64_t singletons() const noexcept {
        return size_histogram.size() > 1 ? size_histogram[1] : 0;
    }
};

/// Computes statistics of the partition currently held by `dsu` into `out`,
/// reusing out.size_histogram and the caller-provided per-root size scratch
/// (resized as needed) — the allocation-free form for per-step observers.
void component_stats(DisjointSets& dsu, ComponentStats& out,
                     std::vector<std::int64_t>& root_size_scratch);

/// Allocating convenience form of the above.
[[nodiscard]] ComponentStats component_stats(DisjointSets& dsu);

/// Extracts the component label (root id) of each agent into `out` (resized
/// to the element count). Labels are root agent ids, not compacted.
void component_labels(DisjointSets& dsu, std::vector<std::int32_t>& out);

/// Allocating convenience form of the above.
[[nodiscard]] std::vector<std::int32_t> component_labels(DisjointSets& dsu);

}  // namespace smn::graph
