// bucket_index.hpp — spatial hash for radius queries (any r >= 0).
//
// Buckets the grid into squares of side `bucket_side` and answers "all
// agents within distance r of p" by scanning the block of buckets within
// ceil(r / bucket_side) of p's bucket — for every metric we support
// (L1 ≤ r, L∞ ≤ r, L2 ≤ r all imply per-axis offset ≤ r), so the scan is
// correct for ANY radius, not just radius ≤ bucket_side. r = 0 is the
// co-location query.
//
// Sizing: side_for() picks the bucket side from the agent density and the
// radius together, max(r, 1, bit_floor(⌊√(n/k)⌋)). The density term is
// the paper's length scale √(n/k) (the percolation radius r_c), so the
// index holds at most about 4k buckets and its memory and setup are O(k)
// whatever the grid size; the r term keeps every in-range pair within one
// bucket or two adjacent ones.
//
// The index is *incremental*: after a rebuild() it remembers the node at
// which it last saw each agent, and sync() compares every agent's
// position with its remembered node and relocates only those that changed
// (O(1) each: doubly linked intrusive lists) — an O(k) catch-up that lets
// the walk write positions without reporting each move. rebuild() remains
// the reference path for initialization and bulk repositioning.
//
// Dirty-step protocol: every relocation additionally stamps the source
// and destination buckets *dirty* for the current epoch (a within-bucket
// node change dirties its bucket too — positions inside a bucket decide
// edge existence). Consumers that cache per-bucket derived state (the
// visibility graph's spanning-edge cache) read `dirty_buckets()` to know
// exactly which neighborhoods changed since the last epoch boundary.
// `end_step()` closes the epoch after the dirty set has been consumed,
// which clears the set and opens a fresh one; rebuild() does the same.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "grid/grid.hpp"
#include "grid/point.hpp"
#include "obs/tally.hpp"

namespace smn::spatial {

/// Spatial hash over a Grid2D with square buckets.
class BucketIndex {
public:
    /// Telemetry tallies (zero under -DSMN_DISABLE_OBS); cumulative over
    /// the index's lifetime, never consulted by the index itself.
    struct Stats {
        std::int64_t moves{0};        ///< node changes applied by sync()
        std::int64_t relinks{0};      ///< node changes that crossed a bucket boundary
        std::int64_t dirty_marks{0};  ///< buckets stamped dirty (once per epoch)
        std::int64_t rebuilds{0};     ///< rebuild() calls
    };

    /// `bucket_side` must be >= 1. Radius queries work for any radius; the
    /// scan widens automatically when radius > bucket_side.
    BucketIndex(const grid::Grid2D& grid, grid::Coord bucket_side) : grid_{grid} {
        resize(bucket_side);
    }

    /// Convenience: index sized for radius-r queries (bucket side max(r,1)).
    static BucketIndex for_radius(const grid::Grid2D& grid, std::int64_t radius) {
        const auto side = static_cast<grid::Coord>(std::max<std::int64_t>(radius, 1));
        return BucketIndex{grid, side};
    }

    /// The bucket side for `k` agents and radius `radius` (0 <= radius <
    /// 2^31): max(r, 1, bit_floor(⌊√(n/k)⌋)). With r ≤ √(n/k) that is at
    /// most about 4k buckets (exactly ≤ 4k on power-of-two grid sides).
    [[nodiscard]] static grid::Coord side_for(const grid::Grid2D& grid, std::size_t k,
                                              std::int64_t radius) {
        const auto per_agent = grid.size() / std::max<std::int64_t>(static_cast<std::int64_t>(k), 1);
        const auto density = std::bit_floor(static_cast<std::uint64_t>(grid::isqrt(per_agent)));
        return static_cast<grid::Coord>(
            std::max({radius, std::int64_t{1}, static_cast<std::int64_t>(density)}));
    }

    /// Re-buckets the grid into squares of `bucket_side` (>= 1). Every
    /// agent is dropped, so rebuild() must follow; stats are kept.
    void resize(grid::Coord bucket_side) {
        if (bucket_side < 1) {
            throw std::invalid_argument("BucketIndex: bucket_side must be >= 1");
        }
        side_ = bucket_side;
        side_shift_ = std::has_single_bit(static_cast<std::uint32_t>(bucket_side))
                          ? std::countr_zero(static_cast<std::uint32_t>(bucket_side))
                          : -1;
        const auto per_axis = [&](grid::Coord extent) {
            return static_cast<grid::Coord>((std::int64_t{extent} + bucket_side - 1) / bucket_side);
        };
        buckets_x_ = per_axis(grid_.width());
        buckets_y_ = per_axis(grid_.height());
        head_.assign(bucket_count(), -1);
        dirty_stamp_.assign(bucket_count(), 0);
        next_.clear();
        prev_.clear();
        at_.clear();
        occupied_ = 0;
        clear_dirty();
    }

    [[nodiscard]] grid::Coord bucket_side() const noexcept { return side_; }
    [[nodiscard]] grid::Coord buckets_x() const noexcept { return buckets_x_; }
    [[nodiscard]] grid::Coord buckets_y() const noexcept { return buckets_y_; }
    [[nodiscard]] std::size_t bucket_count() const noexcept {
        return static_cast<std::size_t>(std::int64_t{buckets_x_} * buckets_y_);
    }

    /// Number of buckets currently holding at least one agent.
    [[nodiscard]] std::size_t occupied_bucket_count() const noexcept { return occupied_; }

    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

    /// Calls `fn(agent_id)` for every agent currently linked into `bucket`.
    template <typename Fn>
    void for_each_in_bucket(std::int64_t bucket, Fn&& fn) const {
        for (auto a = head_[static_cast<std::size_t>(bucket)]; a != -1;
             a = next_[static_cast<std::size_t>(a)]) {
            fn(a);
        }
    }

    // ------------------------------------------------------- dirty protocol

    /// Closes the epoch after the dirty set has been consumed.
    void end_step() noexcept { clear_dirty(); }

    /// Buckets stamped dirty since the last epoch boundary, in
    /// first-dirtied order, each at most once.
    [[nodiscard]] std::span<const std::int64_t> dirty_buckets() const noexcept {
        return dirty_list_;
    }

    /// True iff `bucket` was stamped dirty in the current epoch.
    [[nodiscard]] bool is_dirty(std::int64_t bucket) const noexcept {
        return dirty_stamp_[static_cast<std::size_t>(bucket)] == dirty_epoch_;
    }

    /// Rebuilds from current agent positions (index = agent id). The span's
    /// storage must stay alive and in place until the next rebuild() or
    /// sync(): queries read positions through it.
    void rebuild(std::span<const grid::Point> positions) {
        for (const auto p : at_) head_[bucket_of(p)] = -1;
        occupied_ = 0;
        clear_dirty();
        SMN_TALLY(++stats_.rebuilds);
        const auto k = positions.size();
        next_.assign(k, -1);
        prev_.assign(k, -1);
        at_.assign(positions.begin(), positions.end());
        points_ = positions;
        for (std::size_t a = 0; a < k; ++a) {
            link_front(static_cast<std::int32_t>(a), bucket_of(positions[a]));
        }
    }

    /// Catches the index up with `positions` (index = agent id, the same
    /// agents as the last rebuild()): relocates every agent whose node
    /// differs from the one it was last indexed at, stamping its source and
    /// destination buckets dirty (one bucket when both are the same), and
    /// makes `positions` the storage that queries read. O(k) compares plus
    /// O(1) per changed agent.
    void sync(std::span<const grid::Point> positions) {
        if (positions.size() != at_.size()) {
            throw std::invalid_argument("BucketIndex::sync: agent count differs from rebuild()");
        }
        points_ = positions;
        for (std::size_t a = 0; a < at_.size(); ++a) {
            if (positions[a] != at_[a]) relocate(static_cast<std::int32_t>(a), positions[a]);
        }
    }

    /// Calls `fn(agent_id)` for every agent within distance `radius` of `p`
    /// under `metric` (including agents exactly at distance radius and any
    /// agent co-located with p). Correct for any radius: the bucket scan
    /// widens to ceil(radius / bucket_side) rings as needed.
    template <typename Fn>
    void for_each_within(grid::Point p, std::int64_t radius, grid::Metric metric,
                         Fn&& fn) const {
        const auto reach = static_cast<grid::Coord>((radius + side_ - 1) / side_);
        const auto bx = p.x / side_;
        const auto by = p.y / side_;
        for (grid::Coord cy = std::max<grid::Coord>(0, by - reach);
             cy <= std::min<grid::Coord>(buckets_y_ - 1, by + reach); ++cy) {
            for (grid::Coord cx = std::max<grid::Coord>(0, bx - reach);
                 cx <= std::min<grid::Coord>(buckets_x_ - 1, bx + reach); ++cx) {
                for (auto a = head_[bucket_slot(cx, cy)]; a != -1;
                     a = next_[static_cast<std::size_t>(a)]) {
                    if (grid::within(p, points_[static_cast<std::size_t>(a)], radius, metric)) {
                        fn(a);
                    }
                }
            }
        }
    }

    /// Brute-force reference for testing: same contract as for_each_within.
    template <typename Fn>
    static void for_each_within_naive(std::span<const grid::Point> positions, grid::Point p,
                                      std::int64_t radius, grid::Metric metric, Fn&& fn) {
        for (std::size_t a = 0; a < positions.size(); ++a) {
            if (grid::within(p, positions[a], radius, metric)) {
                fn(static_cast<std::int32_t>(a));
            }
        }
    }

    [[nodiscard]] std::int64_t bucket_of(grid::Point p) const noexcept {
        assert(grid_.contains(p));
        return static_cast<std::int64_t>(bucket_slot(axis_bucket(p.x), axis_bucket(p.y)));
    }

private:
    [[nodiscard]] std::size_t bucket_slot(grid::Coord bx, grid::Coord by) const noexcept {
        return static_cast<std::size_t>(std::int64_t{by} * buckets_x_ + bx);
    }

    /// Bucket coordinate of axis value `v`: one shift for power-of-two
    /// sides (every density-sized side), a division otherwise.
    [[nodiscard]] grid::Coord axis_bucket(grid::Coord v) const noexcept {
        return side_shift_ >= 0 ? v >> side_shift_ : v / side_;
    }

    void relocate(std::int32_t agent, grid::Point to) {
        SMN_TALLY(++stats_.moves);
        const auto a = static_cast<std::size_t>(agent);
        const auto bucket = bucket_of(at_[a]);
        const auto target = bucket_of(to);
        at_[a] = to;
        mark_dirty(bucket);
        if (target == bucket) return;
        SMN_TALLY(++stats_.relinks);
        mark_dirty(target);
        // Unlink from the old bucket.
        const auto nxt = next_[a];
        const auto prv = prev_[a];
        if (prv != -1) {
            next_[static_cast<std::size_t>(prv)] = nxt;
        } else {
            head_[static_cast<std::size_t>(bucket)] = nxt;
            if (nxt == -1) --occupied_;
        }
        if (nxt != -1) prev_[static_cast<std::size_t>(nxt)] = prv;
        link_front(agent, target);
    }

    void link_front(std::int32_t agent, std::int64_t bucket) noexcept {
        const auto a = static_cast<std::size_t>(agent);
        auto& head = head_[static_cast<std::size_t>(bucket)];
        if (head == -1) {
            ++occupied_;
        } else {
            prev_[static_cast<std::size_t>(head)] = agent;
        }
        next_[a] = head;
        prev_[a] = -1;
        head = agent;
    }

    /// Stamps `bucket` dirty for the current epoch (idempotent per epoch).
    void mark_dirty(std::int64_t bucket) {
        auto& stamp = dirty_stamp_[static_cast<std::size_t>(bucket)];
        if (stamp == dirty_epoch_) return;
        stamp = dirty_epoch_;
        SMN_TALLY(++stats_.dirty_marks);
        dirty_list_.push_back(bucket);
    }

    /// Discards all dirty marks by opening a new epoch; O(1) amortized.
    void clear_dirty() noexcept {
        dirty_list_.clear();
        ++dirty_epoch_;
    }

    grid::Grid2D grid_;
    grid::Coord side_{1};
    int side_shift_{-1};  ///< log2(side_) when side_ is a power of two, else -1
    grid::Coord buckets_x_{0};
    grid::Coord buckets_y_{0};
    std::vector<std::int32_t> head_;          ///< bucket -> first agent
    std::vector<std::int32_t> next_;          ///< agent -> next in bucket
    std::vector<std::int32_t> prev_;          ///< agent -> previous in bucket
    std::vector<grid::Point> at_;             ///< agent -> node it was last indexed at
    std::size_t occupied_{0};                 ///< buckets with >= 1 agent
    std::vector<std::uint64_t> dirty_stamp_;  ///< bucket -> epoch of last dirty mark
    std::vector<std::int64_t> dirty_list_;    ///< buckets dirtied this epoch
    std::uint64_t dirty_epoch_{1};            ///< current epoch (0 = never dirty)
    std::span<const grid::Point> points_;     ///< view of the indexed storage
    Stats stats_;                             ///< telemetry tallies (obs/tally.hpp)
};

}  // namespace smn::spatial
