#include "graph/visibility.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "graph/range_filter.hpp"

namespace smn::graph {
namespace {

/// Coordinate-wise in-range test (metric resolved at compile time), the
/// hot predicate of the pair scan. L1/L∞ stay in 32-bit arithmetic (grid
/// sides are at most kMaxSide = 2^30, so |dx|, |dy| < 2^30 and their sum
/// is added in 64 bits); squared Euclidean promotes to 64-bit.
template <grid::Metric M>
[[nodiscard]] inline bool within_coords(grid::Coord ax, grid::Coord ay, grid::Coord bx,
                                        grid::Coord by, std::int64_t radius) noexcept {
    if constexpr (M == grid::Metric::kEuclidean) {
        const std::int64_t dx = std::int64_t{ax} - bx;
        const std::int64_t dy = std::int64_t{ay} - by;
        return dx * dx + dy * dy <= radius * radius;
    } else {
        const std::int32_t dx = ax - bx;
        const std::int32_t dy = ay - by;
        const std::int32_t adx = dx < 0 ? -dx : dx;
        const std::int32_t ady = dy < 0 ? -dy : dy;
        if constexpr (M == grid::Metric::kManhattan) {
            return std::int64_t{adx} + ady <= radius;
        } else {
            return std::int64_t{adx > ady ? adx : ady} <= radius;
        }
    }
}

/// Mirror of the forward footprint (E, SW, S, SE): a dirty bucket taints
/// the units whose footprint contains it.
constexpr std::array<std::pair<grid::Coord, grid::Coord>, 4> kTaintBack{
    {{-1, 0}, {1, -1}, {0, -1}, {-1, -1}}};

}  // namespace

VisibilityGraphBuilder::VisibilityGraphBuilder(const grid::Grid2D& grid, std::int64_t radius,
                                               grid::Metric metric)
    : grid_{grid},
      radius_{radius},
      rad32_{static_cast<grid::Coord>(radius)},
      metric_{metric},
      buckets_{grid, std::max(grid.width(), grid.height())} {
    if (radius < 0 || radius > std::numeric_limits<grid::Coord>::max()) {
        throw std::invalid_argument("VisibilityGraphBuilder: radius " + std::to_string(radius) +
                                    " is outside [0, 2^31)");
    }
    if (grid.width() > kMaxSide || grid.height() > kMaxSide) {
        throw std::invalid_argument("VisibilityGraphBuilder: grid side above 2^30");
    }
}

void VisibilityGraphBuilder::build(std::span<const grid::Point> positions, DisjointSets& dsu) {
    // Every in-range pair lies in one bucket or two adjacent ones: the
    // side is at least r.
    const auto side = spatial::BucketIndex::side_for(grid_, positions.size(), radius_);
    if (side != buckets_.bucket_side() || entry_stamp_.empty()) {
        buckets_.resize(side);
        const auto bucket_count = buckets_.bucket_count();
        for (int i = 0; i < 2; ++i) {
            entry_off_[i].assign(bucket_count, 0);
            entry_len_[i].assign(bucket_count, 0);
        }
        entry_stamp_.assign(bucket_count, 0);
        taint_stamp_.assign(bucket_count, 0);
    }
    reach_ = static_cast<grid::Coord>((radius_ + side - 1) / side);
    buckets_.rebuild(positions);
    dsu.reset(positions.size());
    component_pass(positions, dsu, /*force_rescan=*/true);
}

void VisibilityGraphBuilder::rebuild_components(std::span<const grid::Point> positions,
                                                DisjointSets& dsu) {
    dsu.reset(positions.size());
    component_pass(positions, dsu, /*force_rescan=*/false);
}

void VisibilityGraphBuilder::component_pass(std::span<const grid::Point> positions,
                                            DisjointSets& dsu, bool force_rescan) {
    ++seq_;
    ++stats_.passes;
    // smn-lint: allow(wall-clock) timing-only telemetry, gated behind timing_
    using clock = std::chrono::steady_clock;
    const auto prep_begin = timing_ ? clock::now() : clock::time_point{};
    // The index catches up with every node change since the last pass.
    buckets_.sync(positions);
    stats_.dirty_buckets += static_cast<std::int64_t>(buckets_.dirty_buckets().size());
    // Bypass heuristic: once half the occupied buckets are dirty, taint
    // expansion makes nearly every footprint dirty anyway, so cache
    // maintenance can only cost. Build()s force a cached pass so the very
    // next step can already replay. The predicate reads only the
    // deterministic dirty set, and both branches emit the same unions.
    const bool bypass = !force_rescan &&
                        buckets_.dirty_buckets().size() * 2 >= buckets_.occupied_bucket_count();
    if (bypass) ++stats_.bypass_passes;
    if (!bypass && !force_rescan) expand_taint();
    if (timing_) {
        prep_seconds_ += std::chrono::duration<double>(clock::now() - prep_begin).count();
    }
    const auto dispatch = [&]<grid::Metric M>() {
        bypass ? row_window_pass<M, true>(positions, dsu, force_rescan)
               : row_window_pass<M, false>(positions, dsu, force_rescan);
    };
    switch (metric_) {
        case grid::Metric::kManhattan:
            dispatch.template operator()<grid::Metric::kManhattan>();
            break;
        case grid::Metric::kChebyshev:
            dispatch.template operator()<grid::Metric::kChebyshev>();
            break;
        case grid::Metric::kEuclidean:
            dispatch.template operator()<grid::Metric::kEuclidean>();
            break;
    }
    buckets_.end_step();  // the dirty epoch is consumed
}

/// Expands the dirty bucket set into taint stamps: a dirty bucket
/// invalidates its own scan unit plus the units whose forward footprint
/// contains it (its backward neighbors).
void VisibilityGraphBuilder::expand_taint() {
    const auto bx_count = buckets_.buckets_x();
    const auto by_count = buckets_.buckets_y();
    for (const auto d : buckets_.dirty_buckets()) {
        const auto dx0 = static_cast<grid::Coord>(d % bx_count);
        const auto dy0 = static_cast<grid::Coord>(d / bx_count);
        taint_stamp_[static_cast<std::size_t>(d)] = seq_;
        if (reach_ == 0) continue;
        for (const auto& [dx, dy] : kTaintBack) {
            const auto nx = dx0 + dx;
            const auto ny = dy0 + dy;
            if (nx < 0 || nx >= bx_count || ny < 0 || ny >= by_count) continue;
            taint_stamp_[static_cast<std::size_t>(std::int64_t{ny} * bx_count + nx)] = seq_;
        }
    }
}

void VisibilityGraphBuilder::prepare_scratch(std::size_t k) {
    scratch_.parent.resize(k);
    scratch_.stamp.resize(k, 0);
}

/// The cached path's pair sink: deduplicate through the unit-local
/// mini-DSU and keep only spanning survivors, which are united into the
/// DSU and appended to the unit's edge list `out`.
void VisibilityGraphBuilder::record_pair(std::int32_t a, std::int32_t b,
                                         std::vector<CachedEdge>& out, DisjointSets& dsu) {
    SMN_TALLY(++stats_.pairs_survived);
    const auto ra = mini_find(a);
    const auto rb = mini_find(b);
    if (ra == rb) return;
    scratch_.parent[static_cast<std::size_t>(rb)] = ra;
    out.push_back(CachedEdge{a, b});
    dsu.unite(a, b);
}

std::int32_t VisibilityGraphBuilder::mini_find(std::int32_t x) noexcept {
    auto xi = static_cast<std::size_t>(x);
    if (scratch_.stamp[xi] != scratch_.epoch) {
        scratch_.stamp[xi] = scratch_.epoch;
        scratch_.parent[xi] = x;
        return x;
    }
    // Path halving; every node on the path was stamped when first linked.
    while (scratch_.parent[xi] != x) {
        auto& p = scratch_.parent[xi];
        p = scratch_.parent[static_cast<std::size_t>(p)];
        x = p;
        xi = static_cast<std::size_t>(x);
    }
    return x;
}

/// Gathers one bucket row into `buf`: per-bucket slices in list order,
/// each agent's position read from the random-access storage exactly once.
void VisibilityGraphBuilder::gather_row(grid::Coord row, std::span<const grid::Point> positions,
                                        RowBuffer& buf) {
    const auto bx_count = buckets_.buckets_x();
    buf.off.resize(static_cast<std::size_t>(bx_count) + 1);
    // Sized once for the worst case (every agent in one row); the writes
    // below are then unchecked index stores instead of push_backs. The
    // extra kRangePad elements honor the masked in-range kernel's padding
    // contract (range_filter.hpp).
    if (buf.ids.size() < positions.size() + kRangePad) {
        buf.ids.resize(positions.size() + kRangePad);
        buf.xs.resize(positions.size() + kRangePad);
        buf.ys.resize(positions.size() + kRangePad);
    }
    const auto base = std::int64_t{row} * bx_count;
    buf.occ.clear();
    std::int32_t n = 0;
    for (grid::Coord bx = 0; bx < bx_count; ++bx) {
        const auto start = n;
        buf.off[static_cast<std::size_t>(bx)] = start;
        buckets_.for_each_in_bucket(base + bx, [&](std::int32_t a) {
            const auto p = positions[static_cast<std::size_t>(a)];
            const auto slot = static_cast<std::size_t>(n++);
            buf.ids[slot] = a;
            buf.xs[slot] = p.x;
            buf.ys[slot] = p.y;
        });
        if (n != start) buf.occ.push_back(bx);
    }
    buf.off[static_cast<std::size_t>(bx_count)] = n;
}

/// Rescans the unit of bucket `bx` of `self_row` on the cached path: its
/// in-range pairs (self, E, then the merged SW|S|SE range) go through the
/// unit-local mini-DSU, and the survivors are united into `dsu` and
/// appended to `out`. Every slice read is L1-resident; `south_row` is null
/// on the last bucket row and when the footprint is the unit's own bucket
/// alone (reach_ = 0), and the E neighbor is then skipped too.
template <grid::Metric M>
void VisibilityGraphBuilder::enumerate_unit(const RowBuffer& self_row,
                                            const RowBuffer* south_row, grid::Coord bx,
                                            std::vector<CachedEdge>& out, DisjointSets& dsu) {
    ++scratch_.epoch;
    const auto bx_count = buckets_.buckets_x();
    const auto off = static_cast<std::size_t>(self_row.off[static_cast<std::size_t>(bx)]);
    const auto end = static_cast<std::size_t>(self_row.off[static_cast<std::size_t>(bx) + 1]);

    const auto found = [&](std::int32_t a, std::int32_t b) { record_pair(a, b, out, dsu); };

    // Self pairs.
    SMN_TALLY(stats_.pairs_tested +=
              end - off >= 2 ? static_cast<std::int64_t>(end - off) *
                                   (static_cast<std::int64_t>(end - off) - 1) / 2
                             : 0);
    for (std::size_t i = off; i + 1 < end; ++i) {
        const auto xi = self_row.xs[i];
        const auto yi = self_row.ys[i];
        for (std::size_t j = i + 1; j < end; ++j) {
            if (within_coords<M>(xi, yi, self_row.xs[j], self_row.ys[j], radius_)) {
                found(self_row.ids[i], self_row.ids[j]);
            }
        }
    }

    /// Pairs the unit's slice against a contiguous range of a row buffer,
    /// neighbor-member outer; row buffers are bucket-ordered, so the
    /// merged SW|S|SE range enumerates SW, S, then SE members. Both shapes
    /// run the masked in-range kernel (range_filter.hpp) and walk the
    /// survivor bits in ascending lane order, the scalar loop's order.
    const auto cross_range = [&](const RowBuffer& row, std::size_t noff, std::size_t nend) {
        SMN_TALLY(stats_.pairs_tested +=
                  static_cast<std::int64_t>(nend - noff) * static_cast<std::int64_t>(end - off));
        if (end - off == 1) {
            // Single-occupant unit (the most common bucket at percolation
            // occupancy): hoist the self coords and sweep the neighbor
            // range 8 candidates per test.
            const auto xi = self_row.xs[off];
            const auto yi = self_row.ys[off];
            const auto id = self_row.ids[off];
            for (std::size_t j = noff; j < nend; j += kRangeLanes) {
                auto bits = in_range_mask8<M>(row.xs.data() + j, row.ys.data() + j,
                                              std::min(kRangeLanes, nend - j), xi, yi, rad32_);
                for (; bits != 0; bits &= bits - 1) {
                    const auto lane = static_cast<std::size_t>(std::countr_zero(bits));
                    found(id, row.ids[j + lane]);
                }
            }
            return;
        }
        for (std::size_t j = noff; j < nend; ++j) {
            const auto xj = row.xs[j];
            const auto yj = row.ys[j];
            const auto idj = row.ids[j];
            for (std::size_t i = off; i < end; i += kRangeLanes) {
                auto bits =
                    in_range_mask8<M>(self_row.xs.data() + i, self_row.ys.data() + i,
                                      std::min(kRangeLanes, end - i), xj, yj, rad32_);
                for (; bits != 0; bits &= bits - 1) {
                    const auto lane = static_cast<std::size_t>(std::countr_zero(bits));
                    found(self_row.ids[i + lane], idj);
                }
            }
        }
    };

    if (reach_ > 0 && bx + 1 < bx_count) {  // E
        cross_range(self_row,
                    static_cast<std::size_t>(self_row.off[static_cast<std::size_t>(bx) + 1]),
                    static_cast<std::size_t>(self_row.off[static_cast<std::size_t>(bx) + 2]));
    }
    if (south_row != nullptr) {  // SW | S | SE as one contiguous range
        const auto lo = static_cast<std::size_t>(bx > 0 ? bx - 1 : 0);
        const auto hi = static_cast<std::size_t>(bx + 1 < bx_count ? bx + 2 : bx + 1);
        cross_range(*south_row, static_cast<std::size_t>(south_row->off[lo]),
                    static_cast<std::size_t>(south_row->off[hi]));
    }
}

/// The component pass as a rolling two-row window: row R+1 is gathered
/// while row R's units are scanned, so the whole footprint of every unit
/// lives in two compact row buffers. Clean units replay from the previous
/// arena and dirty ones are rescanned (leaving fresh entries), or — with
/// kBypass — every unit's pairs go straight into the DSU with no cache
/// interaction at all. Entry stamps going stale under bypass is what makes
/// the next cached pass rescan everything once.
template <grid::Metric M, bool kBypass>
void VisibilityGraphBuilder::row_window_pass(std::span<const grid::Point> positions,
                                             DisjointSets& dsu, bool force_rescan) {
    if constexpr (!kBypass) {
        prepare_scratch(positions.size());
        arena_[seq_ & 1].clear();
    }

    const auto bx_count = buckets_.buckets_x();
    const auto by_count = buckets_.buckets_y();
    gather_row(0, positions, rows_[0]);
    std::int64_t units = 0;
    for (grid::Coord row = 0; row < by_count; ++row) {
        auto& self_row = rows_[static_cast<std::size_t>(row & 1)];
        RowBuffer* south_row = nullptr;
        if (row + 1 < by_count) {
            auto& next_row = rows_[static_cast<std::size_t>((row + 1) & 1)];
            gather_row(row + 1, positions, next_row);
            if (reach_ > 0) south_row = &next_row;
        }
        const auto base = std::int64_t{row} * bx_count;
        if constexpr (!kBypass) {
            for (const auto bx : self_row.occ) {
                replay_or_rescan(base + bx, force_rescan, dsu,
                                 [&](std::vector<CachedEdge>& arena_out) {
                                     enumerate_unit<M>(self_row, south_row, bx, arena_out, dsu);
                                 });
            }
        } else {
            // Bypass: enumerate the row's pairs into the staging arrays —
            // same pairs in the same order as enumerate_unit
            // (mask-compress keeps the ascending lane order), but with the
            // branchy survivor walks and DSU unions hoisted out of the
            // per-unit control flow. One tight union loop then drains the
            // row, preserving the global union sequence.
            units += static_cast<std::int64_t>(self_row.occ.size());
            std::size_t np = 0;
            const auto grown = [&](std::size_t need) {
                if (pair_a_.size() < need) {
                    pair_a_.resize(need * 2);
                    pair_b_.resize(need * 2);
                }
            };
            for (const auto bx : self_row.occ) {
                const auto o =
                    static_cast<std::size_t>(self_row.off[static_cast<std::size_t>(bx)]);
                const auto e =
                    static_cast<std::size_t>(self_row.off[static_cast<std::size_t>(bx) + 1]);
                if (e - o == 1) {
                    // Single-occupant unit, the common bucket at percolation
                    // occupancy: two masked sweeps, E then the merged
                    // SW|S|SE range, against the hoisted self point.
                    const auto xi = self_row.xs[o];
                    const auto yi = self_row.ys[o];
                    const auto id = self_row.ids[o];
                    const auto sweep = [&](const RowBuffer& nrow, std::size_t j0,
                                           std::size_t j1) {
                        SMN_TALLY(stats_.pairs_tested += static_cast<std::int64_t>(j1 - j0));
                        for (std::size_t j = j0; j < j1; j += kRangeLanes) {
                            const auto bits =
                                in_range_mask8<M>(nrow.xs.data() + j, nrow.ys.data() + j,
                                                  std::min(kRangeLanes, j1 - j), xi, yi, rad32_);
                            grown(np + kRangeLanes);
                            util::simd::I32x8::splat(id).store(pair_a_.data() + np);
                            np += compress_store8(bits, nrow.ids.data() + j,
                                                  pair_b_.data() + np);
                        }
                    };
                    if (reach_ > 0 && bx + 1 < bx_count) {
                        sweep(self_row, e,
                              static_cast<std::size_t>(
                                  self_row.off[static_cast<std::size_t>(bx) + 2]));
                    }
                    if (south_row != nullptr) {
                        const auto lo = static_cast<std::size_t>(bx > 0 ? bx - 1 : 0);
                        const auto hi = static_cast<std::size_t>(bx + 1 < bx_count ? bx + 2
                                                                                   : bx + 1);
                        sweep(*south_row, static_cast<std::size_t>(south_row->off[lo]),
                              static_cast<std::size_t>(south_row->off[hi]));
                    }
                } else {
                    // Multi-occupant unit: scalar self pairs, then the
                    // neighbor-member-outer masked sweeps over the self
                    // slice — the general cross_range shape.
                    SMN_TALLY(stats_.pairs_tested += static_cast<std::int64_t>(e - o) *
                                                      (static_cast<std::int64_t>(e - o) - 1) / 2);
                    for (std::size_t i = o; i + 1 < e; ++i) {
                        const auto xi = self_row.xs[i];
                        const auto yi = self_row.ys[i];
                        for (std::size_t j = i + 1; j < e; ++j) {
                            if (within_coords<M>(xi, yi, self_row.xs[j], self_row.ys[j],
                                                 radius_)) {
                                grown(np + 1);
                                pair_a_[np] = self_row.ids[i];
                                pair_b_[np] = self_row.ids[j];
                                ++np;
                            }
                        }
                    }
                    const auto cross = [&](const RowBuffer& nrow, std::size_t j0,
                                           std::size_t j1) {
                        SMN_TALLY(stats_.pairs_tested += static_cast<std::int64_t>(j1 - j0) *
                                                          static_cast<std::int64_t>(e - o));
                        for (std::size_t j = j0; j < j1; ++j) {
                            const auto xj = nrow.xs[j];
                            const auto yj = nrow.ys[j];
                            const auto idj = nrow.ids[j];
                            for (std::size_t i = o; i < e; i += kRangeLanes) {
                                const auto bits = in_range_mask8<M>(
                                    self_row.xs.data() + i, self_row.ys.data() + i,
                                    std::min(kRangeLanes, e - i), xj, yj, rad32_);
                                grown(np + kRangeLanes);
                                util::simd::I32x8::splat(idj).store(pair_b_.data() + np);
                                np += compress_store8(bits, self_row.ids.data() + i,
                                                      pair_a_.data() + np);
                            }
                        }
                    };
                    if (reach_ > 0 && bx + 1 < bx_count) {
                        cross(self_row, e,
                              static_cast<std::size_t>(
                                  self_row.off[static_cast<std::size_t>(bx) + 2]));
                    }
                    if (south_row != nullptr) {
                        const auto lo = static_cast<std::size_t>(bx > 0 ? bx - 1 : 0);
                        const auto hi = static_cast<std::size_t>(bx + 1 < bx_count ? bx + 2
                                                                                   : bx + 1);
                        cross(*south_row, static_cast<std::size_t>(south_row->off[lo]),
                              static_cast<std::size_t>(south_row->off[hi]));
                    }
                }
            }
            // The staged pairs arrive in runs sharing their a side (one
            // sweep's survivors splat the same id), so a's root is found
            // once per run and carried through unite_root — the same link
            // sequence unite() would produce, minus the repeated finds.
            SMN_TALLY(stats_.pairs_survived += static_cast<std::int64_t>(np));
            std::int32_t last_a = -1;
            std::int32_t root_a = -1;
            for (std::size_t i = 0; i < np; ++i) {
                const auto a = pair_a_[i];
                if (a != last_a) {
                    last_a = a;
                    root_a = dsu.find(a);
                }
                root_a = dsu.unite_root(root_a, pair_b_[i]);
            }
        }
    }
    if constexpr (kBypass) stats_.rescanned_units += units;
}

void VisibilityGraphBuilder::build_naive(std::span<const grid::Point> positions,
                                         std::int64_t radius, grid::Metric metric,
                                         DisjointSets& dsu) {
    dsu.reset(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
        for (std::size_t j = i + 1; j < positions.size(); ++j) {
            if (grid::within(positions[i], positions[j], radius, metric)) {
                dsu.unite(static_cast<std::int32_t>(i), static_cast<std::int32_t>(j));
            }
        }
    }
}

void component_stats(DisjointSets& dsu, ComponentStats& out,
                     std::vector<std::int64_t>& root_size_scratch) {
    out.component_count = 0;
    out.max_size = 0;
    out.mean_size = 0.0;
    out.largest_fraction = 0.0;
    out.size_histogram.clear();
    const auto k = dsu.element_count();
    if (k == 0) return;

    root_size_scratch.assign(k, 0);
    for (std::size_t a = 0; a < k; ++a) {
        ++root_size_scratch[static_cast<std::size_t>(dsu.find(static_cast<std::int32_t>(a)))];
    }

    std::int64_t count = 0;
    std::int64_t max_size = 0;
    for (const auto s : root_size_scratch) {
        if (s == 0) continue;
        ++count;
        max_size = std::max(max_size, s);
    }
    out.component_count = count;
    out.max_size = max_size;
    out.mean_size = static_cast<double>(k) / static_cast<double>(count);
    out.largest_fraction = static_cast<double>(max_size) / static_cast<double>(k);

    out.size_histogram.assign(static_cast<std::size_t>(max_size) + 1, 0);
    for (const auto s : root_size_scratch) {
        if (s > 0) ++out.size_histogram[static_cast<std::size_t>(s)];
    }
}

ComponentStats component_stats(DisjointSets& dsu) {
    ComponentStats stats;
    std::vector<std::int64_t> scratch;
    component_stats(dsu, stats, scratch);
    return stats;
}

void component_labels(DisjointSets& dsu, std::vector<std::int32_t>& out) {
    out.resize(dsu.element_count());
    for (std::size_t a = 0; a < out.size(); ++a) {
        out[a] = dsu.find(static_cast<std::int32_t>(a));
    }
}

std::vector<std::int32_t> component_labels(DisjointSets& dsu) {
    std::vector<std::int32_t> labels;
    component_labels(dsu, labels);
    return labels;
}

}  // namespace smn::graph
