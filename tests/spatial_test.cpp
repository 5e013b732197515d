// spatial_test.cpp — BucketIndex, including randomized equivalence
// against the brute-force reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "grid/grid.hpp"
#include "rng/rng.hpp"
#include "spatial/bucket_index.hpp"
#include "walk/ensemble.hpp"

namespace smn::spatial {
namespace {

using grid::Grid2D;
using grid::Metric;
using grid::Point;

// ----------------------------------------------------------- BucketIndex

TEST(Bucket, RejectsBadSide) {
    const auto g = Grid2D::square(8);
    EXPECT_THROW(BucketIndex(g, 0), std::invalid_argument);
}

TEST(Bucket, ForRadiusClampsToOne) {
    const auto g = Grid2D::square(8);
    const auto idx = BucketIndex::for_radius(g, 0);
    EXPECT_EQ(idx.bucket_side(), 1);
}

// The sizing rule max(r, 1, bit_floor(⌊√(n/k)⌋)): never narrower than r
// (every in-range pair lies in one bucket or two adjacent ones), and at
// most about 4k buckets while r ≤ √(n/k). On power-of-two sides the axis
// count is side/s < 2√k exactly, so the bound is 4k; other sides add at
// most one partial bucket per axis.
TEST(Bucket, SideForKeepsRadiusAndBoundsBucketsByAgents) {
    for (const grid::Coord side : {1, 7, 64, 100, 256, 1000, 1024, 4096, 1 << 30}) {
        const auto g = Grid2D::square(side);
        for (const std::size_t k : {1, 2, 3, 10, 64, 1000, 4096, 100000}) {
            const auto per_agent = g.size() / static_cast<std::int64_t>(k);
            for (const std::int64_t r : {0, 1, 2, 3, 4, 5, 16, 1000}) {
                SCOPED_TRACE("side " + std::to_string(side) + ", k " + std::to_string(k) +
                             ", r " + std::to_string(r));
                const auto s = BucketIndex::side_for(g, k, r);
                EXPECT_GE(s, std::max<std::int64_t>(r, 1));
                if (r * r > per_agent) continue;
                const auto per_axis = (std::int64_t{side} + s - 1) / s;
                const auto count = static_cast<double>(per_axis * per_axis);
                const auto kd = static_cast<double>(k);
                if ((side & (side - 1)) == 0) {
                    EXPECT_LE(count, 4.0 * kd);
                } else {
                    EXPECT_LT(count, std::pow(2.0 * std::sqrt(kd) + 1.0, 2.0));
                }
            }
        }
    }
    // The percolation scale of the dense benchmark control (side 256,
    // k 4096, r_c 4) keeps its bucket side of 4.
    EXPECT_EQ(BucketIndex::side_for(Grid2D::square(256), 4096, 4), 4);
}

TEST(Bucket, FindsSelfAndExcludesFar) {
    const auto g = Grid2D::square(20);
    auto idx = BucketIndex::for_radius(g, 3);
    const std::vector<Point> pos{{5, 5}, {6, 5}, {19, 19}};
    idx.rebuild(pos);
    std::set<std::int32_t> seen;
    idx.for_each_within({5, 5}, 3, Metric::kManhattan,
                        [&](std::int32_t a) { seen.insert(a); });
    EXPECT_EQ(seen, (std::set<std::int32_t>{0, 1}));
}

TEST(Bucket, RadiusBoundaryIsInclusive) {
    const auto g = Grid2D::square(20);
    auto idx = BucketIndex::for_radius(g, 4);
    const std::vector<Point> pos{{5, 5}, {9, 5}, {10, 5}};
    idx.rebuild(pos);
    std::set<std::int32_t> seen;
    idx.for_each_within({5, 5}, 4, Metric::kManhattan,
                        [&](std::int32_t a) { seen.insert(a); });
    EXPECT_TRUE(seen.count(1));   // distance exactly 4
    EXPECT_FALSE(seen.count(2));  // distance 5
}

// Randomized equivalence with the brute-force scan, across metrics, radii,
// grid shapes and densities. This is the load-bearing test for visibility
// graph correctness.
struct BucketSweepParam {
    grid::Coord side;
    int agents;
    std::int64_t radius;
    Metric metric;
};

class BucketSweep : public ::testing::TestWithParam<BucketSweepParam> {};

TEST_P(BucketSweep, MatchesNaiveReference) {
    const auto param = GetParam();
    const auto g = Grid2D::square(param.side);
    rng::Rng rng{static_cast<std::uint64_t>(param.side * 1000 + param.agents)};
    auto idx = BucketIndex::for_radius(g, param.radius);

    for (int round = 0; round < 10; ++round) {
        std::vector<Point> pos;
        pos.reserve(static_cast<std::size_t>(param.agents));
        for (int i = 0; i < param.agents; ++i) {
            pos.push_back(walk::AgentEnsemble::random_node(g, rng));
        }
        idx.rebuild(pos);
        // Probe from each agent position plus a few random nodes.
        std::vector<Point> probes(pos.begin(), pos.end());
        for (int i = 0; i < 5; ++i) probes.push_back(walk::AgentEnsemble::random_node(g, rng));
        for (const auto& probe : probes) {
            std::set<std::int32_t> fast;
            std::set<std::int32_t> slow;
            idx.for_each_within(probe, param.radius, param.metric,
                                [&](std::int32_t a) { fast.insert(a); });
            BucketIndex::for_each_within_naive(pos, probe, param.radius, param.metric,
                                               [&](std::int32_t a) { slow.insert(a); });
            EXPECT_EQ(fast, slow) << "probe " << probe << " radius " << param.radius
                                  << " metric " << grid::metric_name(param.metric);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    RadiiAndMetrics, BucketSweep,
    ::testing::Values(
        BucketSweepParam{16, 12, 1, Metric::kManhattan},
        BucketSweepParam{16, 12, 2, Metric::kManhattan},
        BucketSweepParam{16, 40, 3, Metric::kManhattan},
        BucketSweepParam{16, 40, 5, Metric::kChebyshev},
        BucketSweepParam{16, 40, 4, Metric::kEuclidean},
        BucketSweepParam{32, 80, 7, Metric::kManhattan},
        BucketSweepParam{32, 80, 7, Metric::kEuclidean},
        BucketSweepParam{7, 20, 6, Metric::kManhattan},   // bucket grid ~1×1
        BucketSweepParam{5, 10, 5, Metric::kChebyshev},   // radius = side
        BucketSweepParam{64, 5, 20, Metric::kManhattan},  // sparse, big radius
        BucketSweepParam{64, 200, 1, Metric::kManhattan}  // dense, tiny radius
        ));

TEST(Bucket, RebuildClearsPreviousState) {
    const auto g = Grid2D::square(16);
    auto idx = BucketIndex::for_radius(g, 2);
    std::vector<Point> pos{{3, 3}, {4, 4}};
    idx.rebuild(pos);
    std::vector<Point> pos2{{12, 12}};
    idx.rebuild(pos2);
    int found = 0;
    idx.for_each_within({3, 3}, 2, Metric::kManhattan, [&](std::int32_t) { ++found; });
    EXPECT_EQ(found, 0);
    idx.for_each_within({12, 12}, 2, Metric::kManhattan, [&](std::int32_t) { ++found; });
    EXPECT_EQ(found, 1);
}

// -------------------------------------------------- co-location (r = 0)
//
// At r = 0 the visibility builder uses the density-sized index for
// co-location: a bucket may span several nodes, so the r = 0 query must
// filter its bucket down to the agents on exactly that node.

/// Agents the r = 0 query reports at `p`.
std::set<std::int32_t> colocated_at(const BucketIndex& idx, Point p) {
    std::set<std::int32_t> seen;
    idx.for_each_within(p, 0, Metric::kManhattan, [&](std::int32_t a) { seen.insert(a); });
    return seen;
}

TEST(BucketColocation, GroupsColocatedAgents) {
    const auto g = Grid2D::square(5);
    const std::vector<Point> pos{{1, 1}, {2, 2}, {1, 1}, {0, 0}, {1, 1}};
    BucketIndex idx{g, BucketIndex::side_for(g, pos.size(), 0)};
    ASSERT_EQ(idx.bucket_side(), 2);
    idx.rebuild(pos);
    EXPECT_EQ(colocated_at(idx, {1, 1}), (std::set<std::int32_t>{0, 2, 4}));
    EXPECT_EQ(colocated_at(idx, {2, 2}), (std::set<std::int32_t>{1}));
    EXPECT_EQ(colocated_at(idx, {0, 0}), (std::set<std::int32_t>{3}));
    EXPECT_TRUE(colocated_at(idx, {4, 4}).empty());
}

TEST(BucketColocation, ForEachInBucketVisitsExactlyTheResidents) {
    const auto g = Grid2D::square(8);
    BucketIndex idx{g, 4};
    const std::vector<Point> pos{{5, 5}, {7, 4}, {0, 1}, {5, 5}};
    idx.rebuild(pos);
    std::set<std::int32_t> seen;
    idx.for_each_in_bucket(idx.bucket_of({4, 4}), [&](std::int32_t a) { seen.insert(a); });
    EXPECT_EQ(seen, (std::set<std::int32_t>{0, 1, 3}));
    seen.clear();
    idx.for_each_in_bucket(idx.bucket_of({0, 7}), [&](std::int32_t a) { seen.insert(a); });
    EXPECT_TRUE(seen.empty());
}

// An empty node inside an occupied bucket has no co-located agents.
TEST(BucketColocation, EmptyNodeInOccupiedBucketHasNoResidents) {
    const auto g = Grid2D::square(4);
    const std::vector<Point> pos{{2, 2}};
    BucketIndex idx{g, BucketIndex::side_for(g, pos.size(), 0)};
    ASSERT_EQ(idx.bucket_side(), 4);
    idx.rebuild(pos);
    ASSERT_EQ(idx.bucket_of({3, 3}), idx.bucket_of({2, 2}));
    EXPECT_TRUE(colocated_at(idx, {3, 3}).empty());
    EXPECT_EQ(colocated_at(idx, {2, 2}), (std::set<std::int32_t>{0}));
}

TEST(BucketColocation, OccupiedBucketCountCountsEachBucketOnce) {
    const auto g = Grid2D::square(6);
    BucketIndex idx{g, 2};
    const std::vector<Point> pos{{1, 1}, {1, 1}, {0, 0}, {2, 3}, {3, 2}, {5, 5}};
    idx.rebuild(pos);
    EXPECT_EQ(idx.occupied_bucket_count(), 3u);
}

TEST(BucketColocation, RebuildClearsPreviousState) {
    const auto g = Grid2D::square(6);
    BucketIndex idx{g, 2};
    std::vector<Point> pos{{0, 0}, {1, 1}, {3, 3}};
    idx.rebuild(pos);
    std::vector<Point> pos2{{5, 5}};
    idx.rebuild(pos2);
    EXPECT_TRUE(colocated_at(idx, {0, 0}).empty());
    EXPECT_TRUE(colocated_at(idx, {1, 1}).empty());
    EXPECT_TRUE(colocated_at(idx, {3, 3}).empty());
    EXPECT_EQ(colocated_at(idx, {5, 5}), (std::set<std::int32_t>{0}));
    EXPECT_EQ(idx.occupied_bucket_count(), 1u);
}

// Re-sized and rebuilt for a fresh k each round, as the builder does:
// every agent sits in exactly one bucket, the occupied count matches the
// non-empty buckets, and each agent's r = 0 group is exactly the agents
// on its node.
TEST(BucketColocation, RepeatedRebuildsAreConsistent) {
    const auto g = Grid2D::square(12);
    BucketIndex idx{g, 1};
    rng::Rng rng{1};
    for (int round = 0; round < 20; ++round) {
        std::vector<Point> pos;
        const int k = 1 + static_cast<int>(rng.below(30));
        for (int i = 0; i < k; ++i) pos.push_back(walk::AgentEnsemble::random_node(g, rng));
        idx.resize(BucketIndex::side_for(g, pos.size(), 0));
        idx.rebuild(pos);
        int total = 0;
        std::size_t nonempty = 0;
        for (std::size_t b = 0; b < idx.bucket_count(); ++b) {
            int here = 0;
            idx.for_each_in_bucket(static_cast<std::int64_t>(b), [&](std::int32_t a) {
                EXPECT_EQ(idx.bucket_of(pos[static_cast<std::size_t>(a)]),
                          static_cast<std::int64_t>(b));
                ++here;
            });
            total += here;
            if (here > 0) ++nonempty;
        }
        EXPECT_EQ(total, k);
        EXPECT_EQ(idx.occupied_bucket_count(), nonempty);
        for (std::size_t a = 0; a < pos.size(); ++a) {
            std::set<std::int32_t> expected;
            for (std::size_t b = 0; b < pos.size(); ++b) {
                if (pos[b] == pos[a]) expected.insert(static_cast<std::int32_t>(b));
            }
            EXPECT_EQ(colocated_at(idx, pos[a]), expected);
        }
    }
}

// Regression: querying with radius > bucket_side used to be a debug-only
// assert, so release builds silently dropped neighbors outside the 3×3
// block. The scan now widens to the needed number of bucket rings in all
// build types.
TEST(Bucket, RadiusLargerThanBucketSideFindsAllNeighbors) {
    const auto g = Grid2D::square(32);
    BucketIndex idx{g, 2};  // deliberately smaller than the query radius
    const std::vector<Point> pos{{5, 5}, {12, 5}, {5, 12}, {16, 16}, {31, 31}, {5, 6}};
    idx.rebuild(pos);
    for (const std::int64_t radius : {3, 7, 11, 40}) {
        for (const auto metric : {Metric::kManhattan, Metric::kChebyshev, Metric::kEuclidean}) {
            std::set<std::int32_t> fast;
            std::set<std::int32_t> slow;
            idx.for_each_within({5, 5}, radius, metric, [&](std::int32_t a) { fast.insert(a); });
            BucketIndex::for_each_within_naive(pos, {5, 5}, radius, metric,
                                               [&](std::int32_t a) { slow.insert(a); });
            EXPECT_EQ(fast, slow) << "radius " << radius << " metric "
                                  << grid::metric_name(metric);
        }
    }
}

// -------------------------------------------------- dirty-step protocol

TEST(BucketDirty, MoveStampsSourceAndDestinationBuckets) {
    const auto g = Grid2D::square(16);
    BucketIndex idx{g, 4};
    std::vector<Point> pos{{1, 1}, {9, 9}};
    idx.rebuild(pos);
    EXPECT_TRUE(idx.dirty_buckets().empty());  // rebuild opens a clean epoch

    pos[0] = {5, 1};  // bucket (0,0) -> (1,0)
    idx.sync(pos);
    const auto dirty = idx.dirty_buckets();
    ASSERT_EQ(dirty.size(), 2u);
    EXPECT_EQ(dirty[0], idx.bucket_of({1, 1}));
    EXPECT_EQ(dirty[1], idx.bucket_of({5, 1}));
    EXPECT_TRUE(idx.is_dirty(idx.bucket_of({1, 1})));
    EXPECT_TRUE(idx.is_dirty(idx.bucket_of({5, 1})));
    EXPECT_FALSE(idx.is_dirty(idx.bucket_of({9, 9})));
    idx.end_step();
    EXPECT_TRUE(idx.dirty_buckets().empty());
    EXPECT_FALSE(idx.is_dirty(idx.bucket_of({5, 1})));
}

TEST(BucketDirty, WithinBucketMoveStillDirtiesItsBucket) {
    // Positions inside a bucket decide edge existence, so a node change
    // that stays in the same bucket must dirty it too.
    const auto g = Grid2D::square(16);
    BucketIndex idx{g, 4};
    std::vector<Point> pos{{1, 1}};
    idx.rebuild(pos);
    pos[0] = {2, 1};
    idx.sync(pos);
    ASSERT_EQ(idx.dirty_buckets().size(), 1u);
    EXPECT_EQ(idx.dirty_buckets()[0], idx.bucket_of({1, 1}));
}

TEST(BucketDirty, MarksAreIdempotentPerEpochAndEpochsSeparate) {
    const auto g = Grid2D::square(16);
    BucketIndex idx{g, 2};
    std::vector<Point> pos{{0, 0}, {1, 1}};
    idx.rebuild(pos);
    pos[0] = {1, 0};
    pos[1] = {0, 1};  // same bucket: no duplicate mark
    idx.sync(pos);
    EXPECT_EQ(idx.dirty_buckets().size(), 1u);
    idx.end_step();  // a new epoch discards the previous marks
    EXPECT_TRUE(idx.dirty_buckets().empty());
    pos[0] = {4, 4};  // teleport: both endpoints stamped
    idx.sync(pos);
    EXPECT_EQ(idx.dirty_buckets().size(), 2u);
}

// sync() catches the index up with positions written behind its back:
// only agents whose node changed are relocated, each marking its source
// and destination buckets, and an agent that moved away and back is no
// change at all.
TEST(BucketDirty, SyncRelocatesOnlyTheAgentsWhoseNodeChanged) {
    const auto g = Grid2D::square(16);
    BucketIndex idx{g, 4};
    std::vector<Point> pos{{1, 1}, {9, 9}, {13, 2}};
    idx.rebuild(pos);
    idx.sync(pos);
    EXPECT_TRUE(idx.dirty_buckets().empty());
    pos[0] = {5, 1};  // bucket (0,0) -> (1,0)
    pos[2] = {12, 2};
    pos[2] = {13, 2};  // back where it was last indexed
    idx.sync(pos);
    ASSERT_EQ(idx.dirty_buckets().size(), 2u);
    EXPECT_EQ(idx.dirty_buckets()[0], idx.bucket_of({1, 1}));
    EXPECT_EQ(idx.dirty_buckets()[1], idx.bucket_of({5, 1}));
#if SMN_OBS_ENABLED
    EXPECT_EQ(idx.stats().moves, 1);
#endif
    std::vector<std::int32_t> found;
    idx.for_each_within({5, 1}, 0, Metric::kManhattan, [&](std::int32_t a) {
        found.push_back(a);
    });
    EXPECT_EQ(found, std::vector<std::int32_t>{0});
    EXPECT_EQ(idx.occupied_bucket_count(), 3u);
    pos.pop_back();  // not the agents of the last rebuild()
    EXPECT_THROW(idx.sync(pos), std::invalid_argument);
}

// Canonical unordered-pair set of all in-range pairs, brute force.
std::set<std::pair<std::int32_t, std::int32_t>> naive_pairs(std::span<const Point> pos,
                                                            std::int64_t radius,
                                                            Metric metric) {
    std::set<std::pair<std::int32_t, std::int32_t>> pairs;
    for (std::size_t i = 0; i < pos.size(); ++i) {
        for (std::size_t j = i + 1; j < pos.size(); ++j) {
            if (grid::within(pos[i], pos[j], radius, metric)) {
                pairs.emplace(static_cast<std::int32_t>(i), static_cast<std::int32_t>(j));
            }
        }
    }
    return pairs;
}

// Collects every unordered in-range pair through per-agent radius queries
// (the pair *enumeration* itself now lives in VisibilityGraphBuilder and
// is property-tested in graph_test; this exercises the index's query
// surface after incremental moves).
std::set<std::pair<std::int32_t, std::int32_t>> enumerated_pairs(BucketIndex& idx,
                                                                 std::span<const Point> pos,
                                                                 std::int64_t radius,
                                                                 Metric metric) {
    std::set<std::pair<std::int32_t, std::int32_t>> pairs;
    for (std::size_t a = 0; a < pos.size(); ++a) {
        idx.for_each_within(pos[a], radius, metric, [&](std::int32_t b) {
            if (b <= static_cast<std::int32_t>(a)) return;  // unordered, no self
            pairs.emplace(static_cast<std::int32_t>(a), b);
        });
    }
    return pairs;
}

// The incremental sync() path: write random move sequences (mostly
// single-cell steps, occasional teleports, sometimes the same agent twice)
// into the positions, sync once per batch, and check pair coverage and
// point queries against brute force after every batch — for all three
// metrics and r ∈ {0, 1, 2, 5}.
struct IncrementalParam {
    grid::Coord side;
    int agents;
    std::int64_t radius;
    Metric metric;
};

class BucketIncremental : public ::testing::TestWithParam<IncrementalParam> {};

TEST_P(BucketIncremental, MoveSequencesMatchNaive) {
    const auto param = GetParam();
    const auto g = Grid2D::square(param.side);
    rng::Rng rng{static_cast<std::uint64_t>(param.side * 131 + param.agents + param.radius)};
    auto idx = BucketIndex::for_radius(g, param.radius);

    std::vector<Point> pos;
    for (int i = 0; i < param.agents; ++i) {
        pos.push_back(walk::AgentEnsemble::random_node(g, rng));
    }
    idx.rebuild(pos);

    for (int batch = 0; batch < 25; ++batch) {
        const int moves = 1 + static_cast<int>(rng.below(8));
        for (int m = 0; m < moves; ++m) {
            const auto a = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(param.agents)));
            const auto from = pos[static_cast<std::size_t>(a)];
            Point to;
            if (rng.below(8) == 0) {
                to = walk::AgentEnsemble::random_node(g, rng);  // teleport
            } else {
                std::array<Point, Grid2D::kMaxDegree> nbr;
                const auto deg = g.neighbors(from, nbr);
                to = nbr[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(deg)))];
            }
            pos[static_cast<std::size_t>(a)] = to;
        }
        idx.sync(pos);
        EXPECT_EQ(enumerated_pairs(idx, pos, param.radius, param.metric),
                  naive_pairs(pos, param.radius, param.metric))
            << "batch " << batch;
        const auto probe = pos[static_cast<std::size_t>(rng.below(pos.size()))];
        std::set<std::int32_t> fast;
        std::set<std::int32_t> slow;
        idx.for_each_within(probe, param.radius, param.metric,
                            [&](std::int32_t a) { fast.insert(a); });
        BucketIndex::for_each_within_naive(pos, probe, param.radius, param.metric,
                                           [&](std::int32_t a) { slow.insert(a); });
        EXPECT_EQ(fast, slow) << "batch " << batch;
    }
}

INSTANTIATE_TEST_SUITE_P(
    MovesRadiiMetrics, BucketIncremental,
    ::testing::Values(IncrementalParam{12, 18, 0, Metric::kManhattan},
                      IncrementalParam{12, 18, 1, Metric::kManhattan},
                      IncrementalParam{16, 30, 2, Metric::kManhattan},
                      IncrementalParam{16, 30, 5, Metric::kManhattan},
                      IncrementalParam{16, 30, 2, Metric::kChebyshev},
                      IncrementalParam{16, 30, 5, Metric::kChebyshev},
                      IncrementalParam{16, 30, 2, Metric::kEuclidean},
                      IncrementalParam{16, 30, 5, Metric::kEuclidean},
                      IncrementalParam{48, 10, 5, Metric::kManhattan},   // sparse
                      IncrementalParam{10, 60, 1, Metric::kManhattan}));  // dense

}  // namespace
}  // namespace smn::spatial
