// graph_test.cpp — DSU, visibility components vs brute force, component
// statistics, percolation thresholds.
#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "graph/dsu.hpp"
#include "graph/percolation.hpp"
#include "graph/visibility.hpp"
#include "grid/grid.hpp"
#include "rng/rng.hpp"
#include "walk/ensemble.hpp"

namespace smn::graph {
namespace {

using grid::Grid2D;
using grid::Metric;
using grid::Point;

// --------------------------------------------------------------------- DSU

TEST(Dsu, StartsAsSingletons) {
    DisjointSets dsu{5};
    EXPECT_EQ(dsu.set_count(), 5u);
    for (std::int32_t i = 0; i < 5; ++i) {
        EXPECT_EQ(dsu.find(i), i);
        EXPECT_EQ(dsu.size_of(i), 1);
    }
}

TEST(Dsu, UniteMergesAndCounts) {
    DisjointSets dsu{6};
    EXPECT_TRUE(dsu.unite(0, 1));
    EXPECT_TRUE(dsu.unite(2, 3));
    EXPECT_FALSE(dsu.unite(1, 0));  // already same
    EXPECT_EQ(dsu.set_count(), 4u);
    EXPECT_TRUE(dsu.same(0, 1));
    EXPECT_FALSE(dsu.same(0, 2));
    EXPECT_TRUE(dsu.unite(1, 3));
    EXPECT_TRUE(dsu.same(0, 2));
    EXPECT_EQ(dsu.size_of(0), 4);
    EXPECT_EQ(dsu.set_count(), 3u);
}

TEST(Dsu, TransitivityChain) {
    DisjointSets dsu{100};
    for (std::int32_t i = 0; i + 1 < 100; ++i) dsu.unite(i, i + 1);
    EXPECT_EQ(dsu.set_count(), 1u);
    EXPECT_EQ(dsu.size_of(0), 100);
    EXPECT_TRUE(dsu.same(0, 99));
}

TEST(Dsu, ResetRestoresSingletons) {
    DisjointSets dsu{4};
    dsu.unite(0, 1);
    dsu.reset(6);
    EXPECT_EQ(dsu.element_count(), 6u);
    EXPECT_EQ(dsu.set_count(), 6u);
    EXPECT_FALSE(dsu.same(0, 1));
}

TEST(Dsu, SizesSumToElementCount) {
    DisjointSets dsu{50};
    rng::Rng rng{1};
    for (int i = 0; i < 40; ++i) {
        dsu.unite(static_cast<std::int32_t>(rng.below(50)),
                  static_cast<std::int32_t>(rng.below(50)));
    }
    std::set<std::int32_t> roots;
    std::int64_t total = 0;
    for (std::int32_t a = 0; a < 50; ++a) {
        const auto root = dsu.find(a);
        if (roots.insert(root).second) total += dsu.size_of(root);
    }
    EXPECT_EQ(total, 50);
    EXPECT_EQ(roots.size(), dsu.set_count());
}

// -------------------------------------------------------- visibility graph

// Canonical component signature for partition equality tests.
std::vector<std::int32_t> canonical(DisjointSets& dsu) {
    std::vector<std::int32_t> label(dsu.element_count());
    std::vector<std::int32_t> first(dsu.element_count(), -1);
    std::int32_t next = 0;
    for (std::size_t a = 0; a < label.size(); ++a) {
        const auto root = static_cast<std::size_t>(dsu.find(static_cast<std::int32_t>(a)));
        if (first[root] < 0) first[root] = next++;
        label[a] = first[root];
    }
    return label;
}

TEST(Visibility, RadiusZeroGroupsColocation) {
    const auto g = Grid2D::square(8);
    VisibilityGraphBuilder builder{g, 0};
    DisjointSets dsu{0};
    const std::vector<Point> pos{{1, 1}, {1, 1}, {2, 2}, {1, 1}};
    builder.build(pos, dsu);
    EXPECT_TRUE(dsu.same(0, 1));
    EXPECT_TRUE(dsu.same(0, 3));
    EXPECT_FALSE(dsu.same(0, 2));
    EXPECT_EQ(dsu.set_count(), 2u);
}

TEST(Visibility, ChainTransitivityAcrossRadius) {
    // Agents in a line, spacing = r: the whole line is one component even
    // though the endpoints are far apart — the multi-hop flooding the
    // paper's model allows within one step.
    const auto g = Grid2D::square(40);
    VisibilityGraphBuilder builder{g, 3};
    DisjointSets dsu{0};
    std::vector<Point> pos;
    for (int i = 0; i < 10; ++i) pos.push_back({static_cast<grid::Coord>(3 * i), 0});
    builder.build(pos, dsu);
    EXPECT_EQ(dsu.set_count(), 1u);
    EXPECT_TRUE(dsu.same(0, 9));
}

TEST(Visibility, GapBreaksComponent) {
    const auto g = Grid2D::square(40);
    VisibilityGraphBuilder builder{g, 3};
    DisjointSets dsu{0};
    const std::vector<Point> pos{{0, 0}, {3, 0}, {10, 0}, {13, 0}};
    builder.build(pos, dsu);
    EXPECT_EQ(dsu.set_count(), 2u);
    EXPECT_TRUE(dsu.same(0, 1));
    EXPECT_TRUE(dsu.same(2, 3));
    EXPECT_FALSE(dsu.same(1, 2));
}

struct VisSweepParam {
    grid::Coord side;
    int agents;
    std::int64_t radius;
    Metric metric;
};

class VisibilitySweep : public ::testing::TestWithParam<VisSweepParam> {};

TEST_P(VisibilitySweep, MatchesNaiveComponents) {
    const auto param = GetParam();
    const auto g = Grid2D::square(param.side);
    rng::Rng rng{static_cast<std::uint64_t>(param.side * 31 + param.agents)};
    VisibilityGraphBuilder builder{g, param.radius, param.metric};
    DisjointSets fast{0};
    DisjointSets slow{0};
    for (int round = 0; round < 15; ++round) {
        std::vector<Point> pos;
        for (int i = 0; i < param.agents; ++i) {
            pos.push_back(walk::AgentEnsemble::random_node(g, rng));
        }
        builder.build(pos, fast);
        VisibilityGraphBuilder::build_naive(pos, param.radius, param.metric, slow);
        EXPECT_EQ(canonical(fast), canonical(slow))
            << "side " << param.side << " agents " << param.agents << " r " << param.radius;
    }
}

INSTANTIATE_TEST_SUITE_P(
    RandomConfigs, VisibilitySweep,
    ::testing::Values(VisSweepParam{12, 8, 0, Metric::kManhattan},
                      VisSweepParam{12, 30, 0, Metric::kManhattan},
                      VisSweepParam{16, 10, 1, Metric::kManhattan},
                      VisSweepParam{16, 25, 2, Metric::kManhattan},
                      VisSweepParam{24, 40, 3, Metric::kManhattan},
                      VisSweepParam{24, 40, 3, Metric::kChebyshev},
                      VisSweepParam{24, 40, 3, Metric::kEuclidean},
                      VisSweepParam{32, 64, 5, Metric::kManhattan},
                      VisSweepParam{8, 50, 2, Metric::kManhattan},  // dense small grid
                      VisSweepParam{48, 6, 12, Metric::kManhattan}  // huge radius
                      ));

TEST(Visibility, BuilderIsReusableAcrossSteps) {
    const auto g = Grid2D::square(16);
    VisibilityGraphBuilder builder{g, 2};
    DisjointSets dsu{0};
    rng::Rng rng{7};
    std::vector<Point> pos;
    for (int i = 0; i < 20; ++i) pos.push_back(walk::AgentEnsemble::random_node(g, rng));
    for (int step = 0; step < 25; ++step) {
        for (auto& p : pos) p = walk::step(g, p, rng);
        builder.build(pos, dsu);
        DisjointSets ref{0};
        VisibilityGraphBuilder::build_naive(pos, 2, Metric::kManhattan, ref);
        EXPECT_EQ(canonical(dsu), canonical(ref));
    }
}

// The scan pairs a bucket with its adjacent buckets only, so a bucket
// narrower than r would miss pairs. A radius whose bucket side cannot be
// represented (the index's 32-bit side wraps to 1 at 2^32 + 1) is refused
// instead of scanned wrongly, as are a negative radius and a grid side
// whose L1 distances overflow the scan's int32 lanes (the constructor
// sizes nothing from the grid, so the refusal is cheap).
TEST(Visibility, RefusesBucketsNarrowerThanTheRadius) {
    const auto g = Grid2D::square(16);
    EXPECT_THROW((VisibilityGraphBuilder{g, (std::int64_t{1} << 32) + 1}),
                 std::invalid_argument);
    EXPECT_THROW((VisibilityGraphBuilder{g, -1}), std::invalid_argument);
    EXPECT_THROW((VisibilityGraphBuilder{Grid2D{kMaxSide + 1, 1}, 1}), std::invalid_argument);
    EXPECT_NO_THROW((VisibilityGraphBuilder{Grid2D::square(kMaxSide), 1}));
    EXPECT_NO_THROW((VisibilityGraphBuilder{g, 1000}));
}

#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
// The builder's memory is O(k), not O(n): build() sizes its one bucket
// index by the agent density, so the heap it holds for 64 agents stays
// flat from side 256 to side 4096 (n grows 256×), at r = 0 (co-location)
// as at r ≥ 1.
TEST(Visibility, BuilderHeapStaysFlatAsTheGridGrows) {
    const auto heap = [] {
        const auto info = mallinfo2();
        return static_cast<std::int64_t>(info.uordblks + info.hblkhd);
    };
    constexpr int kAgents = 64;
    std::int64_t smallest = std::numeric_limits<std::int64_t>::max();
    std::int64_t largest = 0;
    for (const grid::Coord side : {256, 1024, 4096}) {
        const auto g = Grid2D::square(side);
        rng::Rng rng{static_cast<std::uint64_t>(side)};
        std::vector<Point> pos;
        for (int i = 0; i < kAgents; ++i) pos.push_back(walk::AgentEnsemble::random_node(g, rng));
        DisjointSets dsu{kAgents};
        for (const std::int64_t r : {0, 1, 4}) {
            // One thread per builder: glibc's per-thread cache counts the
            // small blocks a destroyed builder freed as still in use, so a
            // later builder on the same thread would reuse them unseen.
            std::int64_t held = 0;
            std::thread{[&] {
                const auto before = heap();
                VisibilityGraphBuilder builder{g, r};
                builder.build(pos, dsu);
                held = heap() - before;
            }}.join();
            if (held == 0) GTEST_SKIP() << "the allocator does not report through mallinfo2";
            EXPECT_LT(held, std::int64_t{64} << 10) << "side " << side << ", r " << r;
            smallest = std::min(smallest, held);
            largest = std::max(largest, held);
        }
    }
    EXPECT_LE(largest, 2 * smallest);
}
#endif

// The engine's incremental protocol: one build(), then per-step walk moves
// written to the positions and components recomputed by
// rebuild_components(), which catches the index up itself. Odd steps pass
// a copy of the positions instead of the build() storage. Must match the
// brute-force reference at every step, for r ∈ {0, 1, 2, 5} under all
// three metrics.
struct IncrementalVisParam {
    std::int64_t radius;
    Metric metric;
};

class VisibilityIncremental : public ::testing::TestWithParam<IncrementalVisParam> {};

TEST_P(VisibilityIncremental, MoveSequencesMatchNaiveComponents) {
    const auto param = GetParam();
    const auto g = Grid2D::square(18);
    rng::Rng rng{static_cast<std::uint64_t>(900 + param.radius)};
    VisibilityGraphBuilder builder{g, param.radius, param.metric};
    DisjointSets fast{0};
    DisjointSets slow{0};
    std::vector<Point> pos;
    for (int i = 0; i < 28; ++i) pos.push_back(walk::AgentEnsemble::random_node(g, rng));
    builder.build(pos, fast);
    VisibilityGraphBuilder::build_naive(pos, param.radius, param.metric, slow);
    EXPECT_EQ(canonical(fast), canonical(slow));
    for (int step = 0; step < 40; ++step) {
        for (auto& p : pos) p = walk::step(g, p, rng);
        if (step % 2 == 0) {
            builder.rebuild_components(pos, fast);
        } else {
            const std::vector<Point> copy = pos;
            builder.rebuild_components(copy, fast);
        }
        VisibilityGraphBuilder::build_naive(pos, param.radius, param.metric, slow);
        EXPECT_EQ(canonical(fast), canonical(slow))
            << "step " << step << " r " << param.radius << " metric "
            << grid::metric_name(param.metric);
    }
}

INSTANTIATE_TEST_SUITE_P(
    RadiiAndMetrics, VisibilityIncremental,
    ::testing::Values(IncrementalVisParam{0, Metric::kManhattan},
                      IncrementalVisParam{1, Metric::kManhattan},
                      IncrementalVisParam{2, Metric::kManhattan},
                      IncrementalVisParam{5, Metric::kManhattan},
                      IncrementalVisParam{1, Metric::kChebyshev},
                      IncrementalVisParam{2, Metric::kChebyshev},
                      IncrementalVisParam{5, Metric::kChebyshev},
                      IncrementalVisParam{1, Metric::kEuclidean},
                      IncrementalVisParam{2, Metric::kEuclidean},
                      IncrementalVisParam{5, Metric::kEuclidean}));

// The PR 4 dirty-region protocol under adversarial move sequences:
// single-cell steps, teleports, and frog-style partial rounds where most
// agents stay frozen (the replay-heavy regime). The rounds only write the
// positions, and the pass catches the index up itself. Even rounds also
// make the no-op begin_step()/on_move() calls that e2ebench's traced
// replay still makes; they must change nothing. After every round the
// replayed partition must equal build_naive's, for the full radius grid
// r ∈ {0, 1, 2, 5} under all three metrics.
class VisibilityDirtyReplay : public ::testing::TestWithParam<IncrementalVisParam> {};

TEST_P(VisibilityDirtyReplay, RandomMovesTeleportsAndPartialRoundsMatchNaive) {
    const auto param = GetParam();
    const auto g = Grid2D::square(20);
    rng::Rng rng{static_cast<std::uint64_t>(4400 + param.radius * 7 +
                                            static_cast<int>(param.metric))};
    VisibilityGraphBuilder builder{g, param.radius, param.metric};
    DisjointSets fast{0};
    DisjointSets slow{0};
    std::vector<Point> pos;
    for (int i = 0; i < 36; ++i) pos.push_back(walk::AgentEnsemble::random_node(g, rng));
    builder.build(pos, fast);
    for (int round = 0; round < 60; ++round) {
        if (round % 2 == 0) builder.begin_step();
        // Frog-style partial round: only a random subset moves (often a
        // small one, so most scan units stay clean and must replay).
        const auto movers = 1 + rng.below(round % 3 == 0 ? pos.size() : 4);
        for (std::uint64_t m = 0; m < movers; ++m) {
            const auto a = static_cast<std::int32_t>(rng.below(pos.size()));
            const auto from = pos[static_cast<std::size_t>(a)];
            Point to;
            if (rng.below(10) == 0) {
                to = walk::AgentEnsemble::random_node(g, rng);  // teleport
            } else {
                to = walk::step(g, from, rng);
            }
            if (to == from) continue;
            pos[static_cast<std::size_t>(a)] = to;
            if (round % 2 == 0) builder.on_move(a, from, to);
        }
        builder.rebuild_components(pos, fast);
        VisibilityGraphBuilder::build_naive(pos, param.radius, param.metric, slow);
        EXPECT_EQ(canonical(fast), canonical(slow))
            << "round " << round << " r " << param.radius << " metric "
            << grid::metric_name(param.metric);
    }
    // The small partial rounds above must actually exercise the replay
    // path — otherwise this test proves nothing about it.
    EXPECT_GT(builder.replayed_units(), 0) << "replay path never taken";
    EXPECT_GT(builder.rescanned_units(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    RadiiAndMetrics, VisibilityDirtyReplay,
    ::testing::Values(IncrementalVisParam{0, Metric::kManhattan},
                      IncrementalVisParam{1, Metric::kManhattan},
                      IncrementalVisParam{2, Metric::kManhattan},
                      IncrementalVisParam{5, Metric::kManhattan},
                      IncrementalVisParam{1, Metric::kChebyshev},
                      IncrementalVisParam{2, Metric::kChebyshev},
                      IncrementalVisParam{5, Metric::kChebyshev},
                      IncrementalVisParam{1, Metric::kEuclidean},
                      IncrementalVisParam{2, Metric::kEuclidean},
                      IncrementalVisParam{5, Metric::kEuclidean}));

// ---------------------------------------------------------- ComponentStats

TEST(Stats, SingletonPartition) {
    DisjointSets dsu{5};
    const auto s = component_stats(dsu);
    EXPECT_EQ(s.component_count, 5);
    EXPECT_EQ(s.max_size, 1);
    EXPECT_DOUBLE_EQ(s.mean_size, 1.0);
    EXPECT_DOUBLE_EQ(s.largest_fraction, 0.2);
    EXPECT_EQ(s.singletons(), 5);
}

TEST(Stats, MixedPartition) {
    DisjointSets dsu{7};
    dsu.unite(0, 1);
    dsu.unite(1, 2);
    dsu.unite(3, 4);
    const auto s = component_stats(dsu);
    EXPECT_EQ(s.component_count, 4);  // {0,1,2} {3,4} {5} {6}
    EXPECT_EQ(s.max_size, 3);
    EXPECT_NEAR(s.mean_size, 7.0 / 4.0, 1e-12);
    EXPECT_NEAR(s.largest_fraction, 3.0 / 7.0, 1e-12);
    EXPECT_EQ(s.singletons(), 2);
    ASSERT_EQ(s.size_histogram.size(), 4u);
    EXPECT_EQ(s.size_histogram[1], 2);
    EXPECT_EQ(s.size_histogram[2], 1);
    EXPECT_EQ(s.size_histogram[3], 1);
}

TEST(Stats, HistogramCountsTimesSizesSumToK) {
    DisjointSets dsu{30};
    rng::Rng rng{3};
    for (int i = 0; i < 20; ++i) {
        dsu.unite(static_cast<std::int32_t>(rng.below(30)),
                  static_cast<std::int32_t>(rng.below(30)));
    }
    const auto s = component_stats(dsu);
    std::int64_t total = 0;
    for (std::size_t size = 1; size < s.size_histogram.size(); ++size) {
        total += static_cast<std::int64_t>(size) * s.size_histogram[size];
    }
    EXPECT_EQ(total, 30);
}

TEST(Stats, ComponentLabelsPartitionAgents) {
    DisjointSets dsu{10};
    dsu.unite(0, 5);
    dsu.unite(5, 7);
    const auto labels = component_labels(dsu);
    EXPECT_EQ(labels.size(), 10u);
    EXPECT_EQ(labels[0], labels[5]);
    EXPECT_EQ(labels[0], labels[7]);
    EXPECT_NE(labels[0], labels[1]);
}

// The buffer-reusing overloads must agree with the allocating forms, and
// must fully overwrite whatever a previous call left in the buffers.
TEST(Stats, BufferReusingOverloadsMatchAllocatingForms) {
    rng::Rng rng{17};
    ComponentStats reused;
    std::vector<std::int64_t> scratch;
    std::vector<std::int32_t> labels_reused;
    for (const std::size_t k : {1u, 7u, 30u, 13u}) {  // shrinking sizes too
        DisjointSets dsu{k};
        for (std::size_t i = 0; i + 1 < k; ++i) {
            if (rng.below(2) == 0) {
                dsu.unite(static_cast<std::int32_t>(rng.below(k)),
                          static_cast<std::int32_t>(rng.below(k)));
            }
        }
        const auto fresh = component_stats(dsu);
        component_stats(dsu, reused, scratch);
        EXPECT_EQ(reused.component_count, fresh.component_count);
        EXPECT_EQ(reused.max_size, fresh.max_size);
        EXPECT_DOUBLE_EQ(reused.mean_size, fresh.mean_size);
        EXPECT_DOUBLE_EQ(reused.largest_fraction, fresh.largest_fraction);
        EXPECT_EQ(reused.size_histogram, fresh.size_histogram);
        EXPECT_EQ(reused.singletons(), fresh.singletons());

        component_labels(dsu, labels_reused);
        EXPECT_EQ(labels_reused, component_labels(dsu));
    }
}

// ------------------------------------------------------------- percolation

TEST(Percolation, RadiusFormula) {
    EXPECT_DOUBLE_EQ(percolation_radius(10000, 100), 10.0);
    EXPECT_DOUBLE_EQ(percolation_radius(4096, 64), 8.0);
}

TEST(Percolation, GammaIsBelowRc) {
    // γ = r_c / (2e³): the island scale sits far below the percolation
    // point, and the lower-bound radius is γ/4.
    for (std::int64_t n : {1 << 12, 1 << 16}) {
        for (std::int64_t k : {16, 64, 256}) {
            const double rc = percolation_radius(n, k);
            const double gamma = island_gamma(n, k);
            const double rlb = lower_bound_radius(n, k);
            EXPECT_LT(gamma, rc);
            EXPECT_NEAR(gamma / rc, 1.0 / (2.0 * std::exp(3.0)), 1e-12);
            EXPECT_NEAR(rlb, gamma / 4.0, 1e-12);
        }
    }
}

TEST(Percolation, RegimeClassification) {
    const std::int64_t n = 10000;
    const std::int64_t k = 100;  // r_c = 10
    EXPECT_EQ(classify_regime(n, k, 0), Regime::kSubcritical);
    EXPECT_EQ(classify_regime(n, k, 5), Regime::kSubcritical);
    EXPECT_EQ(classify_regime(n, k, 10), Regime::kNearCritical);
    EXPECT_EQ(classify_regime(n, k, 20), Regime::kSupercritical);
    EXPECT_STREQ(regime_name(Regime::kSubcritical), "subcritical");
}

// Empirical percolation contrast: far below r_c components are small; far
// above r_c a giant component holds most agents.
TEST(Percolation, OrderParameterJumpsAcrossThreshold) {
    const auto g = Grid2D::square(64);  // n = 4096
    const std::int64_t k = 256;         // r_c = 4
    rng::Rng rng{11};
    double below = 0.0;
    double above = 0.0;
    constexpr int kReps = 10;
    for (int rep = 0; rep < kReps; ++rep) {
        std::vector<Point> pos;
        for (std::int64_t i = 0; i < k; ++i) {
            pos.push_back(walk::AgentEnsemble::random_node(g, rng));
        }
        DisjointSets dsu{0};
        VisibilityGraphBuilder low{g, 1};
        low.build(pos, dsu);
        below += component_stats(dsu).largest_fraction;
        VisibilityGraphBuilder high{g, 12};  // 3 r_c
        high.build(pos, dsu);
        above += component_stats(dsu).largest_fraction;
    }
    below /= kReps;
    above /= kReps;
    EXPECT_LT(below, 0.2);
    EXPECT_GT(above, 0.8);
    EXPECT_GT(above, 3.0 * below);
}

}  // namespace
}  // namespace smn::graph
