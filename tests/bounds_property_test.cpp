// bounds_property_test.cpp — parameterized consistency sweep over the
// paper's closed-form bounds, plus synthetic-input unit tests for the
// observers (driven by hand-built StepViews, no engine needed).
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

#include "core/bounds.hpp"
#include "core/observers.hpp"
#include "core/rumor.hpp"
#include "graph/dsu.hpp"
#include "graph/percolation.hpp"

namespace smn {
namespace {

// ----------------------------------------------- bounds consistency sweep

struct NkParam {
    std::int64_t n;
    std::int64_t k;
};

// CTest names parametrized tests by the printed parameter: print the
// fields, never the struct's bytes (padding included).
void PrintTo(const NkParam& p, std::ostream* os) { *os << "n" << p.n << "_k" << p.k; }

class BoundsSweep : public ::testing::TestWithParam<NkParam> {};

TEST_P(BoundsSweep, OrderingsAndPositivity) {
    const auto [n, k] = GetParam();
    using namespace core::bounds;

    // Positivity.
    EXPECT_GT(broadcast_scale(n, k), 0.0);
    EXPECT_GT(broadcast_lower_bound_scale(n, k), 0.0);
    EXPECT_GT(wkk_claimed_scale(n, k), 0.0);
    EXPECT_GT(cover_time_scale(n, k), 0.0);
    EXPECT_GT(extinction_scale(n, k), 0.0);
    EXPECT_GT(horizon(n), 0.0);
    EXPECT_GE(default_max_steps(n, k), 4096);

    // The lower bound sits below the upper scale (log² gap).
    EXPECT_LT(broadcast_lower_bound_scale(n, k), broadcast_scale(n, k));

    // Radius ladder: lower-bound radius < island γ < r_c (γ = r_c/(2e³),
    // lb = γ/4).
    const double rc = graph::percolation_radius(n, k);
    const double gamma = graph::island_gamma(n, k);
    const double rlb = graph::lower_bound_radius(n, k);
    EXPECT_LT(rlb, gamma);
    EXPECT_LT(gamma, rc);

    // Cell side stays within [1, √n].
    const double ell = cell_side(n, k, 0.06);  // empirical c3 from E6
    EXPECT_GE(ell, 1.0);
    EXPECT_LE(ell, std::sqrt(static_cast<double>(n)) + 1e-9);

    // Cover-time scale dominates its floor term.
    EXPECT_GE(cover_time_scale(n, k),
              static_cast<double>(n) * log_floor(static_cast<double>(n)));

    // Extinction scale is the k-term of the cover bound.
    EXPECT_LE(extinction_scale(n, k), cover_time_scale(n, k));
}

// Monotonicity across the parameter grid: more agents → smaller scales.
TEST_P(BoundsSweep, MonotoneInK) {
    const auto [n, k] = GetParam();
    using namespace core::bounds;
    EXPECT_LE(broadcast_scale(n, 2 * k), broadcast_scale(n, k));
    EXPECT_LE(broadcast_lower_bound_scale(n, 2 * k), broadcast_lower_bound_scale(n, k));
    EXPECT_LE(extinction_scale(n, 2 * k), extinction_scale(n, k));
    EXPECT_LE(cover_time_scale(n, 2 * k), cover_time_scale(n, k));
    EXPECT_LE(graph::percolation_radius(n, 2 * k), graph::percolation_radius(n, k));
}

// Monotonicity in n: bigger grids → larger scales.
TEST_P(BoundsSweep, MonotoneInN) {
    const auto [n, k] = GetParam();
    using namespace core::bounds;
    EXPECT_GE(broadcast_scale(4 * n, k), broadcast_scale(n, k));
    EXPECT_GE(cover_time_scale(4 * n, k), cover_time_scale(n, k));
    EXPECT_GE(horizon(4 * n), horizon(n));
}

INSTANTIATE_TEST_SUITE_P(
    NkGrid, BoundsSweep,
    ::testing::Values(NkParam{64, 2}, NkParam{256, 4}, NkParam{256, 64},
                      NkParam{1024, 8}, NkParam{4096, 16}, NkParam{4096, 512},
                      NkParam{16384, 64}, NkParam{65536, 256}, NkParam{65536, 8192},
                      NkParam{1 << 20, 1024}));

// --------------------------------------- observers on synthetic StepViews

// Builds a StepView over caller-owned containers.
struct SyntheticStep {
    std::vector<grid::Point> positions;
    graph::DisjointSets dsu{0};

    core::StepView view(std::int64_t t, const core::SingleRumor& rumor) {
        dsu.reset(positions.size());
        return core::StepView{
            .time = t, .positions = positions, .components = dsu, .rumor = rumor};
    }
};

TEST(FrontierSynthetic, TracksOnlyInformedAgents) {
    core::SingleRumor rumor{3, 0};  // agent 0 informed
    SyntheticStep step;
    step.positions = {{2, 0}, {9, 0}, {5, 0}};  // agent 1 far right but uninformed
    core::FrontierObserver frontier;
    frontier.on_step(step.view(0, rumor));
    ASSERT_EQ(frontier.series().size(), 1u);
    EXPECT_EQ(frontier.series()[0], 2);  // only agent 0 counts

    rumor.inform(2, 1);
    frontier.on_step(step.view(1, rumor));
    EXPECT_EQ(frontier.series()[1], 5);  // agent 2 now counts

    rumor.inform(1, 2);
    frontier.on_step(step.view(2, rumor));
    EXPECT_EQ(frontier.series()[2], 9);
}

TEST(FrontierSynthetic, MaxIsSticky) {
    core::SingleRumor rumor{1, 0};
    SyntheticStep step;
    step.positions = {{7, 3}};
    core::FrontierObserver frontier;
    frontier.on_step(step.view(0, rumor));
    step.positions[0] = {2, 3};  // agent walks left
    frontier.on_step(step.view(1, rumor));
    EXPECT_EQ(frontier.series()[1], 7);  // frontier never retreats
}

TEST(FrontierSynthetic, WindowAdvanceMatchesBruteForce) {
    core::SingleRumor rumor{1, 0};
    SyntheticStep step;
    core::FrontierObserver frontier;
    const std::vector<grid::Coord> xs{0, 1, 1, 4, 4, 4, 9, 9, 12, 12};
    for (std::size_t t = 0; t < xs.size(); ++t) {
        step.positions = {{xs[t], 0}};
        frontier.on_step(step.view(static_cast<std::int64_t>(t), rumor));
    }
    // Brute force: max over t of series[t+w] − series[t].
    const auto& s = frontier.series();
    for (const std::int64_t w : {1, 2, 3, 5}) {
        std::int64_t expect = 0;
        for (std::size_t t = 0; t + static_cast<std::size_t>(w) < s.size(); ++t) {
            expect = std::max<std::int64_t>(
                expect, s[t + static_cast<std::size_t>(w)] - s[t]);
        }
        EXPECT_EQ(frontier.max_window_advance(w), expect) << w;
    }
}

TEST(CoverageSynthetic, CountsInformedVisitsOnly) {
    const auto g = grid::Grid2D::square(4);
    core::SingleRumor rumor{2, 0};
    SyntheticStep step;
    step.positions = {{0, 0}, {3, 3}};
    core::CoverageObserver cov{g};
    cov.on_step(step.view(0, rumor));
    EXPECT_EQ(cov.covered_count(), 1);  // only the informed agent's node

    rumor.inform(1, 1);
    cov.on_step(step.view(1, rumor));
    EXPECT_EQ(cov.covered_count(), 2);

    // Revisits don't double count.
    cov.on_step(step.view(2, rumor));
    EXPECT_EQ(cov.covered_count(), 2);
    EXPECT_FALSE(cov.covered_all());
    EXPECT_EQ(cov.coverage_time(), -1);
}

TEST(CoverageSynthetic, CoverageTimeSetOnceComplete) {
    const auto g = grid::Grid2D::square(2);
    core::SingleRumor rumor{1, 0};
    SyntheticStep step;
    core::CoverageObserver cov{g};
    const std::vector<grid::Point> path{{0, 0}, {1, 0}, {0, 1}, {1, 1}};
    for (std::size_t t = 0; t < path.size(); ++t) {
        step.positions = {path[t]};
        cov.on_step(step.view(static_cast<std::int64_t>(t), rumor));
    }
    EXPECT_TRUE(cov.covered_all());
    EXPECT_EQ(cov.coverage_time(), 3);
}

TEST(InformedCountSynthetic, MirrorsRumorState) {
    core::SingleRumor rumor{4, 2};
    SyntheticStep step;
    step.positions = {{0, 0}, {1, 1}, {2, 2}, {3, 3}};
    core::InformedCountObserver counter;
    counter.on_step(step.view(0, rumor));
    rumor.inform(0, 1);
    rumor.inform(3, 1);
    counter.on_step(step.view(1, rumor));
    EXPECT_EQ(counter.series(), (std::vector<std::int32_t>{1, 3}));
}

}  // namespace
}  // namespace smn
