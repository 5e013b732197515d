// engine_property_test.cpp — parameterized property sweep of the
// dissemination engine across the configuration space: every run must
// satisfy the model's structural invariants regardless of parameters.
// A seeded differential test then checks the exchange-free step path
// against the full pass on every step.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <filesystem>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/broadcast.hpp"
#include "core/engine.hpp"
#include "core/observers.hpp"
#include "graph/visibility.hpp"
#include "io/snapshot.hpp"
#include "rng/rng.hpp"
#include "smn.hpp"  // umbrella header compiles cleanly (checked here)

namespace smn::core {
namespace {

struct SweepParam {
    grid::Coord side;
    std::int32_t k;
    std::int64_t radius;
    walk::WalkKind walk;
    Mobility mobility;
    std::uint64_t seed;
};

// CTest names parametrized tests by the printed parameter: print the
// fields, never the struct's bytes (padding included).
void PrintTo(const SweepParam& p, std::ostream* os) {
    *os << "side" << p.side << "_k" << p.k << "_r" << p.radius << "_w"
        << static_cast<int>(p.walk) << "_m" << static_cast<int>(p.mobility) << "_s" << p.seed;
}

class EngineSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EngineSweep, StructuralInvariantsHold) {
    const auto& p = GetParam();
    EngineConfig cfg;
    cfg.side = p.side;
    cfg.k = p.k;
    cfg.radius = p.radius;
    cfg.walk = p.walk;
    cfg.mobility = p.mobility;
    cfg.seed = p.seed;

    BroadcastProcess process{cfg};
    InformedCountObserver counter;
    process.attach(counter);

    const auto& g = process.grid();
    std::int32_t prev_informed = process.rumor().informed_count();
    EXPECT_GE(prev_informed, 1);  // source always informed

    const std::int64_t budget = 100000;
    while (!process.complete() && process.time() < budget) {
        // Positions before the step (for the at-most-one-move check).
        std::vector<grid::Point> before(process.agents().positions().begin(),
                                        process.agents().positions().end());
        process.step();

        // (1) All agents on-grid, moved by at most one grid step.
        for (std::int32_t a = 0; a < p.k; ++a) {
            const auto pos = process.agents().position(a);
            EXPECT_TRUE(g.contains(pos));
            EXPECT_LE(grid::manhattan(before[static_cast<std::size_t>(a)], pos), 1);
        }
        // (2) Knowledge is monotone.
        const auto informed = process.rumor().informed_count();
        EXPECT_GE(informed, prev_informed);
        EXPECT_LE(informed, p.k);
        prev_informed = informed;
        // (3) Component exchange is exhaustive: agents sharing a component
        // with an informed agent must be informed *after* the exchange.
        auto& dsu = process.components();
        for (std::int32_t a = 0; a < p.k; ++a) {
            for (std::int32_t b = 0; b < p.k; ++b) {
                if (process.rumor().is_informed(a) && dsu.same(a, b)) {
                    EXPECT_TRUE(process.rumor().is_informed(b))
                        << "component flooding missed agent " << b;
                }
            }
        }
    }

    // (4) On completion every informed_time is set consistently.
    if (process.complete()) {
        for (std::int32_t a = 0; a < p.k; ++a) {
            const auto t = process.rumor().informed_time(a);
            EXPECT_GE(t, 0);
            EXPECT_LE(t, process.time());
        }
        // (5) The observer's series is consistent with completion.
        EXPECT_EQ(counter.series().empty() ? p.k : counter.series().back(), p.k);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, EngineSweep,
    ::testing::Values(
        // Minimal edge shapes.
        SweepParam{1, 1, 0, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 1},
        SweepParam{1, 3, 0, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 2},
        SweepParam{2, 2, 0, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 3},
        SweepParam{2, 2, 0, walk::WalkKind::kLazyPaper, Mobility::kInformedOnly, 4},
        // k = 2 (the sparsest interesting system).
        SweepParam{12, 2, 0, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 5},
        SweepParam{12, 2, 3, walk::WalkKind::kLazyHalf, Mobility::kAllMove, 6},
        // Dense-ish small grids.
        SweepParam{6, 20, 0, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 7},
        SweepParam{6, 20, 1, walk::WalkKind::kLazyPaper, Mobility::kInformedOnly, 8},
        // Mid-size, all kernels and mobilities, radii across regimes.
        SweepParam{16, 8, 0, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 9},
        SweepParam{16, 8, 2, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 10},
        SweepParam{16, 8, 6, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 11},
        SweepParam{16, 8, 30, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 12},
        SweepParam{16, 8, 0, walk::WalkKind::kLazyHalf, Mobility::kAllMove, 13},
        SweepParam{16, 8, 1, walk::WalkKind::kSimple, Mobility::kAllMove, 14},
        SweepParam{16, 8, 0, walk::WalkKind::kLazyPaper, Mobility::kInformedOnly, 15},
        SweepParam{16, 8, 2, walk::WalkKind::kLazyHalf, Mobility::kInformedOnly, 16},
        // Rectangular coverage via non-square k/n ratios.
        SweepParam{24, 3, 0, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 17},
        SweepParam{24, 48, 0, walk::WalkKind::kLazyPaper, Mobility::kAllMove, 18}));

// ------------------------------------------------ exchange-free steps

/// Attaching any observer makes the engine run the full component pass
/// and exchange on every step: the reference for the differential test.
class NoOpObserver final : public Observer {
public:
    void on_step(const StepView& /*view*/) override {}
};

double quiet_steps(const BroadcastProcess& process) {
    for (const auto& [name, value] : process.counters()) {
        if (std::string_view{name} == "cert.quiet_steps") return value;
    }
    return -1.0;
}

/// True iff the two partitions of the same k agents are equal.
bool same_partition(graph::DisjointSets& a, graph::DisjointSets& b, std::int32_t k) {
    for (std::int32_t i = 0; i < k; ++i) {
        for (std::int32_t j = i + 1; j < k; ++j) {
            if (a.same(i, j) != b.same(i, j)) return false;
        }
    }
    return true;
}

// Over seeded random configs (side, k, r in {0, 1, 2, 5}, all metrics,
// walks and mobilities), a bare process — which skips the pass on steps
// its certificate proves exchange-free — must match a process with an
// observer attached, which runs the full pass every step: same informed
// times, T_B and final positions. The bare run also checkpoints through a
// snapshot file at a random t, and at a random quiet step checks that
// components() catches up, then restores from a capture taken there,
// while the certificate is clearing steps; after stepping past saturation
// it checks components() again.
TEST(ExchangeFreeSteps, MatchTheFullPassOnRandomConfigs) {
    rng::Rng pick{0x5eed2011};
    constexpr std::array<std::int64_t, 4> kRadii{0, 1, 2, 5};
    constexpr std::int64_t kCap = 4000;
    std::int64_t total_quiet = 0;
    int probes = 0;
    for (int trial = 0; trial < 160; ++trial) {
        EngineConfig cfg;
        cfg.side = static_cast<grid::Coord>(4 + pick.below(45));
        cfg.k = static_cast<std::int32_t>(2 + pick.below(23));
        cfg.radius = kRadii[pick.below(kRadii.size())];
        cfg.metric = static_cast<grid::Metric>(pick.below(3));
        cfg.walk = static_cast<walk::WalkKind>(pick.below(3));
        cfg.mobility = static_cast<Mobility>(pick.below(2));
        cfg.source = static_cast<std::int32_t>(pick.below(static_cast<std::uint64_t>(cfg.k)));
        cfg.seed = pick();
        SCOPED_TRACE("trial " + std::to_string(trial) + ": side " + std::to_string(cfg.side) +
                     " k " + std::to_string(cfg.k) + " r " + std::to_string(cfg.radius) +
                     " metric " + grid::metric_name(cfg.metric) + " walk " +
                     walk::walk_kind_name(cfg.walk) + " " + mobility_name(cfg.mobility));

        NoOpObserver noop;
        BroadcastProcess full{cfg};
        full.attach(noop);
        while (!full.complete() && full.time() < kCap) full.step();

        const auto t_snap = static_cast<std::int64_t>(pick.below(
            static_cast<std::uint64_t>(full.time()) + 1));
        const auto t_probe = static_cast<std::int64_t>(pick.below(
            static_cast<std::uint64_t>(full.time()) + 1));
        std::optional<BroadcastProcess> bare{std::in_place, cfg};
        bool probed = false;
        while (!bare->complete() && bare->time() < kCap) {
            if (bare->time() == t_snap) {
                const auto path = (std::filesystem::temp_directory_path() /
                                   ("smn_quiet_" + std::to_string(::getpid()) + "_" +
                                    std::to_string(trial) + ".snap"))
                                      .string();
                io::save_snapshot(path, bare->capture());
                bare.emplace(io::load_broadcast_snapshot(path));
                std::filesystem::remove(path);
            }
            const auto quiet_before = quiet_steps(*bare);
            bare->step();
            const bool quiet = quiet_steps(*bare) > quiet_before;
            total_quiet += quiet ? 1 : 0;
            if (quiet && !probed && bare->time() >= t_probe) {
                probed = true;
                ++probes;
                graph::DisjointSets naive{0};
                graph::VisibilityGraphBuilder::build_naive(bare->agents().positions(),
                                                           cfg.radius, cfg.metric, naive);
                EXPECT_TRUE(same_partition(bare->components(), naive, cfg.k))
                    << "components() after a quiet step at t = " << bare->time();
                // Snapshot while the certificate is clearing steps: the
                // restore loses the window, not the trajectory.
                const auto state = bare->capture();
                bare.emplace(state);
            }
        }

        EXPECT_EQ(bare->time(), full.time());
        EXPECT_EQ(bare->complete(), full.complete());
        const auto bare_times = bare->rumor().times();
        const auto full_times = full.rumor().times();
        EXPECT_TRUE(std::equal(bare_times.begin(), bare_times.end(), full_times.begin(),
                               full_times.end()))
            << "informed times diverge";
        // Past saturation the bare process stops maintaining its index;
        // components() must still catch up to the full process's partition.
        if (full.complete()) {
            for (int s = 0; s < 25; ++s) {
                bare->step();
                full.step();
            }
            EXPECT_TRUE(same_partition(bare->components(), full.components(), cfg.k))
                << "components() after saturation";
        }
        const auto bare_pos = bare->agents().positions();
        const auto full_pos = full.agents().positions();
        EXPECT_TRUE(
            std::equal(bare_pos.begin(), bare_pos.end(), full_pos.begin(), full_pos.end()))
            << "final positions diverge";
    }
    // The sweep must actually exercise the path under test.
    EXPECT_GT(total_quiet, 20000);
    EXPECT_GT(probes, 60);
}

}  // namespace
}  // namespace smn::core
