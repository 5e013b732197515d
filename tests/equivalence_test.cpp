// equivalence_test.cpp — pathwise equivalences between processes.
//
// The strongest correctness check in the suite: BroadcastProcess and
// GossipProcess consume randomness identically (k placements, then k moves
// per step in agent order), so for the SAME seed they generate the same
// agent trajectories. Since component flooding treats each rumor
// independently, the gossip process's per-rumor broadcast time for rumor r
// must EXACTLY equal the broadcast time of a BroadcastProcess with
// source = r on the same seed. This cross-validates the two independently
// written exchange kernels (bitset OR vs boolean flood) against each other.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "core/broadcast.hpp"
#include "core/engine.hpp"
#include "core/gossip.hpp"
#include "rng/rng.hpp"

namespace smn::core {
namespace {

struct EquivParam {
    grid::Coord side;
    std::int32_t k;
    std::int64_t radius;
    std::uint64_t seed;
};

class GossipBroadcastEquivalence : public ::testing::TestWithParam<EquivParam> {};

TEST_P(GossipBroadcastEquivalence, PerRumorTimesMatchSingleBroadcasts) {
    const auto param = GetParam();
    EngineConfig cfg;
    cfg.side = param.side;
    cfg.k = param.k;
    cfg.radius = param.radius;
    cfg.seed = param.seed;

    GossipProcess gossip{cfg};
    const auto tg = gossip.run_until_complete(1 << 26);
    ASSERT_TRUE(tg.has_value());

    for (std::int32_t r = 0; r < param.k; ++r) {
        cfg.source = r;
        BroadcastProcess broadcast{cfg};
        const auto tb = broadcast.run_until_complete(1 << 26);
        ASSERT_TRUE(tb.has_value());
        EXPECT_EQ(gossip.rumor_broadcast_time(r), *tb)
            << "rumor " << r << " diverged from the matching single broadcast";
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShapes, GossipBroadcastEquivalence,
    ::testing::Values(EquivParam{10, 4, 0, 1}, EquivParam{10, 4, 0, 2},
                      EquivParam{12, 6, 0, 3}, EquivParam{12, 6, 2, 4},
                      EquivParam{16, 8, 0, 5}, EquivParam{16, 8, 3, 6},
                      EquivParam{8, 12, 1, 7}, EquivParam{20, 5, 0, 8}));

// The same identity over seeded random configs: side, k (past 64, where
// each agent's rumor set spans several bitset words), r, metric and walk.
// Gossip walks every agent whatever the mobility says, so its config
// draws a mobility too while the matching broadcasts all move.
TEST(GossipBroadcastEquivalenceRandom, PerRumorTimesMatchSingleBroadcasts) {
    rng::Rng pick{0x90551b};
    constexpr std::array<std::int64_t, 5> kRadii{0, 1, 2, 3, 5};
    int multi_word = 0;
    for (int trial = 0; trial < 40; ++trial) {
        EngineConfig cfg;
        cfg.side = static_cast<grid::Coord>(4 + pick.below(17));
        cfg.k = static_cast<std::int32_t>(
            trial % 4 == 0 ? 65 + pick.below(80) : 1 + pick.below(40));
        cfg.radius = kRadii[pick.below(kRadii.size())];
        cfg.metric = static_cast<grid::Metric>(pick.below(3));
        cfg.walk = static_cast<walk::WalkKind>(pick.below(3));
        cfg.mobility = static_cast<Mobility>(pick.below(2));
        cfg.seed = pick();
        // Non-lazy walkers of opposite parity never share a node.
        if (cfg.walk == walk::WalkKind::kSimple && cfg.radius == 0) cfg.radius = 1;
        SCOPED_TRACE("trial " + std::to_string(trial) + ": side " + std::to_string(cfg.side) +
                     " k " + std::to_string(cfg.k) + " r " + std::to_string(cfg.radius) +
                     " metric " + grid::metric_name(cfg.metric) + " walk " +
                     walk::walk_kind_name(cfg.walk) + " " + mobility_name(cfg.mobility));
        multi_word += cfg.k > 64 ? 1 : 0;

        GossipProcess gossip{cfg};
        const auto tg = gossip.run_until_complete(1 << 26);
        ASSERT_TRUE(tg.has_value());
        cfg.mobility = Mobility::kAllMove;
        for (std::int32_t r = 0; r < cfg.k; ++r) {
            cfg.source = r;
            BroadcastProcess broadcast{cfg};
            const auto tb = broadcast.run_until_complete(1 << 26);
            ASSERT_TRUE(tb.has_value());
            ASSERT_EQ(gossip.rumor_broadcast_time(r), *tb) << "rumor " << r;
        }
    }
    EXPECT_GE(multi_word, 10);
}

// Broadcast with k = all agents in one component at t = 0 equals gossip
// completion at t = 0 under the same condition.
TEST(Equivalence, FullRadiusBothImmediate) {
    EngineConfig cfg;
    cfg.side = 8;
    cfg.k = 7;
    cfg.radius = 14;
    cfg.seed = 11;
    BroadcastProcess b{cfg};
    GossipProcess g{cfg};
    EXPECT_TRUE(b.complete());
    EXPECT_TRUE(g.complete());
}

// The informed-count series of a broadcast equals the per-agent knows()
// count of the matching rumor inside gossip, spot-checked at completion.
TEST(Equivalence, InformedSetsMatchAtCompletion) {
    EngineConfig cfg;
    cfg.side = 12;
    cfg.k = 5;
    cfg.radius = 0;
    cfg.seed = 12;
    cfg.source = 2;
    GossipProcess gossip{cfg};
    ASSERT_TRUE(gossip.run_until_complete(1 << 26).has_value());
    BroadcastProcess broadcast{cfg};
    ASSERT_TRUE(broadcast.run_until_complete(1 << 26).has_value());
    // Every agent must have learned rumor 2 in gossip no later than the
    // matching broadcast informed it (they are equal; ≤ is the invariant
    // robust to tie-breaking, equality checked via the completion times in
    // the parameterized test above).
    for (std::int32_t a = 0; a < cfg.k; ++a) {
        EXPECT_TRUE(gossip.rumors().knows(a, 2));
        EXPECT_TRUE(broadcast.rumor().is_informed(a));
    }
}

// Frog model with every agent informed at t = 0 behaves like the dynamic
// model (all agents move): with k = 1 both are trivially complete.
TEST(Equivalence, SingleAgentAllModelsImmediate) {
    EngineConfig cfg;
    cfg.side = 6;
    cfg.k = 1;
    for (const auto mobility : {Mobility::kAllMove, Mobility::kInformedOnly}) {
        cfg.mobility = mobility;
        BroadcastProcess p{cfg};
        EXPECT_TRUE(p.complete());
    }
}

}  // namespace
}  // namespace smn::core
