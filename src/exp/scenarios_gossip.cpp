// Gossip scenario: k distinct rumors, all-to-all dissemination (Cor. 2).
#include "core/bounds.hpp"
#include "core/gossip.hpp"
#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"

namespace smn::exp {
namespace {

SMN_REGISTER_SCENARIO(
    gossip_scenario,
    Scenario{
        .name = "gossip",
        .title = "gossip time T_G: k rumors, every agent a source",
        .claim = "T_G = O~(n/sqrt(k)), the same scale as one broadcast (Cor 2)",
        .params =
            std::vector<ParamSpec>{
                {"side", "24", "grid side; n = side^2"},
                {"k", "16", "agent count: integer or log/sqrt/linear of n"},
            },
        .default_sweep = "side=24;k=8,16,32",
        .quick_sweep = "side=12;k=4,8",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                core::EngineConfig cfg;
                cfg.side = p.narrow<grid::Coord>("side", p.get_int("side"));
                cfg.k = p.narrow<std::int32_t>("k", p.get_count("k", cfg.n()));
                cfg.radius = 0;
                cfg.seed = seed;
                const auto cap = core::bounds::default_max_steps(cfg.n(), cfg.k);
                const auto res = core::run_gossip(cfg, cap);
                Metrics m;
                m["completed"] = res.completed ? 1.0 : 0.0;
                m["steps"] = static_cast<double>(res.completed ? res.gossip_time : cap);
                m["mean_rumor_broadcast_time"] = res.mean_rumor_broadcast_time;
                if (res.completed) {
                    m["gossip_time"] = static_cast<double>(res.gossip_time);
                    m["min_rumor_broadcast_time"] =
                        static_cast<double>(res.min_rumor_broadcast_time);
                }
                return m;
            },
    });

}  // namespace

void link_scenarios_gossip() {}

}  // namespace smn::exp
