// Churn scenario: broadcast under per-step agent replacement (robustness
// extension beyond the paper; see models/churn.hpp for the two regimes).
#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"
#include "models/churn.hpp"

namespace smn::exp {
namespace {

SMN_REGISTER_SCENARIO(
    churn_scenario,
    Scenario{
        .name = "churn",
        .title = "broadcast under agent churn (replacement rate p)",
        .claim = "relocation churn accelerates T_B; knowledge-resetting churn "
                 "risks rumor extinction",
        .params =
            std::vector<ParamSpec>{
                {"side", "24", "grid side; n = side^2"},
                {"k", "16", "agent count: integer or log/sqrt/linear of n"},
                {"rate", "0.001", "per-agent per-step replacement probability"},
                {"reset", "1", "1: replacements arrive uninformed, 0: relocation only"},
                {"cap", "4194304", "step cap per replication"},
            },
        .default_sweep = "side=24;k=16;rate=0,0.0005,0.005;reset=0,1",
        .quick_sweep = "side=12;k=8;rate=0,0.005;reset=1",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                models::ChurnConfig cfg;
                cfg.side = p.narrow<grid::Coord>("side", p.get_int("side"));
                const std::int64_t n = std::int64_t{cfg.side} * cfg.side;
                cfg.k = p.narrow<std::int32_t>("k", p.get_count("k", n));
                cfg.churn_rate = p.get_double("rate");
                cfg.reset_knowledge = p.get_int("reset") != 0;
                cfg.seed = seed;
                const std::int64_t cap = p.get_int("cap");
                const auto res = models::run_churn_broadcast(cfg, cap);
                Metrics m;
                m["completed"] = res.completed ? 1.0 : 0.0;
                m["extinct"] = res.extinct ? 1.0 : 0.0;
                m["replacements"] = static_cast<double>(res.replacements);
                const std::int64_t steps = res.completed  ? res.broadcast_time
                                           : res.extinct ? res.extinction_time
                                                         : cap;
                m["steps"] = static_cast<double>(steps);
                if (res.completed) {
                    m["broadcast_time"] = static_cast<double>(res.broadcast_time);
                }
                return m;
            },
    });

}  // namespace

void link_scenarios_churn() {}

}  // namespace smn::exp
