// Broadcast-family scenarios: the paper's main process on the grid, the
// Frog-model variant, the torus boundary ablation, and the radius sweep
// across the percolation point. All share the EngineConfig plumbing, so
// they live in one translation unit behind one link anchor.
#include <cmath>

#include "core/bounds.hpp"
#include "core/broadcast.hpp"
#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"
#include "graph/percolation.hpp"
#include "models/frog.hpp"
#include "models/torus_broadcast.hpp"

namespace smn::exp {
namespace {

/// Shared parameter declarations of the grid-broadcast family.
const std::vector<ParamSpec> kGridParams{
    {"side", "24", "grid side; n = side^2"},
    {"k", "16", "agent count: integer or log/sqrt/linear of n"},
    {"radius", "0", "transmission radius r"},
};

core::EngineConfig engine_config(const ScenarioParams& p, std::uint64_t seed) {
    core::EngineConfig cfg;
    cfg.side = p.narrow<grid::Coord>("side", p.get_int("side"));
    cfg.k = p.narrow<std::int32_t>("k", p.get_count("k", cfg.n()));
    cfg.radius = p.get_int("radius");
    cfg.seed = seed;
    return cfg;
}

Metrics broadcast_metrics(const core::BroadcastResult& res) {
    Metrics m;
    m["completed"] = res.completed ? 1.0 : 0.0;
    m["steps"] = static_cast<double>(res.steps_run);
    if (res.completed) m["broadcast_time"] = static_cast<double>(res.broadcast_time);
    return m;
}

SMN_REGISTER_SCENARIO(
    grid_scenario,
    Scenario{
        .name = "grid_broadcast",
        .title = "single-rumor broadcast on the sqrt(n) x sqrt(n) grid",
        .claim = "T_B = Theta~(n/sqrt(k)) for every r below r_c (Thm 1)",
        .params = kGridParams,
        .default_sweep = "side=16,24,32,48;k=16;radius=0",
        .quick_sweep = "side=12,16;k=8",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                return broadcast_metrics(core::run_broadcast(engine_config(p, seed)));
            },
    });

SMN_REGISTER_SCENARIO(
    frog_scenario,
    Scenario{
        .name = "frog_broadcast",
        .title = "Frog model: only informed agents move (Sec. 4)",
        .claim = "same Theta~(n/sqrt(k)) broadcast scale as the dynamic model",
        .params = kGridParams,
        .default_sweep = "side=24;k=8,16,32,64",
        .quick_sweep = "side=12;k=4,8",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                return broadcast_metrics(models::run_frog_broadcast(engine_config(p, seed)));
            },
    });

SMN_REGISTER_SCENARIO(
    torus_scenario,
    Scenario{
        .name = "torus_broadcast",
        .title = "boundary ablation: the same broadcast on the torus (r = 0)",
        .claim = "boundaries change T_B only by constants (Lemma 1 reflection)",
        .params =
            std::vector<ParamSpec>{
                {"side", "24", "torus side; n = side^2"},
                {"k", "16", "agent count: integer or log/sqrt/linear of n"},
            },
        .default_sweep = "side=24,48;k=log,sqrt",
        .quick_sweep = "side=12,16;k=log",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                models::TorusConfig cfg;
                cfg.side = p.narrow<grid::Coord>("side", p.get_int("side"));
                const std::int64_t n = std::int64_t{cfg.side} * cfg.side;
                cfg.k = p.narrow<std::int32_t>("k", p.get_count("k", n));
                cfg.seed = seed;
                const auto cap = core::bounds::default_max_steps(n, cfg.k);
                const auto res = models::run_torus_broadcast(cfg, cap);
                Metrics m;
                m["completed"] = res.completed ? 1.0 : 0.0;
                m["steps"] =
                    static_cast<double>(res.completed ? res.broadcast_time : cap);
                if (res.completed) {
                    m["broadcast_time"] = static_cast<double>(res.broadcast_time);
                }
                return m;
            },
    });

SMN_REGISTER_SCENARIO(
    percolation_scenario,
    Scenario{
        .name = "percolation_radius",
        .title = "broadcast time vs r/r_c across the percolation boundary",
        .claim = "plateau below r_c ~ sqrt(n/k), collapse above (Thm 1+2)",
        .params =
            std::vector<ParamSpec>{
                {"side", "32", "grid side; n = side^2"},
                {"k", "16", "agent count: integer or log/sqrt/linear of n"},
                {"rfrac", "0", "transmission radius as a fraction of r_c"},
            },
        .default_sweep = "side=32;k=16;rfrac=0,0.25,0.5,0.75,1,1.5,2",
        .quick_sweep = "side=16;k=8;rfrac=0,0.5,1,2",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                core::EngineConfig cfg;
                cfg.side = p.narrow<grid::Coord>("side", p.get_int("side"));
                cfg.k = p.narrow<std::int32_t>("k", p.get_count("k", cfg.n()));
                const double rc = graph::percolation_radius(cfg.n(), cfg.k);
                cfg.radius =
                    static_cast<std::int64_t>(std::llround(p.get_double("rfrac") * rc));
                cfg.seed = seed;
                auto m = broadcast_metrics(core::run_broadcast(cfg));
                m["radius"] = static_cast<double>(cfg.radius);
                return m;
            },
    });

}  // namespace

void link_scenarios_broadcast() {}

}  // namespace smn::exp
