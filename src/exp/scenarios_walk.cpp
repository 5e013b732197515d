// Meeting-time scenario: pairwise first-meeting times underlying the
// t* = O(n log n) infection bound quoted in Sec. 1.1.
#include <cmath>
#include <stdexcept>

#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"
#include "walk/ensemble.hpp"
#include "walk/meeting_time.hpp"

namespace smn::exp {
namespace {

SMN_REGISTER_SCENARIO(
    meeting_scenario,
    Scenario{
        .name = "meeting_time",
        .title = "first-meeting time of two lazy walks on the grid",
        .claim = "t* = O(n log n), worst starts at opposite corners ([1], Sec 1.1)",
        .params =
            std::vector<ParamSpec>{
                {"side", "16", "grid side; n = side^2"},
                {"starts", "random", "start geometry: random, adjacent, or corners"},
                {"capx", "64", "step cap as a multiple of n ln n"},
            },
        .default_sweep = "side=12,16,24;starts=random,adjacent,corners",
        .quick_sweep = "side=8,12;starts=corners",
        .run_rep =
            [](const ScenarioParams& p, std::uint64_t seed) {
                const auto side = p.narrow<grid::Coord>("side", p.get_int("side"));
                const auto g = grid::Grid2D::square(side);
                const std::int64_t n = g.size();
                const auto cap = static_cast<std::int64_t>(
                    static_cast<double>(p.get_int("capx")) * static_cast<double>(n) *
                    std::log(static_cast<double>(n)));
                rng::Rng rng{seed};
                const std::string& starts = p.get_string("starts");
                grid::Point a{0, 0};
                grid::Point b{0, 0};
                if (starts == "random") {
                    a = walk::AgentEnsemble::random_node(g, rng);
                    b = walk::AgentEnsemble::random_node(g, rng);
                } else if (starts == "adjacent") {
                    a = g.clamp(grid::Point{
                        static_cast<grid::Coord>(
                            rng.below(static_cast<std::uint64_t>(side - 1))),
                        static_cast<grid::Coord>(rng.below(static_cast<std::uint64_t>(side)))});
                    b = grid::Point{static_cast<grid::Coord>(a.x + 1), a.y};
                } else if (starts == "corners") {
                    b = grid::Point{static_cast<grid::Coord>(side - 1),
                                    static_cast<grid::Coord>(side - 1)};
                } else {
                    throw std::invalid_argument(
                        "meeting_time: starts must be random, adjacent, or corners, got '" +
                        starts + "'");
                }
                const auto met = walk::first_meeting_time(g, a, b, cap, rng);
                Metrics m;
                m["capped"] = met.has_value() ? 0.0 : 1.0;
                m["meeting_time"] = static_cast<double>(met.value_or(cap));
                m["steps"] = static_cast<double>(met.value_or(cap));
                return m;
            },
    });

}  // namespace

void link_scenarios_walk() {}

}  // namespace smn::exp
