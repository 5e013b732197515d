#include "core/engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>


namespace smn::core {

EngineConfig validate_config(EngineConfig config) {
    if (config.side < 1 || config.side > graph::kMaxSide) {
        throw std::invalid_argument("EngineConfig: side " + std::to_string(config.side) +
                                    " is outside [1, 2^30]");
    }
    if (config.k < 1) {
        throw std::invalid_argument("EngineConfig: k must be >= 1");
    }
    if (config.radius < 0) {
        throw std::invalid_argument("EngineConfig: radius must be >= 0");
    }
    if (config.source < 0 || config.source >= config.k) {
        throw std::invalid_argument("EngineConfig: source " + std::to_string(config.source) +
                                    " out of range [0," + std::to_string(config.k) + ")");
    }
    // Enumerators arrive unchecked from snapshots; an undeclared one would
    // match no case of the metric, walk or mobility dispatch.
    const auto declared = [](auto value, auto last, const char* what) {
        if (value <= last) return;
        throw std::invalid_argument(std::string{"EngineConfig: unknown "} + what + " " +
                                    std::to_string(static_cast<int>(value)));
    };
    declared(config.metric, grid::Metric::kEuclidean, "metric");
    declared(config.walk, walk::WalkKind::kLazyHalf, "walk");
    declared(config.mobility, Mobility::kInformedOnly, "mobility");
    return config;
}

BroadcastProcess::BroadcastProcess(const EngineConfig& config)
    : StepLoop{config},
      rumor_{config_.k, config_.source},
      root_informed_(static_cast<std::size_t>(config_.k), 0) {
    collect_movers();
    start(/*fresh=*/true);
}

BroadcastProcess::BroadcastProcess(const BroadcastState& state)
    : StepLoop{state.config, state.rng_state, state.positions, state.t},
      rumor_{state.informed, state.informed_time},
      root_informed_(static_cast<std::size_t>(config_.k), 0) {
    if (rumor_.agent_count() != config_.k) {
        throw std::invalid_argument("BroadcastState: vector sizes disagree with k");
    }
    const auto times = rumor_.times();
    for (std::int32_t a = 0; a < config_.k; ++a) {
        check_event_time(times[static_cast<std::size_t>(a)], rumor_.is_informed(a), t_,
                         "BroadcastState: informed time");
    }
    collect_movers();
    start(/*fresh=*/false);
}

BroadcastState BroadcastProcess::capture() const {
    auto state = capture_loop<BroadcastState>();
    const auto flags = rumor_.flags();
    state.informed.assign(flags.begin(), flags.end());
    const auto times = rumor_.times();
    state.informed_time.assign(times.begin(), times.end());
    return state;
}

void BroadcastProcess::collect_movers() {
    // Under all-move nobody reads the list, and regrowing it to k in every
    // replication fragments the heap (+11 B/agent peak RSS over 200
    // replications at side 256 / k 4096).
    if (config_.mobility != Mobility::kInformedOnly) return;
    movers_.clear();
    const auto flags = rumor_.flags();
    for (std::size_t a = 0; a < flags.size(); ++a) {
        if (flags[a] != 0) movers_.push_back(static_cast<std::int32_t>(a));
    }
}

std::optional<std::int64_t> BroadcastProcess::certify() {
    ++cert_.checks;
    const auto positions = agents_.positions();
    const auto& index = builder_.sync(positions);
    const auto flags = rumor_.flags();
    const auto r = config_.radius;
    // Search from the smaller side; the predicate selects the other one.
    const bool from_informed = 2 * std::int64_t{rumor_.informed_count()} <= config_.k;
    const std::uint8_t near_flag = from_informed ? 1 : 0;
    const auto far = [&](std::int32_t a) {
        return flags[static_cast<std::size_t>(a)] != near_flag;
    };
    // The near side: under Frog mobility with the informed side smaller,
    // the movers list (the informed agents), else every agent filtered by
    // flag. On frog_r1_window the list, about 20 ids against 4 096 flags,
    // nearly doubles steps/s (performance.md).
    const bool by_id = from_informed && !movers_.empty();
    const auto near_count = by_id ? movers_.size() : flags.size();
    const auto min_cross_key = [&]<grid::Metric M>(std::int64_t stop_key) {
        std::int64_t best = std::numeric_limits<std::int64_t>::max();
        for (std::size_t i = 0; i < near_count && best > stop_key; ++i) {
            const auto a = by_id ? static_cast<std::size_t>(movers_[i]) : i;
            if (flags[a] != near_flag) continue;
            best = index.min_key<M>(positions[a], best, far, cert_.pairs_tested);
        }
        return best;
    };
    // D, or ⌊D⌋ under L2, whose squared keys decide D ≤ r exactly.
    std::int64_t d = 0;
    switch (config_.metric) {
        case grid::Metric::kManhattan:
            d = min_cross_key.template operator()<grid::Metric::kManhattan>(r);
            if (d <= r) return std::nullopt;
            break;
        case grid::Metric::kChebyshev:
            d = min_cross_key.template operator()<grid::Metric::kChebyshev>(r);
            if (d <= r) return std::nullopt;
            break;
        case grid::Metric::kEuclidean: {
            const auto d_sq = min_cross_key.template operator()<grid::Metric::kEuclidean>(r * r);
            if (d_sq <= r * r) return std::nullopt;
            d = grid::isqrt(d_sq);
            break;
        }
    }
    // Each step moves every walker at most one unit, so a pair's distance
    // shrinks by at most 2 per step (1 under Frog, where the uninformed
    // side is frozen); it stays above r for these many steps. Under L2,
    // ⌊D⌋ may equal r, which certifies this step alone.
    const auto slack = std::max<std::int64_t>(0, d - r - 1);
    return config_.mobility == Mobility::kInformedOnly ? slack : slack / 2;
}

void BroadcastProcess::exchange() {
    // Saturated: no component can learn anything new.
    if (rumor_.all_informed()) return;
    // Pass 1: one find per agent (the labels buffer remembers it for pass
    // 2, so this is the only find pass), classifying each component —
    // bit 0: has an informed member, bit 1: has an uninformed member.
    std::fill(root_informed_.begin(), root_informed_.end(), std::uint8_t{0});
    const auto k = config_.k;
    labels_.resize(static_cast<std::size_t>(k));
    bool any_mixed = false;
    for (std::int32_t a = 0; a < k; ++a) {
        const auto root = dsu_.find(a);
        labels_[static_cast<std::size_t>(a)] = root;
        auto& state = root_informed_[static_cast<std::size_t>(root)];
        state |= rumor_.is_informed(a) ? std::uint8_t{1} : std::uint8_t{2};
        any_mixed |= state == 3;
    }
    // Pass 2: flood only mixed components (fully informed ones — the
    // common case late in a run — need no work). Skipped outright when
    // every informed component is homogeneous; any mixed component
    // informs at least one agent.
    if (!any_mixed) return;
    for (std::int32_t a = 0; a < k; ++a) {
        const auto root = static_cast<std::size_t>(labels_[static_cast<std::size_t>(a)]);
        if (root_informed_[root] == 3 && !rumor_.is_informed(a)) {
            rumor_.inform(a, t_);
        }
    }
    collect_movers();
}

void BroadcastProcess::notify() {
    if (observers_.empty()) return;
    StepView view{
        .time = t_, .positions = agents_.positions(), .components = dsu_, .rumor = rumor_};
    for (auto* obs : observers_) obs->on_step(view);
}

template class StepLoop<BroadcastProcess>;

}  // namespace smn::core
