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

namespace {

/// Smallest distance key between (x, y) and the n points (xs[i], ys[i]):
/// the metric distance for L1 and L∞, its square for L2. Branch-free, so
/// the loop vectorizes; L1 and L∞ keys fit uint32 on any int32 grid.
template <grid::Metric M>
std::int64_t nearest_key(grid::Coord x, grid::Coord y, const grid::Coord* xs,
                         const grid::Coord* ys, std::size_t n) noexcept {
    if constexpr (M == grid::Metric::kEuclidean) {
        std::int64_t best = std::numeric_limits<std::int64_t>::max();
        for (std::size_t i = 0; i < n; ++i) {
            const std::int64_t dx = std::int64_t{xs[i]} - x;
            const std::int64_t dy = std::int64_t{ys[i]} - y;
            best = std::min(best, dx * dx + dy * dy);
        }
        return best;
    } else {
        std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
        for (std::size_t i = 0; i < n; ++i) {
            const std::int32_t dx = xs[i] - x;
            const std::int32_t dy = ys[i] - y;
            const auto adx = static_cast<std::uint32_t>(dx < 0 ? -dx : dx);
            const auto ady = static_cast<std::uint32_t>(dy < 0 ? -dy : dy);
            const auto key = M == grid::Metric::kManhattan ? adx + ady : std::max(adx, ady);
            best = std::min(best, key);
        }
        return best;
    }
}

/// Minimum key between the agents whose flag differs from `near_flag`
/// (the far side, scanned in id order) and the gathered near side. Stops
/// as soon as the minimum is at most `stop_key`; `pairs` counts the
/// distances evaluated.
template <grid::Metric M>
std::int64_t min_cross_key(std::span<const grid::Point> positions,
                           std::span<const std::uint8_t> flags, std::uint8_t near_flag,
                           const std::vector<grid::Coord>& xs,
                           const std::vector<grid::Coord>& ys, std::int64_t stop_key,
                           std::int64_t& pairs) noexcept {
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (std::size_t a = 0; a < positions.size(); ++a) {
        if (flags[a] == near_flag) continue;
        pairs += static_cast<std::int64_t>(xs.size());
        best = std::min(best,
                        nearest_key<M>(positions[a].x, positions[a].y, xs.data(), ys.data(),
                                       xs.size()));
        if (best <= stop_key) break;
    }
    return best;
}

}  // namespace

BroadcastProcess::BroadcastProcess(const EngineConfig& config)
    : StepLoop{config},
      rumor_{config_.k, config_.source},
      root_informed_(static_cast<std::size_t>(config_.k), 0) {
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

std::int64_t BroadcastProcess::certify() {
    ++cert_.checks;
    const bool frog = config_.mobility == Mobility::kInformedOnly;
    // D at or below `stop` certifies nothing: ⌊(D − r − 1)/2⌋ (all-move) or
    // D − r − 1 (Frog) is zero there.
    const std::int64_t stop = config_.radius + (frog ? 1 : 2);
    // No two nodes are farther apart than 2(side − 1), in any metric.
    if (stop >= 2 * (std::int64_t{config_.side} - 1)) return 0;
    // Gather the smaller side; the scan then costs |near| per far agent.
    const auto flags = rumor_.flags();
    const auto positions = agents_.positions();
    const std::uint8_t near_flag = 2 * std::int64_t{rumor_.informed_count()} <= config_.k ? 1 : 0;
    near_x_.clear();
    near_y_.clear();
    for (std::size_t a = 0; a < flags.size(); ++a) {
        if (flags[a] != near_flag) continue;
        near_x_.push_back(positions[a].x);
        near_y_.push_back(positions[a].y);
    }
    std::int64_t d = 0;
    const auto scan = [&]<grid::Metric M>(std::int64_t stop_key) {
        return min_cross_key<M>(positions, flags, near_flag, near_x_, near_y_, stop_key,
                                cert_.pairs_tested);
    };
    switch (config_.metric) {
        case grid::Metric::kManhattan:
            d = scan.template operator()<grid::Metric::kManhattan>(stop);
            break;
        case grid::Metric::kChebyshev:
            d = scan.template operator()<grid::Metric::kChebyshev>(stop);
            break;
        case grid::Metric::kEuclidean: {
            // Squared keys; ⌊√D²⌋ ≤ stop exactly when D² < (stop + 1)².
            const auto stop_sq = (stop + 1) * (stop + 1) - 1;
            d = grid::isqrt(scan.template operator()<grid::Metric::kEuclidean>(stop_sq));
            break;
        }
    }
    if (d <= stop) return 0;
    // Each step moves every walker at most one unit, so a pair's distance
    // shrinks by at most 2 per step (1 under Frog, where the uninformed
    // side is frozen); it stays above r for these many steps.
    const auto slack = d - config_.radius - 1;
    return frog ? slack : slack / 2;
}

bool BroadcastProcess::exchange() {
    // Saturated: no component can learn anything new.
    if (rumor_.all_informed()) return false;
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
    if (!any_mixed) return false;
    for (std::int32_t a = 0; a < k; ++a) {
        const auto root = static_cast<std::size_t>(labels_[static_cast<std::size_t>(a)]);
        if (root_informed_[root] == 3 && !rumor_.is_informed(a)) {
            rumor_.inform(a, t_);
        }
    }
    return true;
}

void BroadcastProcess::notify() {
    if (observers_.empty()) return;
    StepView view{
        .time = t_, .positions = agents_.positions(), .components = dsu_, .rumor = rumor_};
    for (auto* obs : observers_) obs->on_step(view);
}

template class StepLoop<BroadcastProcess>;

}  // namespace smn::core
