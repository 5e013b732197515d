#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "graph/visibility.hpp"
#include "obs/registry.hpp"

namespace smn::core {

EngineConfig validate_config(EngineConfig config) {
    if (config.side < 1) {
        throw std::invalid_argument("EngineConfig: side must be >= 1");
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
    if (config.metric > grid::Metric::kEuclidean) {
        throw std::invalid_argument("EngineConfig: unknown metric " +
                                    std::to_string(static_cast<int>(config.metric)));
    }
    if (config.walk > walk::WalkKind::kLazyHalf) {
        throw std::invalid_argument("EngineConfig: unknown walk " +
                                    std::to_string(static_cast<int>(config.walk)));
    }
    if (config.mobility > Mobility::kInformedOnly) {
        throw std::invalid_argument("EngineConfig: unknown mobility " +
                                    std::to_string(static_cast<int>(config.mobility)));
    }
    return config;
}

namespace {

rng::Rng make_rng(const EngineConfig& config) { return rng::Rng{config.seed}; }

walk::AgentEnsemble make_agents(const EngineConfig& config, rng::Rng& rng) {
    return walk::AgentEnsemble{grid::Grid2D::square(config.side), config.k, rng, config.walk};
}

/// ⌊√v⌋ for v >= 0, exact: the double estimate is corrected in integers.
std::int64_t isqrt(std::int64_t v) noexcept {
    auto s = static_cast<std::int64_t>(std::sqrt(static_cast<double>(v)));
    while (s * s > v) --s;
    while ((s + 1) * (s + 1) <= v) ++s;
    return s;
}

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

const BroadcastState& validate(const BroadcastState& state) {
    (void)validate_config(state.config);
    const auto k = static_cast<std::size_t>(state.config.k);
    if (state.positions.size() != k || state.informed.size() != k ||
        state.informed_time.size() != k) {
        throw std::invalid_argument("BroadcastState: vector sizes disagree with k");
    }
    if (state.t < 0) throw std::invalid_argument("BroadcastState: t must be >= 0");
    return state;
}

}  // namespace

BroadcastProcess::BroadcastProcess(const EngineConfig& config)
    : config_{validate_config(config)},
      rng_{make_rng(config_)},
      agents_{make_agents(config_, rng_)},
      builder_{agents_.grid(), config_.radius, config_.metric},
      dsu_{static_cast<std::size_t>(config_.k)},
      rumor_{config_.k, config_.source},
      root_informed_(static_cast<std::size_t>(config_.k), 0),
      move_mask_(static_cast<std::size_t>(config_.k), 0) {
    // Initial exchange at t = 0: the rumor floods the source's component
    // of G_0(r) before anyone moves.
    builder_.build(agents_.positions(), dsu_);
    exchange();
    notify();
    // One-shot trace arming (smn_lab --trace): the first engine built
    // after obs::arm_trace claims the sink. Purely observational — the
    // only engine-side effect is phase timing, which touches no state the
    // trajectories depend on.
    set_trace(obs::claim_trace());
}

BroadcastProcess::BroadcastProcess(const BroadcastState& state)
    : config_{validate(state).config},
      rng_{rng::Xoshiro256StarStar{state.rng_state}},
      agents_{grid::Grid2D::square(config_.side), state.positions, config_.walk},
      builder_{agents_.grid(), config_.radius, config_.metric},
      dsu_{static_cast<std::size_t>(config_.k)},
      rumor_{state.informed, state.informed_time},
      t_{state.t},
      root_informed_(static_cast<std::size_t>(config_.k), 0),
      move_mask_(static_cast<std::size_t>(config_.k), 0) {
    // No t = 0 exchange: the captured state is post-exchange of step t.
    // Rebuilding the index gives the partition of the captured positions;
    // representatives may differ from the original run's incremental
    // build, but the exchange rule only reads the partition, so
    // trajectories cannot diverge.
    builder_.build(agents_.positions(), dsu_);
    set_trace(obs::claim_trace());
}

BroadcastState BroadcastProcess::capture() const {
    BroadcastState state;
    state.config = config_;
    state.rng_state = rng_.engine().state();
    const auto positions = agents_.positions();
    state.positions.assign(positions.begin(), positions.end());
    const auto flags = rumor_.flags();
    state.informed.assign(flags.begin(), flags.end());
    const auto times = rumor_.times();
    state.informed_time.assign(times.begin(), times.end());
    state.t = t_;
    return state;
}

BroadcastProcess::~BroadcastProcess() {
#if SMN_OBS_ENABLED
    // Moved-from shells keep their (trivially copyable) tally totals;
    // flushing them too would double-count. A move empties the ensemble's
    // vectors, so count() == 0 identifies a shell.
    if (agents_.count() == 0) return;
    auto& registry = obs::Registry::instance();
    for (const auto& [name, value] : counters()) {
        registry.counter(std::string{"engine."} + name)
            .add(static_cast<std::int64_t>(value));
    }
#endif
}

std::vector<std::pair<const char*, double>> BroadcastProcess::counters() const {
    const auto& scan = builder_.scan_stats();
    const auto& index = builder_.index_stats();
    const auto& dsu = dsu_.stats();
    const auto& walk = agents_.decode_stats();
    const auto d = [](std::int64_t v) { return static_cast<double>(v); };
    return {
        {"scan.passes", d(scan.passes)},
        {"scan.bypass_passes", d(scan.bypass_passes)},
        {"scan.units_rescanned", d(scan.rescanned_units)},
        {"scan.units_replayed", d(scan.replayed_units)},
        {"scan.dirty_buckets", d(scan.dirty_buckets)},
        {"scan.pairs_tested", d(scan.pairs_tested)},
        {"scan.pairs_survived", d(scan.pairs_survived)},
        {"scan.edges_cached", d(scan.edges_cached)},
        {"scan.edges_replayed", d(scan.edges_replayed)},
        {"index.moves", d(index.moves)},
        {"index.relinks", d(index.relinks)},
        {"index.dirty_marks", d(index.dirty_marks)},
        {"index.rebuilds", d(index.rebuilds)},
        {"dsu.unites", d(dsu.unites)},
        {"dsu.fast_path_hits", d(dsu.fast_path_hits)},
        {"walk.blocks_decoded", d(walk.blocks_decoded)},
        {"walk.blocks_scalar", d(walk.blocks_scalar)},
        {"cert.checks", d(cert_.checks)},
        {"cert.pairs_tested", d(cert_.pairs_tested)},
        {"cert.quiet_steps", d(cert_.quiet_steps)},
    };
}

void BroadcastProcess::set_trace(obs::StepTrace* trace) noexcept {
    trace_ = trace;
    if (trace_ != nullptr) {
        set_phase_timing(true);
        // Baseline at attach time, so the first traced step's deltas cover
        // that step only — not the construction-time build pass.
        trace_prev_ = trace_totals();
    }
}

/// Current cumulative totals of every traced engine counter and phase.
obs::StepRecord BroadcastProcess::trace_totals() const noexcept {
    obs::StepRecord cur{};
    const auto ph = phase_timings();
    cur.walk_s = ph.walk_s;
    cur.index_s = ph.index_s;
    cur.components_s = ph.components_s;
    cur.exchange_s = ph.exchange_s;
    const auto& scan = builder_.scan_stats();
    cur.rescanned = scan.rescanned_units;
    cur.replayed = scan.replayed_units;
    cur.bypass = scan.bypass_passes;
    cur.pairs_tested = scan.pairs_tested;
    cur.pairs_survived = scan.pairs_survived;
    cur.edges_cached = scan.edges_cached;
    cur.edges_replayed = scan.edges_replayed;
    cur.dirty_buckets = scan.dirty_buckets;
    const auto& index = builder_.index_stats();
    cur.index_moves = index.moves;
    cur.index_relinks = index.relinks;
    const auto& dsu = dsu_.stats();
    cur.dsu_unites = dsu.unites;
    cur.dsu_fast_hits = dsu.fast_path_hits;
    const auto& walk = agents_.decode_stats();
    cur.blocks_decoded = walk.blocks_decoded;
    cur.blocks_scalar = walk.blocks_scalar;
    cur.quiet = cert_.quiet_steps;
    return cur;
}

/// Pushes one StepRecord: deltas of every cumulative engine counter and
/// phase total since the previous traced step, plus instantaneous gauges.
void BroadcastProcess::trace_step() {
    if (trace_ == nullptr) return;
    const obs::StepRecord cur = trace_totals();
    obs::StepRecord rec{};
    rec.step = t_;
    rec.walk_s = cur.walk_s - trace_prev_.walk_s;
    rec.index_s = cur.index_s - trace_prev_.index_s;
    rec.components_s = cur.components_s - trace_prev_.components_s;
    rec.exchange_s = cur.exchange_s - trace_prev_.exchange_s;
    rec.rescanned = cur.rescanned - trace_prev_.rescanned;
    rec.replayed = cur.replayed - trace_prev_.replayed;
    rec.bypass = cur.bypass - trace_prev_.bypass;
    rec.pairs_tested = cur.pairs_tested - trace_prev_.pairs_tested;
    rec.pairs_survived = cur.pairs_survived - trace_prev_.pairs_survived;
    rec.edges_cached = cur.edges_cached - trace_prev_.edges_cached;
    rec.edges_replayed = cur.edges_replayed - trace_prev_.edges_replayed;
    rec.dirty_buckets = cur.dirty_buckets - trace_prev_.dirty_buckets;
    rec.index_moves = cur.index_moves - trace_prev_.index_moves;
    rec.index_relinks = cur.index_relinks - trace_prev_.index_relinks;
    rec.dsu_unites = cur.dsu_unites - trace_prev_.dsu_unites;
    rec.dsu_fast_hits = cur.dsu_fast_hits - trace_prev_.dsu_fast_hits;
    rec.blocks_decoded = cur.blocks_decoded - trace_prev_.blocks_decoded;
    rec.blocks_scalar = cur.blocks_scalar - trace_prev_.blocks_scalar;
    rec.quiet = cur.quiet - trace_prev_.quiet;
    rec.units = builder_.occupied_units();
    rec.informed = rumor_.informed_count();
    rec.components = static_cast<std::int64_t>(dsu_.set_count());
    trace_->push(rec);
    trace_prev_ = cur;
}

void BroadcastProcess::step() {
    ++t_;
    // smn-lint: allow(wall-clock) timing-only telemetry, gated behind timing_
    using clock = std::chrono::steady_clock;
    const auto stamp = [this] { return timing_ ? clock::now() : clock::time_point{}; };
    const auto t0 = stamp();
    // Exchange-free step (certified by the last idle pass, or saturated):
    // with nothing observing the partition, neither the component pass nor
    // the exchange can change observable state, so the step is the walk.
    const bool saturated = rumor_.all_informed();
    const bool quiet = observers_.empty() && (quiet_ > 0 || saturated);
    // Node changes feed the incremental spatial index, quiet steps
    // included: the dirty epoch stays open until the next pass, which then
    // rescans every bucket touched since the last one. Past saturation the
    // quiet window never ends, so the walk stops feeding the index and the
    // catch-up re-indexes from scratch instead.
    unindexed_ = unindexed_ || (quiet && saturated);
    const bool hook = !unindexed_;
    const auto report = [this, hook](walk::AgentId a, grid::Point from, grid::Point to) {
        if (hook) builder_.on_move(a, from, to);
    };
    if (config_.mobility == Mobility::kAllMove) {
        agents_.step_all(rng_, report);
    } else {
        // Frog model: agents informed *before* this step's motion walk;
        // agents informed during this step's exchange start moving next
        // step. Copy the flags because exchange mutates them.
        const auto flags = rumor_.flags();
        std::copy(flags.begin(), flags.end(), move_mask_.begin());
        agents_.step_subset(rng_, move_mask_, report);
    }
    stale_ = true;
    const auto t1 = stamp();
    if (timing_) walk_seconds_ += std::chrono::duration<double>(t1 - t0).count();
    if (quiet) {
        if (quiet_ > 0) --quiet_;
        ++cert_.quiet_steps;
        trace_step();
        return;
    }
    refresh_components();
    const auto t2 = stamp();
    const auto informed_before = rumor_.informed_count();
    exchange();
    // An idle pass certifies how many of the next steps stay exchange-free.
    const bool idle = rumor_.informed_count() == informed_before && !rumor_.all_informed();
    quiet_ = idle && observers_.empty() ? certify() : 0;
    if (timing_) exchange_seconds_ += std::chrono::duration<double>(clock::now() - t2).count();
    trace_step();
    notify();
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
            d = isqrt(scan.template operator()<grid::Metric::kEuclidean>(stop_sq));
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

void BroadcastProcess::refresh_components() {
    if (!stale_) return;  // no step since the last pass
    // One pass over every bucket dirtied since the last one (a single step,
    // or a whole run of exchange-free steps), or a from-scratch re-index
    // once the index stopped tracking moves. Accounted under the rebuild
    // phase so phase_timings() subtraction stays consistent.
    // smn-lint: allow(wall-clock) timing-only telemetry, gated behind timing_
    using clock = std::chrono::steady_clock;
    const auto t0 = timing_ ? clock::now() : clock::time_point{};
    if (unindexed_) {
        builder_.build(agents_.positions(), dsu_);
    } else {
        builder_.rebuild_components(agents_.positions(), dsu_);
    }
    if (timing_) rebuild_seconds_ += std::chrono::duration<double>(clock::now() - t0).count();
    stale_ = false;
    unindexed_ = false;
}

void BroadcastProcess::set_phase_timing(bool on) noexcept {
    timing_ = on;
    builder_.set_timing(on);
}

StepPhaseTimings BroadcastProcess::phase_timings() const noexcept {
    StepPhaseTimings timings;
    timings.walk_s = walk_seconds_;
    timings.index_s = builder_.prep_seconds();
    // Clamp: clock granularity can make the prep total nominally exceed
    // the enclosing rebuild total.
    timings.components_s = std::max(0.0, rebuild_seconds_ - builder_.prep_seconds());
    timings.exchange_s = exchange_seconds_;
    return timings;
}

std::optional<std::int64_t> BroadcastProcess::run_until_complete(std::int64_t max_steps) {
    while (!complete()) {
        if (t_ >= max_steps) return std::nullopt;
        step();
    }
    return t_;
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
    // every informed component is homogeneous.
    if (!any_mixed) return;
    for (std::int32_t a = 0; a < k; ++a) {
        const auto root = static_cast<std::size_t>(labels_[static_cast<std::size_t>(a)]);
        if (root_informed_[root] == 3 && !rumor_.is_informed(a)) {
            rumor_.inform(a, t_);
        }
    }
}

void BroadcastProcess::notify() {
    if (observers_.empty()) return;
    StepView view{
        .time = t_, .positions = agents_.positions(), .components = dsu_, .rumor = rumor_};
    for (auto* obs : observers_) obs->on_step(view);
}

}  // namespace smn::core
