// engine.hpp — the dissemination process of the paper.
//
// BroadcastProcess simulates the dynamic communication graph process
// {G_t(r) | t ≥ 0} of Sec. 2 for a single rumor:
//
//   t = 0 : k agents placed uniformly at random; the source knows the
//           rumor; the rumor floods the source's component of G_0(r).
//   step  : every agent makes one lazy-walk move (synchronized), the
//           visibility graph G_t(r) is rebuilt, and every component
//           containing an informed agent becomes fully informed —
//           M_a(t) = ∪_{a'∈C} M_{a'}(t−1), the "radio ≫ motion" rule.
//
// The broadcast time T_B is the first t with all agents informed.
//
// Mobility::kInformedOnly switches to the Frog-model dynamics of Sec. 4
// (only informed agents move; uninformed agents stay frozen until they are
// informed). Everything else (exchange rule, observers, termination) is
// identical, which is exactly how the paper extends its theorems.
//
// Observers attach to the loop and see the state after each exchange,
// including the initial one at t = 0. GossipProcess (gossip.hpp) runs on
// the same StepLoop with another rumor rule.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/rumor.hpp"
#include "graph/dsu.hpp"
#include "graph/visibility.hpp"
#include "grid/grid.hpp"
#include "grid/point.hpp"
#include "obs/registry.hpp"
#include "obs/step_trace.hpp"
#include "rng/rng.hpp"
#include "walk/ensemble.hpp"
#include "walk/step.hpp"

namespace smn::core {

/// Which agents move each step.
enum class Mobility : std::uint8_t {
    kAllMove,       ///< the paper's main model: all k agents walk
    kInformedOnly,  ///< Frog model (Sec. 4): only informed agents walk
};

[[nodiscard]] constexpr const char* mobility_name(Mobility m) noexcept {
    switch (m) {
        case Mobility::kAllMove: return "all-move";
        case Mobility::kInformedOnly: return "frog";
    }
    return "?";
}

/// Full parameterization of a dissemination run.
struct EngineConfig {
    grid::Coord side{64};                            ///< grid side; n = side²
    std::int32_t k{16};                              ///< number of agents
    std::int64_t radius{0};                          ///< transmission radius r
    grid::Metric metric{grid::Metric::kManhattan};   ///< paper: Manhattan
    walk::WalkKind walk{walk::WalkKind::kLazyPaper}; ///< paper: lazy 1/5
    Mobility mobility{Mobility::kAllMove};
    std::int32_t source{0};                          ///< source agent id
    std::uint64_t seed{1};

    /// Number of grid nodes n.
    [[nodiscard]] std::int64_t n() const noexcept { return std::int64_t{side} * side; }
};

/// The config check both processes run, fresh and restored: side in
/// [1, graph::kMaxSide], k >= 1, radius >= 0, source in [0, k), and
/// metric, walk and mobility naming a declared enumerator. Throws
/// std::invalid_argument; returns the config unchanged.
[[nodiscard]] EngineConfig validate_config(EngineConfig config);

/// Cumulative wall-clock attribution of the step loop's phases, captured
/// when phase timing is enabled (see StepLoop::set_phase_timing).
/// walk_s is the walk kernel alone; index_s is the component pass's
/// index-prep portion (the index catching up with the node changes it has
/// not seen, and taint expansion); components_s is the remainder of the
/// pass (pair scan / edge replay + unions); cert_s is the exchange-free
/// certificate, including the index sync it triggers; exchange_s is the
/// rumor exchange.
struct StepPhaseTimings {
    double walk_s{0.0};
    double index_s{0.0};
    double components_s{0.0};
    double cert_s{0.0};
    double exchange_s{0.0};
};

/// State snapshot passed to observers after each exchange.
struct StepView {
    std::int64_t time;                          ///< current t (0 = initial)
    std::span<const grid::Point> positions;     ///< agent positions at t
    graph::DisjointSets& components;            ///< partition of G_t(r)
    const SingleRumor& rumor;                   ///< knowledge state at t
};

/// Hook into the simulation loop. Observers are non-owning and must
/// outlive the process they are attached to.
class Observer {
public:
    virtual ~Observer() = default;
    virtual void on_step(const StepView& view) = 0;
};

/// Complete serializable state of a BroadcastProcess at a step boundary
/// (between step() calls). This is everything the future trajectory
/// depends on: the config, the raw xoshiro256** engine state, the agent
/// positions, and the rumor knowledge. Spatial index, component
/// partition, and visibility caches are all pure functions of the
/// positions and are rebuilt on restore; the walk's BlockRng buffer is
/// always fully consumed at step boundaries (every agent draws at least
/// one word per block, and fill() discards leftovers), so the engine
/// words alone pin the stream. io/snapshot.hpp serializes this struct.
struct BroadcastState {
    EngineConfig config;
    std::array<std::uint64_t, 4> rng_state{};     ///< xoshiro256** words
    std::vector<grid::Point> positions;           ///< index = agent id
    std::vector<std::uint8_t> informed;           ///< rumor flags
    std::vector<std::int64_t> informed_time;      ///< first-informed times
    std::int64_t t{0};                            ///< current step
};

/// The one step loop, walk → (certificate) → index → components →
/// exchange. It owns the config, RNG, agents, visibility builder,
/// partition, exchange-free window policy, phase timing, step trace and
/// counters. `Process` derives from StepLoop<Process> and supplies its
/// rumor rule, which the loop calls without virtual dispatch: complete();
/// movers(), the ascending ids of the agents that walk this step (empty:
/// every agent walks); exchange(), the rumor exchange over the partition;
/// certify(), the exchange-free certificate of the current positions
/// (nullopt: an exchange may inform, so run the pass; otherwise the step
/// is idle and the value is how many further steps stay exchange-free);
/// observed() and notify() for observers; and informed_agents(), the
/// trace gauge.
template <class Process>
class StepLoop {
public:
    // Non-copyable: the incremental spatial index views the ensemble's
    // position storage, which a copy would silently keep aliasing. Moves
    // are fine (vector storage survives a move).
    StepLoop(const StepLoop&) = delete;
    StepLoop& operator=(const StepLoop&) = delete;
    StepLoop(StepLoop&&) = default;
    StepLoop& operator=(StepLoop&&) = default;

    /// Flushes the engine's counters into the process-wide obs::Registry
    /// under the "engine." prefix (no-op under -DSMN_DISABLE_OBS, and for
    /// moved-from shells).
    ~StepLoop();

    /// Advances the process one time step: move, rebuild G_t(r), exchange.
    ///
    /// Exchange-free steps: while no observer is attached, every step
    /// outside a certified window first asks certify(). The pass and the
    /// exchange run only when it answers nullopt (for
    /// broadcast: the minimum informed–uninformed distance D is at most r,
    /// so an exchange informs someone). Otherwise the step is idle, and
    /// the certified window of the next steps only walks: they draw the
    /// same RNG words but skip the certificate, the pass and the exchange.
    /// The next sync catches the spatial index up with every move since the
    /// last one. After completion every step is exchange-free. A skipped
    /// pass is exactly an idle exchange, so trajectories are bit-identical
    /// to the always-full loop.
    void step();

    /// Steps until the process is complete or `max_steps` is reached.
    /// Returns the completion time (which may be 0) or nullopt on timeout.
    std::optional<std::int64_t> run_until_complete(std::int64_t max_steps) {
        while (!self().complete()) {
            if (t_ >= max_steps) return std::nullopt;
            step();
        }
        return t_;
    }

    [[nodiscard]] std::int64_t time() const noexcept { return t_; }
    [[nodiscard]] const walk::AgentEnsemble& agents() const noexcept { return agents_; }
    [[nodiscard]] const grid::Grid2D& grid() const noexcept { return agents_.grid(); }
    [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

    /// The component partition of G_t(r) at the current time step. step()
    /// skips the component pass on steps certified exchange-free and on
    /// every step after completion; this accessor brings the partition up
    /// to date on demand, so callers always see the partition of the
    /// current positions.
    [[nodiscard]] graph::DisjointSets& components() {
        refresh_components();
        return dsu_;
    }

    /// Enables cumulative per-phase wall-clock attribution of step().
    void set_phase_timing(bool on) noexcept {
        timing_ = on;
        builder_.set_timing(on);
    }

    /// Phase totals accumulated since construction (zeros unless
    /// set_phase_timing(true) was called before stepping). Clamped: clock
    /// granularity can make the prep total exceed the enclosing rebuild.
    [[nodiscard]] StepPhaseTimings phase_timings() const noexcept {
        const auto prep = builder_.prep_seconds();
        return {walk_seconds_, prep, std::max(0.0, rebuild_seconds_ - prep), cert_seconds_,
                exchange_seconds_};
    }

    /// Name → value of every engine counter, cumulative since
    /// construction (scan.*, index.*, dsu.*, walk.*, cert.*). Values are int64
    /// tallies widened to double for the metric pipeline; the gated ones
    /// read zero under -DSMN_DISABLE_OBS.
    [[nodiscard]] std::vector<std::pair<const char*, double>> counters() const;

    /// Attaches a per-step trace sink (non-owning; nullptr detaches).
    /// Tracing implies phase timing; it is purely observational and never
    /// affects trajectories. The process constructor also claims the
    /// process-wide armed trace (obs::arm_trace) automatically.
    void set_trace(obs::StepTrace* trace) noexcept {
        trace_ = trace;
        if (trace_ != nullptr) {
            set_phase_timing(true);
            // Baseline at attach time, so the first traced step's deltas
            // cover that step only — not the construction-time build pass.
            trace_prev_ = trace_totals();
        }
    }

protected:
    /// Exchange-free certificate telemetry (always on: one increment per
    /// certificate or skipped step).
    struct CertStats {
        std::int64_t checks{0};        ///< certificates computed
        std::int64_t pairs_tested{0};  ///< distances evaluated by certificates
        /// Steps that skipped the pass and exchange: inside a certified
        /// window, cleared by their own certificate, or after completion.
        std::int64_t quiet_steps{0};
    };

    /// Validates the config (validate_config), places and indexes agents.
    explicit StepLoop(const EngineConfig& config);

    /// Resumes a captured loop: RNG stream and positions continue exactly;
    /// the index and partition are rebuilt from the positions. Throws
    /// std::invalid_argument on an invalid config, a position count other
    /// than k, off-grid positions or t < 0.
    StepLoop(const EngineConfig& config, const std::array<std::uint64_t, 4>& rng_state,
             const std::vector<grid::Point>& positions, std::int64_t t);

    /// Ends every process constructor: indexes the agents, then a fresh
    /// process floods G_0(r) and notifies (a restored one is already
    /// post-exchange; its rebuilt partition may pick other representatives,
    /// which the exchange rules never read). Both claim the armed trace
    /// (obs::arm_trace), which only turns on phase timing.
    void start(bool fresh) {
        builder_.build(agents_.positions(), dsu_);
        if (fresh) {
            self().exchange();
            self().notify();
        }
        set_trace(obs::claim_trace());
    }

    /// A BroadcastState or GossipState holding the loop's fields.
    template <class State>
    [[nodiscard]] State capture_loop() const {
        State state;
        state.config = config_;
        state.rng_state = rng_.engine().state();
        state.positions.assign(agents_.positions().begin(), agents_.positions().end());
        state.t = t_;
        return state;
    }

    /// Restore check of an event time (an agent's informed time, a
    /// rumor's completion time): in [0, t] iff the event happened, else −1.
    static void check_event_time(std::int64_t time, bool happened, std::int64_t t,
                                 const char* what) {
        if (happened ? time >= 0 && time <= t : time == -1) return;
        throw std::invalid_argument(std::string{what} + " " + std::to_string(time) +
                                    " contradicts t = " + std::to_string(t) + " or the rumor");
    }

    EngineConfig config_;
    rng::Rng rng_;
    walk::AgentEnsemble agents_;
    graph::VisibilityGraphBuilder builder_;
    graph::DisjointSets dsu_;
    std::int64_t t_{0};
    std::vector<std::int32_t> labels_;  ///< scratch: component labels
    CertStats cert_;

private:
    [[nodiscard]] Process& self() noexcept { return static_cast<Process&>(*this); }
    void refresh_components();
    [[nodiscard]] obs::StepRecord trace_totals() const noexcept;
    void trace_step();

    std::int64_t quiet_{0};  ///< certified exchange-free steps still ahead
    bool stale_{false};      ///< dsu_ lags the positions (a step since the last pass)
    bool timing_{false};
    double walk_seconds_{0.0};
    double rebuild_seconds_{0.0};
    double cert_seconds_{0.0};
    double exchange_seconds_{0.0};
    obs::StepTrace* trace_{nullptr};  ///< per-step trace sink (non-owning)
    obs::StepRecord trace_prev_{};    ///< cumulative totals at the last traced step
};

// StepLoop's members. engine.cpp and gossip.cpp each instantiate one
// process's loop (extern elsewhere): with both in engine.cpp, the same
// source and flags gave a gossip step ~12% slower (GCC 12, -O3 -mavx2).

template <class Process>
StepLoop<Process>::StepLoop(const EngineConfig& config)
    : config_{validate_config(config)},
      rng_{config_.seed},
      agents_{grid::Grid2D::square(config_.side), config_.k, rng_, config_.walk},
      builder_{agents_.grid(), config_.radius, config_.metric},
      dsu_{static_cast<std::size_t>(config_.k)} {}

template <class Process>
StepLoop<Process>::StepLoop(const EngineConfig& config,
                            const std::array<std::uint64_t, 4>& rng_state,
                            const std::vector<grid::Point>& positions, std::int64_t t)
    : config_{validate_config(config)},
      rng_{rng::Xoshiro256StarStar{rng_state}},
      agents_{grid::Grid2D::square(config_.side), positions, config_.walk},
      builder_{agents_.grid(), config_.radius, config_.metric},
      dsu_{static_cast<std::size_t>(config_.k)},
      t_{t} {
    if (agents_.count() != config_.k || t < 0) {
        throw std::invalid_argument("restore: position count disagrees with k, or t < 0");
    }
}

template <class Process>
StepLoop<Process>::~StepLoop() {
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

template <class Process>
std::vector<std::pair<const char*, double>> StepLoop<Process>::counters() const {
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

/// Current cumulative totals of every traced engine counter and phase.
template <class Process>
obs::StepRecord StepLoop<Process>::trace_totals() const noexcept {
    obs::StepRecord cur{};
    const auto ph = phase_timings();
    cur.walk_s = ph.walk_s;
    cur.index_s = ph.index_s;
    cur.components_s = ph.components_s;
    cur.cert_s = ph.cert_s;
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
template <class Process>
void StepLoop<Process>::trace_step() {
    if (trace_ == nullptr) return;
    const obs::StepRecord cur = trace_totals();
    obs::StepRecord rec{};
    rec.step = t_;
    using R = obs::StepRecord;
    for (const auto phase :
         {&R::walk_s, &R::index_s, &R::components_s, &R::cert_s, &R::exchange_s}) {
        rec.*phase = cur.*phase - trace_prev_.*phase;
    }
    for (const auto count :
         {&R::rescanned, &R::replayed, &R::bypass, &R::pairs_tested, &R::pairs_survived,
          &R::edges_cached, &R::edges_replayed, &R::dirty_buckets, &R::index_moves,
          &R::index_relinks, &R::dsu_unites, &R::dsu_fast_hits, &R::blocks_decoded,
          &R::blocks_scalar, &R::quiet}) {
        rec.*count = cur.*count - trace_prev_.*count;
    }
    rec.units = builder_.occupied_units();
    rec.informed = self().informed_agents();
    rec.components = static_cast<std::int64_t>(dsu_.set_count());
    trace_->push(rec);
    trace_prev_ = cur;
}

template <class Process>
void StepLoop<Process>::step() {
    auto& process = self();
    ++t_;
    // smn-lint: allow(wall-clock) timing-only telemetry, gated behind timing_
    using clock = std::chrono::steady_clock;
    const auto stamp = [this] { return timing_ ? clock::now() : clock::time_point{}; };
    const auto t0 = stamp();
    const bool observed = process.observed();
    // The walk only writes positions; the next sync catches the spatial
    // index up with every node change since the last one.
    if (const auto movers = process.movers(); movers.empty()) {
        agents_.step_all(rng_);
    } else {
        agents_.step_ids(rng_, movers);
    }
    stale_ = true;
    const auto t1 = stamp();
    if (timing_) walk_seconds_ += std::chrono::duration<double>(t1 - t0).count();
    // Exchange-free step: complete, inside a certified window, or cleared
    // by its own certificate. With nothing observing
    // the partition, neither the pass nor the exchange can change
    // observable state, so the step is the walk.
    bool quiet = !observed && (process.complete() || quiet_ > 0);
    if (quiet) {
        if (quiet_ > 0) --quiet_;
    } else if (!observed) {
        const auto window = process.certify();
        if (timing_) cert_seconds_ += std::chrono::duration<double>(clock::now() - t1).count();
        quiet = window.has_value();
        quiet_ = window.value_or(0);
    }
    if (quiet) {
        ++cert_.quiet_steps;
        trace_step();
        return;
    }
    refresh_components();
    const auto t2 = stamp();
    process.exchange();
    if (timing_) exchange_seconds_ += std::chrono::duration<double>(clock::now() - t2).count();
    trace_step();
    process.notify();
}

template <class Process>
void StepLoop<Process>::refresh_components() {
    if (!stale_) return;  // no step since the last pass
    // One pass over every bucket dirtied since the last one (a single step,
    // or a whole run of exchange-free steps). Accounted under the rebuild
    // phase so phase_timings() subtraction stays consistent.
    // smn-lint: allow(wall-clock) timing-only telemetry, gated behind timing_
    using clock = std::chrono::steady_clock;
    const auto t0 = timing_ ? clock::now() : clock::time_point{};
    builder_.rebuild_components(agents_.positions(), dsu_);
    if (timing_) rebuild_seconds_ += std::chrono::duration<double>(clock::now() - t0).count();
    stale_ = false;
}

/// Single-rumor dissemination process (broadcast; Frog model via config).
class BroadcastProcess : public StepLoop<BroadcastProcess> {
public:
    /// Validates the config (validate_config), places agents, performs
    /// the t = 0 exchange.
    explicit BroadcastProcess(const EngineConfig& config);

    /// Restores a process captured by capture(): the RNG stream, positions
    /// and rumor state continue bit-identically (the determinism goldens
    /// assert this); the index and partition are rebuilt, and no t = 0
    /// exchange runs. Throws std::invalid_argument on inconsistent state:
    /// sizes vs k, off-grid positions, an informed time outside [0, t] or
    /// set for an uninformed agent.
    explicit BroadcastProcess(const BroadcastState& state);

    /// Captures the complete trajectory-determining state. Only valid at
    /// a step boundary (between step() calls).
    [[nodiscard]] BroadcastState capture() const;

    /// Attaches an observer (non-owning). It immediately misses the t = 0
    /// callback if attached after construction; attach before stepping for
    /// full series. (run_broadcast handles this for the common cases.)
    /// An attached observer makes every step run the full pass.
    void attach(Observer& observer) { observers_.push_back(&observer); }

    [[nodiscard]] bool complete() const noexcept { return rumor_.all_informed(); }
    [[nodiscard]] const SingleRumor& rumor() const noexcept { return rumor_; }

private:
    friend class StepLoop<BroadcastProcess>;

    /// Frog model: the agents informed before this step walk; those the
    /// step's exchange informs start moving next step. Empty under
    /// all-move: every agent walks.
    [[nodiscard]] std::span<const std::int32_t> movers() const noexcept { return movers_; }
    void exchange();
    /// Exchange-free certificate. Syncs the index and computes D, the
    /// minimum informed–uninformed distance in the config's metric, by a
    /// ring search (BucketIndex::min_key) from each agent on the smaller
    /// side, stopping once D ≤ r. A component holding both informed and
    /// uninformed agents has an edge joining the two sides, so an exchange
    /// informs someone exactly when D ≤ r: then nullopt (run the pass).
    /// Otherwise the step is idle, and since every walk moves at most one
    /// lattice unit per step (in L1, L∞ and L2), no informed–uninformed
    /// pair can come within r for the next ⌊(D − r − 1)/2⌋ steps (D − r − 1
    /// under Frog mobility, where only informed agents move): the value.
    [[nodiscard]] std::optional<std::int64_t> certify();
    [[nodiscard]] bool observed() const noexcept { return !observers_.empty(); }
    void notify();
    [[nodiscard]] std::int64_t informed_agents() const noexcept { return rumor_.informed_count(); }

    /// Refills movers_ from the rumor flags (Frog mobility only).
    void collect_movers();

    SingleRumor rumor_;
    std::vector<Observer*> observers_;
    std::vector<std::uint8_t> root_informed_;  ///< scratch, size k
    /// Frog mobility: the informed agents in ascending id order (the
    /// walk's RNG order), refilled whenever the exchange informs someone.
    /// Empty under all-move.
    std::vector<std::int32_t> movers_;
};

extern template class StepLoop<BroadcastProcess>;

}  // namespace smn::core
