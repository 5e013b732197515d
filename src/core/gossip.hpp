// gossip.hpp — the gossip (all-to-all) problem of Corollary 2.
//
// At t = 0 each of the k agents holds a distinct rumor; the gossip time
// T_G is the first time every agent knows every rumor. The exchange rule
// is the same component flooding as broadcast, applied to rumor *sets*:
// after the step, every member of a component C holds ∪_{a∈C} M_a(t−1).
// Corollary 2: T_G = Õ(n/√k) — the same scale as a single broadcast,
// because all k rumors ride the same meetings.
//
// GossipProcess runs on BroadcastProcess's StepLoop (engine.hpp); only the
// rumor rule differs. Its per-rumor broadcast times are k correlated T_B
// samples, each that of a BroadcastProcess with that source and seed.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "core/rumor.hpp"
#include "grid/point.hpp"

namespace smn::core {

/// Complete serializable state of a GossipProcess at a step boundary —
/// the gossip counterpart of BroadcastState (see engine.hpp for the
/// step-boundary argument). Derived tallies (per-rumor known counts,
/// known-pairs total, per-agent knowledge counters) are recomputed from
/// the bitset words on restore; the per-rumor completion times are NOT
/// derivable from the final bitset and are carried explicitly.
struct GossipState {
    EngineConfig config;
    std::array<std::uint64_t, 4> rng_state{};        ///< xoshiro256** words
    std::vector<grid::Point> positions;              ///< index = agent id
    std::vector<std::uint64_t> rumor_bits;           ///< MultiRumorState words
    std::vector<std::int64_t> rumor_complete_time;   ///< per rumor; −1 = open
    std::int64_t t{0};
};

/// Multi-rumor dissemination process (one rumor per agent initially).
/// Every agent walks each step whatever `config.mobility` says: each one
/// holds its own rumor from t = 0, so under Frog mobility every agent is
/// informed and moves, as under all-move.
class GossipProcess : public StepLoop<GossipProcess> {
public:
    /// Same config and validation as broadcast (validate_config); beyond
    /// that check `config.source` is ignored (every agent is a source of
    /// its own rumor).
    explicit GossipProcess(const EngineConfig& config);

    /// Restores a process captured by capture(); same contract as the
    /// BroadcastProcess restore constructor (bit-identical continuation,
    /// index rebuilt from positions, no initial exchange). A rumor's
    /// completion time must lie in [0, t] exactly when all k agents know
    /// it, and be −1 otherwise.
    explicit GossipProcess(const GossipState& state);

    /// Captures the complete trajectory-determining state; only valid at
    /// a step boundary (see BroadcastProcess::capture).
    [[nodiscard]] GossipState capture() const;

    [[nodiscard]] bool complete() const noexcept {
        return known_pairs_ == std::int64_t{config_.k} * config_.k;
    }
    [[nodiscard]] const MultiRumorState& rumors() const noexcept { return rumors_; }

    /// First time rumor `r` was known by all agents; −1 if not yet.
    [[nodiscard]] std::int64_t rumor_broadcast_time(std::int32_t r) const noexcept {
        return rumor_complete_time_[static_cast<std::size_t>(r)];
    }

    /// Number of (agent, rumor) pairs currently known — monotone, reaches
    /// k² at completion.
    [[nodiscard]] std::int64_t known_pairs() const noexcept { return known_pairs_; }

private:
    friend class StepLoop<GossipProcess>;

    [[nodiscard]] static std::span<const std::int32_t> movers() noexcept { return {}; }
    void exchange();
    /// No gossip certificate yet: every step before completion runs the
    /// component pass and the exchange.
    [[nodiscard]] static std::optional<std::int64_t> certify() noexcept { return std::nullopt; }
    [[nodiscard]] static bool observed() noexcept { return false; }
    static void notify() noexcept {}
    [[nodiscard]] std::int64_t informed_agents() const noexcept { return rumors_.done_agents(); }

    MultiRumorState rumors_;
    std::int64_t known_pairs_{0};
    std::vector<std::int32_t> rumor_known_count_;     ///< per rumor: #agents knowing it
    std::vector<std::int64_t> rumor_complete_time_;   ///< per rumor: completion time
    std::vector<std::uint64_t> component_or_;          ///< scratch: per-root OR accumulator
    std::vector<std::int32_t> touched_roots_;          ///< scratch
};

extern template class StepLoop<GossipProcess>;

/// Result of one gossip replication.
struct GossipResult {
    bool completed{false};
    std::int64_t gossip_time{-1};                 ///< T_G; −1 if the cap was hit
    std::int64_t max_rumor_broadcast_time{-1};    ///< max_m T_B^m (== T_G when completed)
    std::int64_t min_rumor_broadcast_time{-1};    ///< fastest rumor's broadcast time
    double mean_rumor_broadcast_time{0.0};        ///< average over rumors
    EngineConfig config;
};

/// Runs a single gossip replication; max_steps = −1 uses the same default
/// cap as broadcast.
[[nodiscard]] GossipResult run_gossip(const EngineConfig& config, std::int64_t max_steps = -1);

}  // namespace smn::core
