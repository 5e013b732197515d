#include "core/gossip.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/bounds.hpp"

namespace smn::core {

GossipProcess::GossipProcess(const EngineConfig& config)
    : StepLoop{config},
      rumors_{MultiRumorState::one_rumor_per_agent(config_.k)},
      known_pairs_{config_.k},  // each agent knows its own rumor
      rumor_known_count_(static_cast<std::size_t>(config_.k), 1),
      rumor_complete_time_(static_cast<std::size_t>(config_.k), -1),
      component_or_(static_cast<std::size_t>(config_.k) * rumors_.words_per_agent(), 0) {
    if (config_.k == 1) rumor_complete_time_[0] = 0;
    start(/*fresh=*/true);
}

GossipProcess::GossipProcess(const GossipState& state)
    : StepLoop{state.config, state.rng_state, state.positions, state.t},
      rumors_{config_.k, config_.k, state.rumor_bits},
      rumor_known_count_(static_cast<std::size_t>(config_.k), 0),
      rumor_complete_time_{state.rumor_complete_time},
      component_or_(static_cast<std::size_t>(config_.k) * rumors_.words_per_agent(), 0) {
    const auto k = config_.k;
    if (rumor_complete_time_.size() != static_cast<std::size_t>(k)) {
        throw std::invalid_argument("GossipState: vector sizes disagree with k");
    }
    // Per-rumor known counts and the known-pairs total, from the bitsets.
    for (std::int32_t a = 0; a < k; ++a) {
        for (std::size_t w = 0; w < rumors_.words_per_agent(); ++w) {
            std::uint64_t bits = rumors_.word(a, w);
            known_pairs_ += std::popcount(bits);
            while (bits != 0) {
                const int bit = std::countr_zero(bits);
                bits &= bits - 1;
                ++rumor_known_count_[w * 64 + static_cast<std::size_t>(bit)];
            }
        }
    }
    for (std::size_t r = 0; r < rumor_complete_time_.size(); ++r) {
        check_event_time(rumor_complete_time_[r], rumor_known_count_[r] == k, t_,
                         "GossipState: rumor completion time");
    }
    start(/*fresh=*/false);
}

GossipState GossipProcess::capture() const {
    auto state = capture_loop<GossipState>();
    const auto words = rumors_.words();
    state.rumor_bits.assign(words.begin(), words.end());
    state.rumor_complete_time = rumor_complete_time_;
    return state;
}

void GossipProcess::exchange() {
    const auto k = config_.k;
    const auto words = rumors_.words_per_agent();

    // One find pass: both OR/distribute passes then index by plain labels.
    graph::component_labels(dsu_, labels_);

    // Pass 1: OR the rumor sets of each component into its root's slot.
    touched_roots_.clear();
    for (std::int32_t a = 0; a < k; ++a) {
        const auto root = labels_[static_cast<std::size_t>(a)];
        auto* acc = &component_or_[static_cast<std::size_t>(root) * words];
        if (root == a) touched_roots_.push_back(root);  // every set has its root as a member
        for (std::size_t w = 0; w < words; ++w) acc[w] |= rumors_.word(a, w);
    }

    // Pass 2: distribute the union back to every member and account for
    // newly learned rumors (merge_word keeps the per-agent knowledge
    // counters — and thus MultiRumorState::complete() — up to date).
    for (std::int32_t a = 0; a < k; ++a) {
        const auto root = labels_[static_cast<std::size_t>(a)];
        const auto* acc = &component_or_[static_cast<std::size_t>(root) * words];
        for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t gained = rumors_.merge_word(a, w, acc[w]);
            if (gained == 0) continue;
            known_pairs_ += std::popcount(gained);
            while (gained != 0) {
                const int bit = std::countr_zero(gained);
                gained &= gained - 1;
                const auto r = static_cast<std::size_t>(w * 64 + static_cast<std::size_t>(bit));
                if (++rumor_known_count_[r] == k && rumor_complete_time_[r] < 0) {
                    rumor_complete_time_[r] = t_;
                }
            }
        }
    }

    // Clear the accumulator slots we used (only the roots we touched).
    for (const auto root : touched_roots_) {
        auto* acc = &component_or_[static_cast<std::size_t>(root) * words];
        std::fill(acc, acc + words, std::uint64_t{0});
    }
}

GossipResult run_gossip(const EngineConfig& config, std::int64_t max_steps) {
    GossipResult result;
    result.config = config;
    const std::int64_t cap =
        max_steps >= 0 ? max_steps : bounds::default_max_steps(config.n(), config.k);

    GossipProcess process{config};
    const auto tg = process.run_until_complete(cap);
    result.completed = tg.has_value();
    result.gossip_time = tg.value_or(-1);

    if (result.completed) {
        // Every rumor completed within [0, T_G].
        result.max_rumor_broadcast_time = 0;
        result.min_rumor_broadcast_time = result.gossip_time;
        double sum = 0.0;
        for (std::int32_t r = 0; r < config.k; ++r) {
            const auto tb = process.rumor_broadcast_time(r);
            result.max_rumor_broadcast_time = std::max(result.max_rumor_broadcast_time, tb);
            result.min_rumor_broadcast_time = std::min(result.min_rumor_broadcast_time, tb);
            sum += static_cast<double>(tb);
        }
        result.mean_rumor_broadcast_time = sum / static_cast<double>(config.k);
    }
    return result;
}

template class StepLoop<GossipProcess>;

}  // namespace smn::core
