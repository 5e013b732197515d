#include "models/churn.hpp"

#include <algorithm>
#include <stdexcept>

#include "walk/ensemble.hpp"

namespace smn::models {

ChurnBroadcast::ChurnBroadcast(const ChurnConfig& config)
    : config_{config},
      rng_{config.seed},
      grid_{grid::Grid2D::square(config.side)},
      colocation_{grid_, 0},
      components_{0} {
    if (config.k < 1) throw std::invalid_argument("ChurnBroadcast: k must be >= 1");
    if (config.churn_rate < 0.0 || config.churn_rate > 1.0) {
        throw std::invalid_argument("ChurnBroadcast: churn_rate must be in [0, 1]");
    }
    positions_.reserve(static_cast<std::size_t>(config.k));
    for (std::int32_t a = 0; a < config.k; ++a) {
        positions_.push_back(walk::AgentEnsemble::random_node(grid_, rng_));
    }
    informed_.assign(static_cast<std::size_t>(config.k), 0);
    root_informed_.assign(static_cast<std::size_t>(config.k), 0);
    informed_[0] = 1;
    informed_count_ = 1;
    exchange();  // t = 0
}

void ChurnBroadcast::step() {
    ++t_;
    for (std::int32_t a = 0; a < config_.k; ++a) {
        auto& p = positions_[static_cast<std::size_t>(a)];
        if (config_.churn_rate > 0.0 && rng_.bernoulli(config_.churn_rate)) {
            // Replacement: fresh position; fresh (uninformed) knowledge if
            // the model resets it.
            p = walk::AgentEnsemble::random_node(grid_, rng_);
            ++replacements_;
            if (config_.reset_knowledge) {
                auto& flag = informed_[static_cast<std::size_t>(a)];
                if (flag) {
                    flag = 0;
                    --informed_count_;
                }
            }
        } else {
            p = walk::step(grid_, p, rng_, config_.walk);
        }
    }
    if (informed_count_ > 0) exchange();
}

void ChurnBroadcast::exchange() {
    // The engine's rule at r = 0: every component of co-located agents
    // with an informed member becomes fully informed.
    colocation_.build(positions_, components_);
    std::fill(root_informed_.begin(), root_informed_.end(), std::uint8_t{0});
    for (std::int32_t a = 0; a < config_.k; ++a) {
        if (informed_[static_cast<std::size_t>(a)]) {
            root_informed_[static_cast<std::size_t>(components_.find(a))] = 1;
        }
    }
    for (std::int32_t a = 0; a < config_.k; ++a) {
        auto& flag = informed_[static_cast<std::size_t>(a)];
        if (!flag && root_informed_[static_cast<std::size_t>(components_.find(a))]) {
            flag = 1;
            ++informed_count_;
        }
    }
}

ChurnResult ChurnBroadcast::run(std::int64_t max_steps) {
    ChurnResult result;
    while (!complete() && !extinct() && t_ < max_steps) step();
    result.completed = complete();
    result.extinct = extinct();
    result.broadcast_time = complete() ? t_ : -1;
    result.extinction_time = extinct() ? t_ : -1;
    result.replacements = replacements_;
    return result;
}

ChurnResult run_churn_broadcast(const ChurnConfig& config, std::int64_t max_steps) {
    ChurnBroadcast process{config};
    return process.run(max_steps);
}

}  // namespace smn::models
