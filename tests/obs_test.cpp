// obs_test.cpp — telemetry layer: registry counters/gauges/histograms
// (including exact sums under concurrent increments), the bounded
// step-trace ring and its claim-once arming protocol, and the engine-level
// contracts: tracing never perturbs trajectories, per-step scan counters
// satisfy rescanned + replayed == occupied units, every step that is not
// exchange-free runs exactly one pass, and the destructor flushes each
// engine's tallies into the registry exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/gossip.hpp"
#include "graph/dsu.hpp"
#include "graph/visibility.hpp"
#include "grid/grid.hpp"
#include "obs/provenance.hpp"
#include "obs/registry.hpp"
#include "obs/step_trace.hpp"
#include "rng/rng.hpp"
#include "walk/ensemble.hpp"
#include "walk/step.hpp"

namespace smn::obs {
namespace {

// ---------------------------------------------------------------- registry

TEST(Registry, ConcurrentIncrementsSumExactly) {
    auto& counter = Registry::instance().counter("test.concurrent_sum");
    counter.reset();
    constexpr int kThreads = 8;
    constexpr std::int64_t kEach = 50000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (std::int64_t i = 0; i < kEach; ++i) counter.add(1);
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(counter.value(), kThreads * kEach);
}

TEST(Registry, HandlesAreStableAndNamed) {
    auto& a = Registry::instance().counter("test.stable_handle");
    auto& b = Registry::instance().counter("test.stable_handle");
    EXPECT_EQ(&a, &b);  // same name -> same metric, cacheable reference
    a.reset();
    a.add(3);
    bool found = false;
    for (const auto& [name, value] : Registry::instance().counters_snapshot()) {
        if (name == "test.stable_handle") {
            found = true;
            EXPECT_EQ(value, 3);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Registry, ResetAllZeroesButKeepsNames) {
    Registry::instance().counter("test.reset_me").add(7);
    Registry::instance().gauge("test.reset_gauge").set(9);
    Registry::instance().reset_all();
    EXPECT_EQ(Registry::instance().counter("test.reset_me").value(), 0);
    EXPECT_EQ(Registry::instance().gauge("test.reset_gauge").value(), 0);
    bool found = false;
    for (const auto& [name, value] : Registry::instance().counters_snapshot()) {
        found = found || name == "test.reset_me";
    }
    EXPECT_TRUE(found) << "reset_all must keep the name registered";
}

TEST(Registry, GaugeSetMaxIsMonotone) {
    auto& gauge = Registry::instance().gauge("test.peak");
    gauge.reset();
    gauge.set_max(10);
    gauge.set_max(3);  // lower value must not win
    EXPECT_EQ(gauge.value(), 10);
    gauge.set_max(25);
    EXPECT_EQ(gauge.value(), 25);
}

TEST(Histogram, BucketOfIsPowerOfTwo) {
    EXPECT_EQ(Histogram::bucket_of(-5), 0);
    EXPECT_EQ(Histogram::bucket_of(0), 0);
    EXPECT_EQ(Histogram::bucket_of(1), 1);
    EXPECT_EQ(Histogram::bucket_of(2), 2);
    EXPECT_EQ(Histogram::bucket_of(3), 2);
    EXPECT_EQ(Histogram::bucket_of(4), 3);
    EXPECT_EQ(Histogram::bucket_of(7), 3);
    EXPECT_EQ(Histogram::bucket_of(8), 4);
    EXPECT_EQ(Histogram::bucket_of(std::int64_t{1} << 62), 63);
}

TEST(Histogram, ObserveCountsSumsAndBuckets) {
    auto& hist = Registry::instance().histogram("test.sizes");
    hist.reset();
    for (const std::int64_t v : {0, 1, 2, 3, 4, 100}) hist.observe(v);
    EXPECT_EQ(hist.count(), 6);
    EXPECT_EQ(hist.sum(), 110);
    EXPECT_EQ(hist.bucket(0), 1);  // 0
    EXPECT_EQ(hist.bucket(1), 1);  // 1
    EXPECT_EQ(hist.bucket(2), 2);  // 2, 3
    EXPECT_EQ(hist.bucket(3), 1);  // 4
    EXPECT_EQ(hist.bucket(7), 1);  // 100 in [64, 128)
}

TEST(Histogram, ConcurrentObservesCountExactly) {
    auto& hist = Registry::instance().histogram("test.concurrent_hist");
    hist.reset();
    constexpr int kThreads = 4;
    constexpr std::int64_t kEach = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&hist] {
            for (std::int64_t i = 0; i < kEach; ++i) hist.observe(5);
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(hist.count(), kThreads * kEach);
    EXPECT_EQ(hist.sum(), 5 * kThreads * kEach);
    EXPECT_EQ(hist.bucket(Histogram::bucket_of(5)), kThreads * kEach);
}

// -------------------------------------------------------------- step trace

TEST(StepTrace, RingKeepsLatestAndCountsDropped) {
    StepTrace trace{4};
    for (std::int64_t s = 0; s < 10; ++s) {
        StepRecord rec{};
        rec.step = s;
        trace.push(rec);
    }
    EXPECT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace.dropped(), 6);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace.at(i).step, static_cast<std::int64_t>(6 + i))
            << "records must stay chronological after wrap";
    }
}

TEST(StepTrace, WriteJsonEmitsEveryRetainedStep) {
    StepTrace trace{8};
    StepRecord rec{};
    rec.step = 3;
    rec.rescanned = 17;
    rec.walk_s = 0.25;
    trace.push(rec);
    std::ostringstream out;
    trace.write_json(out);
    const auto text = out.str();
    EXPECT_NE(text.find("\"record\":\"step_trace\""), std::string::npos);
    EXPECT_NE(text.find("\"step\":3"), std::string::npos);
    EXPECT_NE(text.find("\"rescanned\":17"), std::string::npos);
    EXPECT_NE(text.find("\"walk_s\":0.25"), std::string::npos);
    EXPECT_EQ(text.back(), '\n');
}

TEST(StepTrace, ArmedTraceIsClaimedExactlyOnce) {
    StepTrace trace;
    arm_trace(&trace);
    EXPECT_EQ(claim_trace(), &trace);
    EXPECT_EQ(claim_trace(), nullptr) << "second claimant must lose";
    arm_trace(&trace);
    disarm_trace();
    EXPECT_EQ(claim_trace(), nullptr) << "disarm must withdraw the trace";
}

// ------------------------------------------------- engine-level contracts

core::EngineConfig small_config() {
    core::EngineConfig cfg;
    cfg.side = 24;
    cfg.k = 48;
    cfg.radius = 2;
    cfg.seed = 20110601;
    return cfg;
}

std::vector<std::int64_t> informed_series(core::BroadcastProcess& process, int steps) {
    std::vector<std::int64_t> series;
    for (int s = 0; s < steps; ++s) {
        process.step();
        series.push_back(process.rumor().informed_count());
    }
    return series;
}

TEST(EngineTrace, TracingNeverPerturbsTrajectories) {
    constexpr int kSteps = 40;
    core::BroadcastProcess plain{small_config()};
    const auto baseline = informed_series(plain, kSteps);

    StepTrace trace;
    arm_trace(&trace);
    core::BroadcastProcess traced{small_config()};
    const auto with_trace = informed_series(traced, kSteps);
    disarm_trace();

    EXPECT_EQ(baseline, with_trace);
    EXPECT_EQ(trace.size(), static_cast<std::size_t>(kSteps));
}

TEST(EngineTrace, RecordsCarryGaugesAndStepNumbers) {
    StepTrace trace;
    core::BroadcastProcess process{small_config()};
    process.set_trace(&trace);
    for (int s = 0; s < 10; ++s) process.step();
    ASSERT_EQ(trace.size(), 10u);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto& rec = trace.at(i);
        EXPECT_EQ(rec.step, static_cast<std::int64_t>(i + 1));
        EXPECT_GE(rec.informed, 1);
        EXPECT_GE(rec.components, 1);
        EXPECT_GE(rec.units, 1);
    }
}

// The central sanity invariant of the incremental rebuild: every occupied
// scan unit is either replayed from the edge cache or re-enumerated, so
// the per-step counter deltas must tile the occupied-unit count exactly.
// Checked through the trace (whose rescanned/replayed fields are per-step
// deltas and whose units field is the occupied count at the same pass).
// Exchange-free steps (certified, or past saturation) run no pass at all
// and must show no scan work. The run goes past saturation, so both kinds
// of step face the invariant.
TEST(EngineCounters, RescannedPlusReplayedTilesOccupiedUnitsEachStep) {
    StepTrace trace;
    core::BroadcastProcess process{small_config()};
    process.set_trace(&trace);
    for (int s = 0; s < 200; ++s) process.step();
    ASSERT_TRUE(process.complete());
    ASSERT_EQ(trace.size(), 200u);
    std::int64_t passes = 0;
    std::int64_t quiet = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto& rec = trace.at(i);
        ASSERT_TRUE(rec.quiet == 0 || rec.quiet == 1) << "step " << rec.step;
        if (rec.quiet == 1) {
            ++quiet;
            EXPECT_EQ(rec.rescanned + rec.replayed, 0) << "quiet step " << rec.step;
        } else {
            ++passes;
            EXPECT_EQ(rec.rescanned + rec.replayed, rec.units)
                << "step " << rec.step << " (bypass=" << rec.bypass << ")";
        }
    }
    EXPECT_GT(passes, 0);
    EXPECT_GT(quiet, 0);
}

// Same invariant straight at the builder layer, covering forced bypass
// passes (teleport storms dirty enough buckets to trip the heuristic).
TEST(BuilderCounters, ScanStatsTileOccupiedUnitsUnderChurn) {
    const auto g = grid::Grid2D::square(20);
    rng::Rng rng{99};
    graph::VisibilityGraphBuilder builder{g, 2};
    graph::DisjointSets dsu{0};
    std::vector<grid::Point> pos;
    for (int i = 0; i < 40; ++i) pos.push_back(walk::AgentEnsemble::random_node(g, rng));
    builder.build(pos, dsu);
    auto prev = builder.scan_stats();
    bool saw_bypass = false;
    bool saw_replay = false;
    for (int round = 0; round < 50; ++round) {
        // Alternate a quiet round (replay-heavy) with a teleport storm
        // (bypass-heavy) so both scan modes face the invariant.
        const std::size_t movers = round % 2 == 0 ? 2 : pos.size();
        for (std::size_t m = 0; m < movers; ++m) {
            const auto a = static_cast<std::int32_t>(rng.below(pos.size()));
            const auto from = pos[static_cast<std::size_t>(a)];
            const auto to = movers > 2 ? walk::AgentEnsemble::random_node(g, rng)
                                       : walk::step(g, from, rng);
            if (to == from) continue;
            pos[static_cast<std::size_t>(a)] = to;
        }
        builder.rebuild_components(pos, dsu);
        const auto cur = builder.scan_stats();
        const auto scanned = (cur.rescanned_units - prev.rescanned_units) +
                             (cur.replayed_units - prev.replayed_units);
        EXPECT_EQ(scanned, builder.occupied_units()) << "round " << round;
        saw_bypass = saw_bypass || cur.bypass_passes > prev.bypass_passes;
        saw_replay = saw_replay || cur.replayed_units > prev.replayed_units;
        prev = cur;
    }
    EXPECT_TRUE(saw_bypass) << "churn rounds never tripped the bypass heuristic";
    EXPECT_TRUE(saw_replay) << "quiet rounds never took the replay path";
}

TEST(EngineCounters, ReportsTheDocumentedNames) {
    core::BroadcastProcess process{small_config()};
    for (int s = 0; s < 5; ++s) process.step();
    std::vector<std::string> names;
    for (const auto& [name, value] : process.counters()) names.emplace_back(name);
    for (const char* expected :
         {"scan.passes", "scan.units_rescanned", "scan.units_replayed",
          "scan.bypass_passes", "scan.pairs_tested", "scan.pairs_survived",
          "scan.edges_cached", "scan.edges_replayed", "index.moves", "dsu.unites",
          "walk.blocks_decoded", "cert.checks", "cert.pairs_tested", "cert.quiet_steps"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
            << "missing counter " << expected;
    }
}

double engine_counter(const core::BroadcastProcess& process, std::string_view name) {
    for (const auto& [key, value] : process.counters()) {
        if (std::string_view{key} == name) return value;
    }
    ADD_FAILURE() << "no engine counter " << name;
    return -1.0;
}

// Every step either runs one component pass or is exchange-free, and the
// constructor runs one more, so on a run that never calls components()
// scan.passes == 1 + t − cert.quiet_steps, at r = 0 (co-location) as at
// r ≥ 1. The sparse configs certify quiet windows before saturation, and
// the runs continue past it. Every r runs on the one bucket index and
// pass, so the index applies node changes at pass time and the pass
// tests pairs at r = 0 too.
TEST(EngineCounters, PassesCountEveryStepThatIsNotQuiet) {
    for (const std::int64_t radius : {0, 1, 3}) {
        core::EngineConfig cfg;
        cfg.side = 48;
        cfg.k = 10;
        cfg.radius = radius;
        cfg.seed = 77;
        core::BroadcastProcess process{cfg};
        while (!process.complete()) process.step();
        const auto tb = process.time();
        for (int s = 0; s < 50; ++s) process.step();
        const auto passes = engine_counter(process, "scan.passes");
        const auto quiet = engine_counter(process, "cert.quiet_steps");
        EXPECT_EQ(passes, static_cast<double>(1 + process.time()) - quiet) << "r = " << radius;
        EXPECT_GT(quiet, 50.0) << "r = " << radius << ": no certified window before T_B";
        EXPECT_LT(passes, static_cast<double>(tb)) << "r = " << radius;
        EXPECT_GT(engine_counter(process, "cert.checks"), 0.0);
        EXPECT_GT(engine_counter(process, "cert.pairs_tested"), 0.0);
#if SMN_OBS_ENABLED
        EXPECT_GT(engine_counter(process, "index.moves"), 0.0) << "r = " << radius;
        EXPECT_GT(engine_counter(process, "scan.pairs_tested"), 0.0) << "r = " << radius;
#endif
    }
}

// Gossip runs on the same loop: it certifies no quiet window, so every
// step runs one pass, and its destructor flushes the same engine.*
// counters as broadcast.
TEST(EngineCounters, GossipRunsOnePassPerStep) {
    core::EngineConfig cfg;
    cfg.side = 24;
    cfg.k = 12;
    cfg.seed = 9;
#if SMN_OBS_ENABLED
    Registry::instance().reset_all();
#endif
    double passes = 0.0;
    std::int64_t tg = 0;
    {
        core::GossipProcess process{cfg};
        ASSERT_TRUE(process.run_until_complete(1 << 24).has_value());
        tg = process.time();
        double quiet = -1.0;
        for (const auto& [name, value] : process.counters()) {
            if (std::string_view{name} == "scan.passes") passes = value;
            if (std::string_view{name} == "cert.quiet_steps") quiet = value;
        }
        EXPECT_EQ(passes, static_cast<double>(1 + tg));
        EXPECT_EQ(quiet, 0.0);
    }
    EXPECT_GT(tg, 0);
#if SMN_OBS_ENABLED
    EXPECT_EQ(Registry::instance().counter("engine.scan.passes").value(),
              static_cast<std::int64_t>(passes));
#endif
}

#if SMN_OBS_ENABLED
TEST(EngineCounters, DestructorFlushesToRegistryExactlyOnce) {
    Registry::instance().reset_all();
    double passes = 0.0;
    {
        core::BroadcastProcess process{small_config()};
        for (int s = 0; s < 8; ++s) process.step();
        for (const auto& [name, value] : process.counters()) {
            if (std::string_view{name} == "scan.passes") passes = value;
        }
        // A moved-from shell must not flush again on destruction.
        core::BroadcastProcess moved{std::move(process)};
    }
    EXPECT_GT(passes, 0.0);
    EXPECT_EQ(Registry::instance().counter("engine.scan.passes").value(),
              static_cast<std::int64_t>(passes));
}
#endif

TEST(Provenance, BuildInfoIsPopulated) {
    const auto info = build_info();
    EXPECT_NE(info.git_sha, nullptr);
    EXPECT_NE(info.build_type, nullptr);
    EXPECT_NE(info.simd_backend, nullptr);
    EXPECT_NE(std::string_view{info.simd_backend}, "");
    EXPECT_EQ(info.obs_enabled, kEnabled);
}

}  // namespace
}  // namespace smn::obs
