// snapshot_test.cpp — engine checkpoint/restore and the snapshot format.
//
// Three layers: (1) state-level round trips — capture → save → load
// reproduces every field exactly, across the full mobility × metric ×
// radius × walk matrix for both engine kinds; (2) trajectory-level —
// a restored engine continues bit-identically (the determinism goldens
// extend this to the seed-captured hashes); (3) format robustness —
// corrupted, truncated, version-bumped, wrong-kind, and non-snapshot
// files are rejected with SnapshotError, and the fail-point sites prove
// a torn write can never be mistaken for a valid checkpoint.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/gossip.hpp"
#include "io/snapshot.hpp"
#include "rng/rng.hpp"
#include "util/failpoint.hpp"

namespace smn::io {
namespace {

/// Fresh unique path under the system temp dir, removed on destruction.
class TempFile {
public:
    explicit TempFile(const std::string& tag) {
        static int counter = 0;
        path_ = (std::filesystem::temp_directory_path() /
                 ("smn_snapshot_test_" + std::to_string(::getpid()) + "_" + tag + "_" +
                  std::to_string(counter++)))
                    .string();
    }
    ~TempFile() {
        std::error_code ec;
        std::filesystem::remove(path_, ec);
        std::filesystem::remove(path_ + ".tmp", ec);
    }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
};

std::vector<std::uint8_t> slurp(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/// Appends the CRC trailer to `body`, so a deliberately damaged payload
/// passes the checksum and reaches the payload decoder.
std::vector<std::uint8_t> sealed(std::vector<std::uint8_t> body) {
    const auto crc = crc32(body.data(), body.size());
    for (std::size_t i = 0; i < 4; ++i) {
        body.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    }
    return body;
}

/// `file` without its 4-byte CRC trailer.
std::vector<std::uint8_t> body_of(const std::vector<std::uint8_t>& file) {
    return {file.begin(), file.end() - 4};
}

core::EngineConfig config_for(grid::Metric metric, std::int64_t radius,
                              core::Mobility mobility, walk::WalkKind walk) {
    core::EngineConfig cfg;
    cfg.side = 14;
    cfg.k = 10;
    cfg.radius = radius;
    cfg.metric = metric;
    cfg.mobility = mobility;
    cfg.walk = walk;
    cfg.seed = 0x5EEDULL + static_cast<std::uint64_t>(radius);
    return cfg;
}

// ------------------------------------------------------- CRC and info

TEST(Crc32, KnownVector) {
    // The canonical IEEE CRC-32 check value: crc32("123456789").
    const char* text = "123456789";
    EXPECT_EQ(crc32(text, 9), 0xCBF43926u);
    EXPECT_EQ(crc32(text, 0), 0x00000000u);
}

TEST(Crc32, SensitiveToEveryByte) {
    std::vector<std::uint8_t> data(64, 0xAB);
    const auto base = crc32(data.data(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        auto copy = data;
        copy[i] ^= 0x01;
        EXPECT_NE(crc32(copy.data(), copy.size()), base) << "byte " << i;
    }
}

TEST(SnapshotInfo, ReportsKindAndProvenance) {
    TempFile file{"info"};
    core::BroadcastProcess process{config_for(grid::Metric::kManhattan, 2,
                                              core::Mobility::kAllMove,
                                              walk::WalkKind::kLazyPaper)};
    save_snapshot(file.path(), process.capture());
    const auto info = snapshot_info(file.path());
    EXPECT_EQ(info.version, kSnapshotVersion);
    EXPECT_EQ(info.kind, kSnapshotBroadcast);
    EXPECT_FALSE(info.git_sha.empty());
}

// --------------------------------------------- broadcast round trips

struct RoundTripParam {
    unsigned metric;
    std::int64_t radius;
    unsigned mobility;
    unsigned walk;
};

// CTest names parametrized tests by the printed parameter: print the
// fields, never the struct's bytes (padding included).
void PrintTo(const RoundTripParam& p, std::ostream* os) {
    *os << grid::metric_name(static_cast<grid::Metric>(p.metric)) << "_r" << p.radius << "_"
        << core::mobility_name(static_cast<core::Mobility>(p.mobility)) << "_walk" << p.walk;
}

class BroadcastRoundTrip : public ::testing::TestWithParam<RoundTripParam> {};

TEST_P(BroadcastRoundTrip, StateSurvivesSaveLoadExactly) {
    const auto p = GetParam();
    const auto cfg = config_for(static_cast<grid::Metric>(p.metric), p.radius,
                                static_cast<core::Mobility>(p.mobility),
                                static_cast<walk::WalkKind>(p.walk));
    core::BroadcastProcess process{cfg};
    for (int i = 0; i < 7; ++i) process.step();
    const auto state = process.capture();

    TempFile file{"bcast_rt"};
    save_snapshot(file.path(), state);
    const auto loaded = load_broadcast_snapshot(file.path());

    EXPECT_EQ(loaded.config.side, state.config.side);
    EXPECT_EQ(loaded.config.k, state.config.k);
    EXPECT_EQ(loaded.config.radius, state.config.radius);
    EXPECT_EQ(loaded.config.metric, state.config.metric);
    EXPECT_EQ(loaded.config.walk, state.config.walk);
    EXPECT_EQ(loaded.config.mobility, state.config.mobility);
    EXPECT_EQ(loaded.config.source, state.config.source);
    EXPECT_EQ(loaded.config.seed, state.config.seed);
    EXPECT_EQ(loaded.rng_state, state.rng_state);
    ASSERT_EQ(loaded.positions.size(), state.positions.size());
    for (std::size_t i = 0; i < state.positions.size(); ++i) {
        EXPECT_EQ(loaded.positions[i].x, state.positions[i].x);
        EXPECT_EQ(loaded.positions[i].y, state.positions[i].y);
    }
    EXPECT_EQ(loaded.informed, state.informed);
    EXPECT_EQ(loaded.informed_time, state.informed_time);
    EXPECT_EQ(loaded.t, state.t);
}

TEST_P(BroadcastRoundTrip, RestoredEngineContinuesBitIdentically) {
    const auto p = GetParam();
    const auto cfg = config_for(static_cast<grid::Metric>(p.metric), p.radius,
                                static_cast<core::Mobility>(p.mobility),
                                static_cast<walk::WalkKind>(p.walk));

    core::BroadcastProcess original{cfg};
    core::BroadcastProcess stopped{cfg};
    for (int i = 0; i < 5; ++i) {
        original.step();
        stopped.step();
    }
    TempFile file{"bcast_cont"};
    save_snapshot(file.path(), stopped.capture());
    core::BroadcastProcess resumed{load_broadcast_snapshot(file.path())};

    for (int i = 0; i < 40; ++i) {
        original.step();
        resumed.step();
        ASSERT_EQ(resumed.rumor().informed_count(), original.rumor().informed_count())
            << "diverged at step " << i;
    }
    const auto a = original.capture();
    const auto b = resumed.capture();
    EXPECT_EQ(a.rng_state, b.rng_state);
    EXPECT_EQ(a.informed, b.informed);
    EXPECT_EQ(a.informed_time, b.informed_time);
    ASSERT_EQ(a.positions.size(), b.positions.size());
    for (std::size_t i = 0; i < a.positions.size(); ++i) {
        EXPECT_EQ(a.positions[i].x, b.positions[i].x);
        EXPECT_EQ(a.positions[i].y, b.positions[i].y);
    }
}

// The full robustness matrix: every metric, radii 0..5 (sampled), both
// mobilities, every walk kind.
INSTANTIATE_TEST_SUITE_P(
    Matrix, BroadcastRoundTrip,
    ::testing::Values(
        RoundTripParam{0, 0, 0, 0}, RoundTripParam{0, 1, 0, 0}, RoundTripParam{0, 2, 1, 0},
        RoundTripParam{0, 3, 0, 1}, RoundTripParam{0, 4, 1, 2}, RoundTripParam{0, 5, 0, 0},
        RoundTripParam{1, 0, 1, 0}, RoundTripParam{1, 2, 0, 2}, RoundTripParam{1, 5, 1, 1},
        RoundTripParam{2, 0, 0, 2}, RoundTripParam{2, 3, 1, 0}, RoundTripParam{2, 5, 0, 1}));

// ------------------------------------------------- gossip round trips

TEST(GossipSnapshot, StateAndTrajectorySurviveRoundTrip) {
    core::EngineConfig cfg;
    cfg.side = 12;
    cfg.k = 9;
    cfg.radius = 2;
    cfg.seed = 77;

    core::GossipProcess original{cfg};
    core::GossipProcess stopped{cfg};
    for (int i = 0; i < 6; ++i) {
        original.step();
        stopped.step();
    }
    TempFile file{"gossip_rt"};
    save_snapshot(file.path(), stopped.capture());

    const auto loaded = load_gossip_snapshot(file.path());
    const auto want = stopped.capture();
    EXPECT_EQ(loaded.rng_state, want.rng_state);
    EXPECT_EQ(loaded.rumor_bits, want.rumor_bits);
    EXPECT_EQ(loaded.rumor_complete_time, want.rumor_complete_time);
    EXPECT_EQ(loaded.t, want.t);

    core::GossipProcess resumed{loaded};
    ASSERT_EQ(resumed.known_pairs(), original.known_pairs());
    for (int i = 0; i < 60 && !original.complete(); ++i) {
        original.step();
        resumed.step();
        ASSERT_EQ(resumed.known_pairs(), original.known_pairs()) << "diverged at step " << i;
    }
    EXPECT_EQ(resumed.complete(), original.complete());
    if (original.complete()) {
        for (std::int32_t r = 0; r < cfg.k; ++r) {
            EXPECT_EQ(resumed.rumor_broadcast_time(r), original.rumor_broadcast_time(r));
        }
    }
}

// Over seeded random configs, a gossip process checkpointed through a
// snapshot file at a random t continues exactly as the uninterrupted run:
// same T_G, per-rumor times, known pairs and final positions.
TEST(GossipSnapshot, RestoreAtARandomStepContinuesBitIdentically) {
    rng::Rng pick{0x6055};
    for (int trial = 0; trial < 12; ++trial) {
        core::EngineConfig cfg;
        cfg.side = static_cast<grid::Coord>(6 + pick.below(15));
        cfg.k = static_cast<std::int32_t>(2 + pick.below(trial % 3 == 0 ? 100 : 20));
        cfg.radius = static_cast<std::int64_t>(pick.below(4));
        cfg.metric = static_cast<grid::Metric>(pick.below(3));
        cfg.walk = static_cast<walk::WalkKind>(pick.below(3));
        cfg.seed = pick();
        // Non-lazy walkers of opposite parity never share a node.
        if (cfg.walk == walk::WalkKind::kSimple && cfg.radius == 0) cfg.radius = 1;
        SCOPED_TRACE("trial " + std::to_string(trial));

        core::GossipProcess original{cfg};
        ASSERT_TRUE(original.run_until_complete(1 << 22).has_value());
        const auto t_snap = static_cast<std::int64_t>(
            pick.below(static_cast<std::uint64_t>(original.time()) + 1));
        std::optional<core::GossipProcess> resumed{std::in_place, cfg};
        while (resumed->time() < t_snap) resumed->step();
        TempFile file{"gossip_random_t"};
        save_snapshot(file.path(), resumed->capture());
        resumed.emplace(load_gossip_snapshot(file.path()));
        ASSERT_EQ(resumed->time(), t_snap);
        ASSERT_TRUE(resumed->run_until_complete(1 << 22).has_value());

        EXPECT_EQ(resumed->time(), original.time());
        EXPECT_EQ(resumed->known_pairs(), original.known_pairs());
        for (std::int32_t r = 0; r < cfg.k; ++r) {
            EXPECT_EQ(resumed->rumor_broadcast_time(r), original.rumor_broadcast_time(r));
        }
        const auto a = resumed->agents().positions();
        const auto b = original.agents().positions();
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }
}

// --------------------------------------------------- rejection paths

class SnapshotRejection : public ::testing::Test {
protected:
    void SetUp() override {
        core::BroadcastProcess process{config_for(grid::Metric::kManhattan, 2,
                                                  core::Mobility::kAllMove,
                                                  walk::WalkKind::kLazyPaper)};
        for (int i = 0; i < 3; ++i) process.step();
        save_snapshot(file_.path(), process.capture());
        bytes_ = slurp(file_.path());
        ASSERT_GT(bytes_.size(), 40u);
    }

    TempFile file_{"reject"};
    std::vector<std::uint8_t> bytes_;
};

TEST_F(SnapshotRejection, MissingFile) {
    EXPECT_THROW((void)load_broadcast_snapshot(file_.path() + ".nope"), SnapshotError);
}

TEST_F(SnapshotRejection, BadMagic) {
    bytes_[0] ^= 0xFF;
    spit(file_.path(), bytes_);
    // A flipped magic byte also breaks the CRC; both are SnapshotError.
    EXPECT_THROW((void)load_broadcast_snapshot(file_.path()), SnapshotError);
}

TEST_F(SnapshotRejection, EveryTruncationPointRejected) {
    // Chop the file at a spread of byte offsets; no prefix may load.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{4}, std::size_t{11}, bytes_.size() / 3,
          bytes_.size() / 2, bytes_.size() - 5, bytes_.size() - 1}) {
        std::vector<std::uint8_t> cut{bytes_.begin(),
                                      bytes_.begin() + static_cast<std::ptrdiff_t>(keep)};
        spit(file_.path(), cut);
        EXPECT_THROW((void)load_broadcast_snapshot(file_.path()), SnapshotError)
            << "prefix of " << keep << " bytes";
    }
}

TEST_F(SnapshotRejection, EveryCorruptedByteRejected) {
    // Single-bit corruption anywhere (header, payload, or trailer) must
    // fail the checksum. Sampled stride keeps the test fast.
    for (std::size_t i = 0; i < bytes_.size(); i += 7) {
        auto copy = bytes_;
        copy[i] ^= 0x10;
        spit(file_.path(), copy);
        EXPECT_THROW((void)load_broadcast_snapshot(file_.path()), SnapshotError)
            << "flipped byte " << i;
    }
}

TEST_F(SnapshotRejection, VersionMismatch) {
    // Bump the u32 version at offset 8 and re-seal with a valid CRC so
    // the version check (not the checksum) does the rejecting.
    auto body = body_of(bytes_);
    body[8] = 99;
    spit(file_.path(), sealed(body));
    try {
        (void)load_broadcast_snapshot(file_.path());
        FAIL() << "version 99 loaded";
    } catch (const SnapshotError& err) {
        EXPECT_NE(std::string{err.what()}.find("version"), std::string::npos);
    }
}

TEST_F(SnapshotRejection, KindMismatch) {
    EXPECT_THROW((void)load_gossip_snapshot(file_.path()), SnapshotError);
}

TEST_F(SnapshotRejection, NotASnapshotFile) {
    std::ofstream out{file_.path(), std::ios::trunc};
    out << "{\"schema\":1,\"record\":\"provenance\"}\n";
    out.close();
    EXPECT_THROW((void)load_broadcast_snapshot(file_.path()), SnapshotError);
}

TEST_F(SnapshotRejection, TrailingBytesRejected) {
    // Five bytes appended to the payload, CRC recomputed: the decoder must
    // notice the payload was not consumed.
    auto body = body_of(bytes_);
    body.insert(body.end(), {1, 2, 3, 4, 5});
    spit(file_.path(), sealed(body));
    EXPECT_THROW((void)load_broadcast_snapshot(file_.path()), SnapshotError);
}

TEST_F(SnapshotRejection, ShortPayloadRejected) {
    // A payload 2 bytes short, CRC recomputed: the last informed_time
    // must not be completed from the checksum trailer.
    auto body = body_of(bytes_);
    body.resize(body.size() - 2);
    spit(file_.path(), sealed(body));
    EXPECT_THROW((void)load_broadcast_snapshot(file_.path()), SnapshotError);
}

/// Saves the fixture's state with one enumerator field set to an undeclared
/// value (the writer stores it as is, under a valid CRC) and expects the
/// load to refuse it, for both engine kinds.
void expect_undeclared_enumerator_rejected(const std::string& path,
                                           void (*corrupt)(core::EngineConfig&)) {
    const auto cfg = config_for(grid::Metric::kManhattan, 1, core::Mobility::kAllMove,
                                walk::WalkKind::kLazyPaper);
    auto broadcast = core::BroadcastProcess{cfg}.capture();
    corrupt(broadcast.config);
    save_snapshot(path, broadcast);
    EXPECT_THROW((void)load_broadcast_snapshot(path), SnapshotError);
    auto gossip = core::GossipProcess{cfg}.capture();
    corrupt(gossip.config);
    save_snapshot(path, gossip);
    EXPECT_THROW((void)load_gossip_snapshot(path), SnapshotError);
}

TEST_F(SnapshotRejection, UndeclaredMetricRejected) {
    expect_undeclared_enumerator_rejected(
        file_.path(), [](core::EngineConfig& c) { c.metric = static_cast<grid::Metric>(7); });
}

TEST_F(SnapshotRejection, UndeclaredWalkRejected) {
    expect_undeclared_enumerator_rejected(
        file_.path(), [](core::EngineConfig& c) { c.walk = static_cast<walk::WalkKind>(7); });
}

TEST_F(SnapshotRejection, UndeclaredMobilityRejected) {
    expect_undeclared_enumerator_rejected(
        file_.path(), [](core::EngineConfig& c) { c.mobility = static_cast<core::Mobility>(7); });
}

/// Saves `state` (the writer stores it as is, under a valid CRC), loads it
/// back and expects the restore to refuse it.
template <typename Process, typename State, typename Load>
void expect_restore_refused(const std::string& path, const State& state, Load load) {
    save_snapshot(path, state);
    const auto loaded = load(path);
    EXPECT_THROW(Process{loaded}, std::invalid_argument);
}

/// A gossip run on a 10×10 grid, k 6, seed 5, stopped at t = 64, the
/// step at which rumor 1 becomes known to all agents (rumor 0 only
/// completes at t = 159).
core::GossipState gossip_at_rumor_one_completion() {
    core::EngineConfig cfg;
    cfg.side = 10;
    cfg.k = 6;
    cfg.seed = 5;
    core::GossipProcess process{cfg};
    while (process.rumor_broadcast_time(1) < 0) process.step();
    EXPECT_EQ(process.time(), 64);
    EXPECT_EQ(process.rumor_broadcast_time(0), -1);
    return process.capture();
}

TEST_F(SnapshotRejection, GossipCompletedRumorTimeOutsideZeroToTRejected) {
    auto state = gossip_at_rumor_one_completion();
    const auto load = [](const std::string& p) { return load_gossip_snapshot(p); };
    for (const std::int64_t time : {std::int64_t{-1}, state.t + 1}) {
        state.rumor_complete_time[1] = time;
        expect_restore_refused<core::GossipProcess>(file_.path(), state, load);
    }
}

TEST_F(SnapshotRejection, GossipOpenRumorWithACompletionTimeRejected) {
    auto state = gossip_at_rumor_one_completion();
    state.rumor_complete_time[0] = state.t + 1000;
    expect_restore_refused<core::GossipProcess>(
        file_.path(), state, [](const std::string& p) { return load_gossip_snapshot(p); });
}

TEST_F(SnapshotRejection, BroadcastInformedTimeAfterTRejected) {
    core::BroadcastProcess process{config_for(grid::Metric::kManhattan, 2,
                                              core::Mobility::kAllMove,
                                              walk::WalkKind::kLazyPaper)};
    for (int i = 0; i < 5; ++i) process.step();
    auto state = process.capture();
    state.informed_time[static_cast<std::size_t>(state.config.source)] = state.t + 999;
    expect_restore_refused<core::BroadcastProcess>(
        file_.path(), state, [](const std::string& p) { return load_broadcast_snapshot(p); });
}

/// Seeded byte mutations of one valid snapshot, each re-sealed with a
/// fresh CRC so the damage reaches the payload decoder. Every mutant must
/// either be refused (SnapshotError at load, std::invalid_argument at
/// restore) or restore an engine that then runs 50 steps; returns the
/// (refused, resumed) counts. Fixed seeds keep the corpus identical on
/// every run; the ASan+UBSan job runs it too.
template <typename Process, typename Load>
std::pair<int, int> mutate_and_resume(const std::string& path, const Process& original,
                                      Load load) {
    const auto saved = original.capture();
    save_snapshot(path, saved);
    const auto body = body_of(slurp(path));
    // Mutation kinds: 0 flips one byte, 1 inserts one, 2 truncates.
    int refused = 0;
    int resumed = 0;
    for (std::uint64_t seed = 1; seed <= 96; ++seed) {
        for (int mutation = 0; mutation <= 2; ++mutation) {
            rng::Rng rng{seed * 16 + static_cast<std::uint64_t>(mutation)};
            auto bytes = body;
            const auto at = static_cast<std::size_t>(rng.below(bytes.size()));
            const auto value = static_cast<std::uint8_t>(1 + rng.below(255));
            if (mutation == 0) {
                bytes[at] ^= value;
            } else if (mutation == 1) {
                bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), value);
            } else {
                bytes.resize(at);
            }
            spit(path, sealed(bytes));
            SCOPED_TRACE("seed " + std::to_string(seed) + ", mutation " +
                         std::to_string(mutation) + ", offset " + std::to_string(at));
            try {
                auto state = load(path);
                Process restored{state};
                for (int step = 0; step < 50; ++step) restored.step();
                ++resumed;
            } catch (const SnapshotError&) {
                ++refused;
            } catch (const std::invalid_argument&) {
                ++refused;
            }
        }
    }
    return {refused, resumed};
}

TEST_F(SnapshotRejection, SeededByteMutationsEitherRejectOrResume) {
    const auto cfg = config_for(grid::Metric::kManhattan, 2, core::Mobility::kAllMove,
                                walk::WalkKind::kLazyPaper);
    core::BroadcastProcess broadcast{cfg};
    for (int i = 0; i < 3; ++i) broadcast.step();
    const auto [b_refused, b_resumed] = mutate_and_resume(
        file_.path(), broadcast, [](const std::string& p) { return load_broadcast_snapshot(p); });
    core::GossipProcess gossip{cfg};
    for (int i = 0; i < 3; ++i) gossip.step();
    const auto [g_refused, g_resumed] = mutate_and_resume(
        file_.path(), gossip, [](const std::string& p) { return load_gossip_snapshot(p); });
    // The corpus exercises both outcomes for both kinds: inserts and
    // truncations never decode, flips in the RNG words or positions do.
    EXPECT_GT(b_refused, 0);
    EXPECT_GT(b_resumed, 0);
    EXPECT_GT(g_refused, 0);
    EXPECT_GT(g_resumed, 0);
}

// ------------------------------------------------------- fail points

#if SMN_FAILPOINTS_ENABLED

class SnapshotFailPoints : public ::testing::Test {
protected:
    void TearDown() override { util::FailPoints::instance().configure(""); }
};

TEST_F(SnapshotFailPoints, WriteFailureLeavesPreviousSnapshotIntact) {
    TempFile file{"fp_write"};
    core::BroadcastProcess process{config_for(grid::Metric::kManhattan, 1,
                                              core::Mobility::kAllMove,
                                              walk::WalkKind::kLazyPaper)};
    save_snapshot(file.path(), process.capture());
    const auto before = slurp(file.path());

    process.step();
    util::FailPoints::instance().configure("snapshot_write=1@0");
    EXPECT_THROW(save_snapshot(file.path(), process.capture()), util::InjectedFault);
    // The failed save must not have touched the published file.
    EXPECT_EQ(slurp(file.path()), before);

    util::FailPoints::instance().configure("");
    save_snapshot(file.path(), process.capture());
    EXPECT_EQ(load_broadcast_snapshot(file.path()).t, 1);
}

TEST_F(SnapshotFailPoints, SimulatedTornWriteIsRejectedAtLoad) {
    TempFile file{"fp_torn"};
    core::BroadcastProcess process{config_for(grid::Metric::kManhattan, 1,
                                              core::Mobility::kAllMove,
                                              walk::WalkKind::kLazyPaper)};
    util::FailPoints::instance().configure("snapshot_truncate=1@0");
    save_snapshot(file.path(), process.capture());  // silently publishes a prefix
    util::FailPoints::instance().configure("");
    EXPECT_THROW((void)load_broadcast_snapshot(file.path()), SnapshotError);
}

#endif  // SMN_FAILPOINTS_ENABLED

}  // namespace
}  // namespace smn::io
