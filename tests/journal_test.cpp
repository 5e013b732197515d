// journal_test.cpp — the sweep journal behind --journal/--resume.
//
// The resume contract: a journal written by a (possibly crashed) sweep
// replays exactly the units that completed — fingerprint-verified so it
// can never be merged into a different experiment, torn-final-line
// tolerant because a crash can interrupt an append mid-line, and
// round-trip exact so merged JSONL output is byte-identical to an
// uninterrupted run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "io/journal.hpp"
#include "rng/rng.hpp"
#include "util/failpoint.hpp"

namespace smn::io {
namespace {

class TempFile {
public:
    explicit TempFile(const std::string& tag) {
        static int counter = 0;
        path_ = (std::filesystem::temp_directory_path() /
                 ("smn_journal_test_" + std::to_string(::getpid()) + "_" + tag + "_" +
                  std::to_string(counter++)))
                    .string();
    }
    ~TempFile() {
        std::error_code ec;
        std::filesystem::remove(path_, ec);
    }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
};

std::string slurp(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

const std::vector<std::pair<std::string, std::string>> kScenarios = {
    {"grid_broadcast", "side=16,24;k=8"}, {"gossip", "side=12;k=6"}};

// ------------------------------------------------------- fingerprint

TEST(SweepFingerprint, SensitiveToEveryInput) {
    const auto base = sweep_fingerprint(1, 8, kScenarios, "abc123");
    EXPECT_EQ(sweep_fingerprint(1, 8, kScenarios, "abc123"), base);  // deterministic
    EXPECT_NE(sweep_fingerprint(2, 8, kScenarios, "abc123"), base);  // seed
    EXPECT_NE(sweep_fingerprint(1, 9, kScenarios, "abc123"), base);  // reps
    EXPECT_NE(sweep_fingerprint(1, 8, kScenarios, "def456"), base);  // build
    auto renamed = kScenarios;
    renamed[0].first = "torus_broadcast";
    EXPECT_NE(sweep_fingerprint(1, 8, renamed, "abc123"), base);  // scenario name
    auto resized = kScenarios;
    resized[1].second = "side=12;k=7";
    EXPECT_NE(sweep_fingerprint(1, 8, resized, "abc123"), base);  // sweep text
}

// ------------------------------------------------- record and replay

TEST(SweepJournal, RecordsAreVisibleAfterReopen) {
    TempFile file{"reopen"};
    const auto fp = sweep_fingerprint(7, 4, kScenarios, "sha");
    JournalUnit unit;
    unit.metrics = {{"broadcast_time", 321.0}, {"steps", 321.0}};
    unit.wall_seconds = 0.25;
    {
        SweepJournal journal{file.path(), fp, /*resume=*/false};
        EXPECT_EQ(journal.replayed(), 0u);
        EXPECT_EQ(journal.find("grid_broadcast", 0), nullptr);
        journal.record("grid_broadcast", 0, unit);
        journal.record("grid_broadcast", 3, unit);
        journal.sync();
        // Recorded units are immediately findable in the same session.
        ASSERT_NE(journal.find("grid_broadcast", 0), nullptr);
    }
    SweepJournal resumed{file.path(), fp, /*resume=*/true};
    EXPECT_EQ(resumed.replayed(), 2u);
    const auto* found = resumed.find("grid_broadcast", 3);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->metrics, unit.metrics);
    EXPECT_EQ(found->wall_seconds, unit.wall_seconds);
    EXPECT_EQ(resumed.find("grid_broadcast", 1), nullptr);
    EXPECT_EQ(resumed.find("gossip", 0), nullptr);  // scenario-scoped
}

TEST(SweepJournal, MetricDoublesRoundTripExactly) {
    TempFile file{"exact"};
    const auto fp = sweep_fingerprint(1, 1, kScenarios, "sha");
    // Values with no short decimal representation must replay to the
    // exact same bits — that is what makes resumed JSONL byte-identical.
    JournalUnit unit;
    unit.metrics = {{"a", 0.1 + 0.2},
                    {"b", 1.0 / 3.0},
                    {"c", 6.02214076e23},
                    {"d", -4.9e-324},  // min subnormal
                    {"e", 12345678901234567.0}};
    unit.wall_seconds = 1e-9;
    {
        SweepJournal journal{file.path(), fp, false};
        journal.record("gossip", 2, unit);
    }
    SweepJournal resumed{file.path(), fp, true};
    const auto* found = resumed.find("gossip", 2);
    ASSERT_NE(found, nullptr);
    for (const auto& [name, value] : unit.metrics) {
        ASSERT_TRUE(found->metrics.count(name)) << name;
        EXPECT_EQ(found->metrics.at(name), value) << name;  // bitwise, not approx
    }
}

TEST(SweepJournal, ConcurrentRecordsAllSurvive) {
    TempFile file{"concurrent"};
    const auto fp = sweep_fingerprint(3, 64, kScenarios, "sha");
    {
        SweepJournal journal{file.path(), fp, false};
        std::vector<std::thread> writers;
        for (int w = 0; w < 4; ++w) {
            writers.emplace_back([&journal, w] {
                for (int i = 0; i < 16; ++i) {
                    JournalUnit unit;
                    unit.metrics["value"] = static_cast<double>(w * 16 + i);
                    journal.record("grid_broadcast", w * 16 + i, unit);
                }
            });
        }
        for (auto& t : writers) t.join();
    }
    SweepJournal resumed{file.path(), fp, true};
    EXPECT_EQ(resumed.replayed(), 64u);
    for (int u = 0; u < 64; ++u) {
        const auto* found = resumed.find("grid_broadcast", u);
        ASSERT_NE(found, nullptr) << "unit " << u;
        EXPECT_EQ(found->metrics.at("value"), static_cast<double>(u));
    }
}

// ------------------------------------------------------- resilience

TEST(SweepJournal, TornFinalLineIsDiscardedAndTruncated) {
    TempFile file{"torn"};
    const auto fp = sweep_fingerprint(5, 2, kScenarios, "sha");
    JournalUnit unit;
    unit.metrics["m"] = 1.0;
    {
        SweepJournal journal{file.path(), fp, false};
        journal.record("gossip", 0, unit);
        journal.record("gossip", 1, unit);
    }
    // Simulate a crash mid-append: chop the file inside the final line.
    auto content = slurp(file.path());
    const auto cut = content.size() - 7;
    std::ofstream{file.path(), std::ios::binary | std::ios::trunc}
        << content.substr(0, cut);

    SweepJournal resumed{file.path(), fp, true};
    EXPECT_EQ(resumed.replayed(), 1u);  // only the complete line survives
    EXPECT_NE(resumed.find("gossip", 0), nullptr);
    EXPECT_EQ(resumed.find("gossip", 1), nullptr);
    // The torn fragment was truncated away, so a new append starts clean.
    resumed.record("gossip", 1, unit);
    resumed.sync();
    SweepJournal again{file.path(), fp, true};
    EXPECT_EQ(again.replayed(), 2u);
}

TEST(SweepJournal, FingerprintMismatchRefusesResume) {
    TempFile file{"mismatch"};
    { SweepJournal journal{file.path(), 0x1111111111111111ULL, false}; }
    try {
        SweepJournal journal{file.path(), 0x2222222222222222ULL, true};
        FAIL() << "fingerprint mismatch accepted";
    } catch (const JournalError& err) {
        EXPECT_NE(std::string{err.what()}.find("fingerprint"), std::string::npos);
    }
}

TEST(SweepJournal, MissingFileRefusesResume) {
    TempFile file{"missing"};
    EXPECT_THROW((SweepJournal{file.path(), 1, true}), JournalError);
}

TEST(SweepJournal, MalformedMidFileLineIsAHardError) {
    TempFile file{"malformed"};
    const auto fp = sweep_fingerprint(5, 2, kScenarios, "sha");
    JournalUnit unit;
    unit.metrics["m"] = 1.0;
    { SweepJournal j{file.path(), fp, false}; j.record("gossip", 0, unit); }
    // Corruption *before* the final line is not a crash signature — it
    // means the file is damaged, and silently skipping records would
    // silently change results.
    std::ofstream{file.path(), std::ios::app} << "garbage line\n";
    {
        std::ofstream app{file.path(), std::ios::app};
        app << "unit gossip 1 wall=0 m=2\n";
    }
    EXPECT_THROW((SweepJournal{file.path(), fp, true}), JournalError);
}

TEST(SweepJournal, NotAJournalRejected) {
    TempFile file{"notjournal"};
    std::ofstream{file.path(), std::ios::trunc} << "{\"schema\":1}\n{\"x\":2}\n";
    EXPECT_THROW((SweepJournal{file.path(), 1, true}), JournalError);
}

TEST(SweepJournal, UnrepresentableNamesRejectedAtRecordTime) {
    TempFile file{"badnames"};
    SweepJournal journal{file.path(), 1, false};
    JournalUnit unit;
    unit.metrics["has space"] = 1.0;
    EXPECT_THROW(journal.record("gossip", 0, unit), JournalError);
    unit.metrics.clear();
    unit.metrics["has=eq"] = 1.0;
    EXPECT_THROW(journal.record("gossip", 1, unit), JournalError);
    unit.metrics.clear();
    EXPECT_THROW(journal.record("bad scenario", 2, unit), JournalError);
}

TEST(SweepJournal, SeededByteMutationsEitherRejectOrResumeStably) {
    // The resume reader is the only crash-recovery path, so arbitrary
    // damage to a journal must never be UB: each mutated file either
    // throws JournalError or resumes, and a resume is stable (reopening
    // the file it left behind replays the same units). Fixed seeds keep
    // the corpus identical on every run; the ASan+UBSan job runs it too.
    TempFile file{"mutate"};
    const auto fp = sweep_fingerprint(9, 3, kScenarios, "sha");
    constexpr std::size_t kUnits = 6;
    {
        SweepJournal journal{file.path(), fp, false};
        for (std::size_t u = 0; u < kUnits; ++u) {
            JournalUnit unit;
            unit.metrics = {{"broadcast_time", 100.0 + static_cast<double>(u)},
                            {"ratio", 1.0 / (3.0 + static_cast<double>(u))},
                            {"steps", 1e6 * static_cast<double>(u)}};
            unit.wall_seconds = 0.001 * static_cast<double>(u + 1);
            journal.record(u % 2 == 0 ? "grid_broadcast" : "gossip", static_cast<int>(u),
                           unit);
        }
    }
    const std::string valid = slurp(file.path());
    ASSERT_FALSE(valid.empty());

    // Mutation kinds: 0 flips one byte, 1-4 insert one of kInserted, 5
    // truncates. Each (seed, kind) pair picks its own offset.
    constexpr char kInserted[] = {' ', '=', '\n', '\0'};
    constexpr int kFlip = 0;
    constexpr int kTruncate = 5;
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (std::uint64_t seed = 1; seed <= 96; ++seed) {
        for (int mutation = kFlip; mutation <= kTruncate; ++mutation) {
            rng::Rng rng{seed * 16 + static_cast<std::uint64_t>(mutation)};
            std::string bytes = valid;
            const auto at = static_cast<std::size_t>(rng.below(bytes.size()));
            if (mutation == kFlip) {
                bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^
                                              (1 + rng.below(255)));
            } else if (mutation == kTruncate) {
                bytes.resize(at);
            } else {
                bytes.insert(at, 1, kInserted[mutation - 1]);
            }
            std::ofstream{file.path(), std::ios::binary | std::ios::trunc} << bytes;
            SCOPED_TRACE("seed " + std::to_string(seed) + ", mutation " +
                         std::to_string(mutation) + ", offset " + std::to_string(at));

            std::size_t replayed = 0;
            try {
                SweepJournal resumed{file.path(), fp, true};
                replayed = resumed.replayed();
            } catch (const JournalError&) {
                ++rejected;
                continue;
            }
            ++accepted;
            EXPECT_LE(replayed, kUnits);  // damage never invents units
            SweepJournal again{file.path(), fp, true};
            EXPECT_EQ(again.replayed(), replayed);
        }
    }
    // The corpus exercises both outcomes (truncations mostly resume with
    // a torn tail dropped; mid-file damage mostly rejects).
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(SweepJournal, NonFiniteAndSignedZeroMetricsRoundTrip) {
    // The journal, unlike JSON, can carry nan/inf: a scenario metric that
    // degenerates must replay as itself, not as a parse error or 0.
    TempFile file{"nonfinite"};
    JournalUnit unit;
    unit.metrics = {{"inf", std::numeric_limits<double>::infinity()},
                    {"nan", std::numeric_limits<double>::quiet_NaN()},
                    {"neg_inf", -std::numeric_limits<double>::infinity()},
                    {"neg_zero", -0.0}};
    {
        SweepJournal journal{file.path(), 3, false};
        journal.record("gossip", 0, unit);
    }
    SweepJournal resumed{file.path(), 3, true};
    const auto* found = resumed.find("gossip", 0);
    ASSERT_NE(found, nullptr);
    EXPECT_TRUE(std::isinf(found->metrics.at("inf")) && found->metrics.at("inf") > 0);
    EXPECT_TRUE(std::isnan(found->metrics.at("nan")));
    EXPECT_TRUE(std::isinf(found->metrics.at("neg_inf")) && found->metrics.at("neg_inf") < 0);
    EXPECT_EQ(found->metrics.at("neg_zero"), 0.0);
    EXPECT_TRUE(std::signbit(found->metrics.at("neg_zero")));
}

TEST(SweepJournal, RecordLineFormatIsStable) {
    // Pins the documented byte format (journal.hpp): a journal written by
    // one build must stay readable by the next.
    TempFile file{"format"};
    JournalUnit unit;
    unit.metrics = {{"broadcast_time", 0.1}, {"steps", 1e21}};
    unit.wall_seconds = 0.25;
    {
        SweepJournal journal{file.path(), 0xff, false};
        journal.record("gossip", 2, unit);
    }
    EXPECT_EQ(slurp(file.path()),
              "smn-sweep-journal v1 fingerprint=00000000000000ff\n"
              "unit gossip 2 wall=0.25 broadcast_time=0.1 steps=1e+21\n");
}

TEST(SweepJournal, HeaderOnlyJournalResumesWithNothingReplayed) {
    TempFile file{"header_only"};
    { SweepJournal journal{file.path(), 11, false}; }
    SweepJournal resumed{file.path(), 11, true};
    EXPECT_EQ(resumed.replayed(), 0u);
    EXPECT_EQ(resumed.find("gossip", 0), nullptr);
}

TEST(SweepJournal, FreshOpenDiscardsAnEarlierJournal) {
    // Without --resume the journal starts over: stale units from an
    // earlier run at the same path must never be replayed.
    TempFile file{"fresh"};
    JournalUnit unit;
    {
        SweepJournal journal{file.path(), 12, false};
        journal.record("gossip", 0, unit);
    }
    { SweepJournal journal{file.path(), 12, false}; }
    SweepJournal resumed{file.path(), 12, true};
    EXPECT_EQ(resumed.replayed(), 0u);
}

TEST(SweepJournal, ResumeKeepsPriorBytesAndAppendsAfterThem) {
    TempFile file{"append"};
    JournalUnit unit;
    unit.metrics["m"] = 2.5;
    {
        SweepJournal journal{file.path(), 13, false};
        journal.record("gossip", 0, unit);
    }
    const std::string before = slurp(file.path());
    {
        SweepJournal resumed{file.path(), 13, true};
        resumed.record("gossip", 1, unit);
    }
    const std::string after = slurp(file.path());
    ASSERT_GT(after.size(), before.size());
    EXPECT_EQ(after.substr(0, before.size()), before);
    EXPECT_EQ(after.substr(before.size()), "unit gossip 1 wall=0 m=2.5\n");
    SweepJournal again{file.path(), 13, true};
    EXPECT_EQ(again.replayed(), 2u);
}

// --------------------------------------------- malformed content table
//
// One case per rejection branch of the resume reader. A damaged header
// is always fatal; a damaged unit line is fatal when a complete line
// follows it (mid-file corruption) and is dropped as a torn tail when it
// is the unterminated final fragment.

struct MalformedCase {
    const char* name;
    std::string text;    ///< header content, or one unit line without '\n'
    const char* reason;  ///< substring the JournalError must carry
};

void PrintTo(const MalformedCase& c, std::ostream* os) { *os << c.name; }

std::string case_name(const ::testing::TestParamInfo<MalformedCase>& info) {
    return info.param.name;
}

constexpr std::uint64_t kTableFp = 0x0123456789abcdefULL;
const std::string kTableHeader = "smn-sweep-journal v1 fingerprint=0123456789abcdef\n";
const std::string kTableUnit = "unit gossip 0 wall=0.5 m=1\n";

class MalformedHeader : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MalformedHeader, IsRejected) {
    TempFile file{"bad_header"};
    std::ofstream{file.path(), std::ios::binary | std::ios::trunc}
        << GetParam().text << kTableUnit;
    try {
        SweepJournal journal{file.path(), kTableFp, true};
        FAIL() << "malformed header accepted";
    } catch (const JournalError& err) {
        EXPECT_NE(std::string{err.what()}.find(GetParam().reason), std::string::npos)
            << err.what();
    }
}

INSTANTIATE_TEST_SUITE_P(
    SweepJournal, MalformedHeader,
    ::testing::Values(
        MalformedCase{"MissingHeader", "", "not a sweep journal"},
        MalformedCase{"WrongVersion", "smn-sweep-journal v2 fingerprint=0123456789abcdef\n",
                      "not a sweep journal"},
        MalformedCase{"ShortFingerprint", "smn-sweep-journal v1 fingerprint=0123456789abcde\n",
                      "not a sweep journal"},
        MalformedCase{"TrailingSpace", "smn-sweep-journal v1 fingerprint=0123456789abcdef \n",
                      "not a sweep journal"},
        MalformedCase{"CrlfLineEnding",
                      "smn-sweep-journal v1 fingerprint=0123456789abcdef\r\n",
                      "not a sweep journal"},
        MalformedCase{"NonHexFingerprint",
                      "smn-sweep-journal v1 fingerprint=0123456789abcdeg\n",
                      "bad header fingerprint"},
        MalformedCase{"SignedFingerprint",
                      "smn-sweep-journal v1 fingerprint=-123456789abcdef\n",
                      "bad header fingerprint"}),
    case_name);

TEST(SweepJournal, EmptyFileIsRejected) {
    TempFile file{"empty"};
    std::ofstream{file.path(), std::ios::binary | std::ios::trunc};
    EXPECT_THROW((SweepJournal{file.path(), kTableFp, true}), JournalError);
}

TEST(SweepJournal, TornHeaderIsRejected) {
    // A crash before the header's newline leaves no complete line at all:
    // there is nothing to resume, so the file is refused, not recreated.
    TempFile file{"torn_header"};
    std::ofstream{file.path(), std::ios::binary | std::ios::trunc}
        << kTableHeader.substr(0, 20);
    EXPECT_THROW((SweepJournal{file.path(), kTableFp, true}), JournalError);
}

class MalformedUnitLine : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MalformedUnitLine, IsFatalMidFileAndDroppedAsTornTail) {
    const std::string valid = kTableHeader + kTableUnit;
    TempFile file{"bad_unit"};

    // Mid-file: a complete record follows the damaged one.
    std::ofstream{file.path(), std::ios::binary | std::ios::trunc}
        << valid << GetParam().text << '\n'
        << "unit gossip 5 wall=0 m=2\n";
    try {
        SweepJournal journal{file.path(), kTableFp, true};
        FAIL() << "malformed mid-file line accepted";
    } catch (const JournalError& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("line 3"), std::string::npos) << what;
        EXPECT_NE(what.find(GetParam().reason), std::string::npos) << what;
    }

    // Final unterminated fragment: the crash signature, so it is dropped
    // and truncated away, leaving exactly the valid prefix.
    std::ofstream{file.path(), std::ios::binary | std::ios::trunc} << valid << GetParam().text;
    {
        SweepJournal journal{file.path(), kTableFp, true};
        EXPECT_EQ(journal.replayed(), 1u);
        EXPECT_NE(journal.find("gossip", 0), nullptr);
    }
    EXPECT_EQ(slurp(file.path()), valid);
}

INSTANTIATE_TEST_SUITE_P(
    SweepJournal, MalformedUnitLine,
    ::testing::Values(
        MalformedCase{"WrongKeyword", "record gossip 1 wall=0 m=2", "expected 'unit' record"},
        MalformedCase{"BlankLine", "", "expected 'unit' record"},
        MalformedCase{"LeadingSpace", " unit gossip 1 wall=0", "expected 'unit' record"},
        MalformedCase{"MissingIndex", "unit gossip", "bad unit index"},
        MalformedCase{"NegativeIndex", "unit gossip -1 wall=0", "bad unit index"},
        MalformedCase{"AlphaIndex", "unit gossip x wall=0", "bad unit index"},
        MalformedCase{"IndexSuffix", "unit gossip 3x wall=0", "bad unit index"},
        MalformedCase{"IndexOverflow", "unit gossip 99999999999 wall=0", "bad unit index"},
        MalformedCase{"MissingWall", "unit gossip 1 m=2", "missing wall field"},
        MalformedCase{"FieldWithoutEquals", "unit gossip 1 wall=0 m", "malformed metric field"},
        MalformedCase{"EmptyName", "unit gossip 1 wall=0 =2", "malformed metric field"},
        MalformedCase{"DoubleSpace", "unit gossip 1 wall=0  m=2", "malformed metric field"},
        MalformedCase{"EmptyValue", "unit gossip 1 wall=0 m=", "bad metric value for 'm'"},
        MalformedCase{"ValueSuffix", "unit gossip 1 wall=0 m=2x", "bad metric value for 'm'"},
        MalformedCase{"BadWall", "unit gossip 1 wall=soon", "bad metric value for 'wall'"},
        MalformedCase{"EmbeddedNul", std::string{"unit gossip 1 wall=0 m=2\0", 25},
                      "bad metric value for 'm'"}),
    case_name);

#if SMN_FAILPOINTS_ENABLED

TEST(SweepJournal, AppendFailPointSurfacesAsInjectedFault) {
    TempFile file{"fp_append"};
    SweepJournal journal{file.path(), 1, false};
    util::FailPoints::instance().configure("journal_append=1@0");
    JournalUnit unit;
    EXPECT_THROW(journal.record("gossip", 0, unit), util::InjectedFault);
    util::FailPoints::instance().configure("");
    // The failed append wrote nothing: the unit is absent, not torn.
    journal.record("gossip", 0, unit);
    journal.sync();
    SweepJournal resumed{file.path(), 1, true};
    EXPECT_EQ(resumed.replayed(), 1u);
}

TEST(SweepJournal, ShortWritesAreRetriedToCompletion) {
    // The journal_short_write fail point forces the first ::write of each
    // line (header and records alike) to land a single byte; without the
    // retry loop the header or record would be torn and the resume below
    // would see a corrupt journal.
    TempFile file{"fp_short"};
    util::FailPoints::instance().configure("journal_short_write=1@0");
    JournalUnit unit;
    unit.metrics = {{"broadcast_time", 12.5}, {"steps", 321.0}};
    unit.wall_seconds = 0.125;
    {
        SweepJournal journal{file.path(), 42, false};  // header write is split too
        journal.record("gossip", 0, unit);
        journal.record("gossip", 1, unit);
        journal.sync();
    }
    util::FailPoints::instance().configure("");
    SweepJournal resumed{file.path(), 42, true};
    EXPECT_EQ(resumed.replayed(), 2u);
    const auto* found = resumed.find("gossip", 1);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->metrics, unit.metrics);
    EXPECT_EQ(found->wall_seconds, unit.wall_seconds);
}

#endif  // SMN_FAILPOINTS_ENABLED

}  // namespace
}  // namespace smn::io
