// harness.cpp — one workload of the end-to-end benchmark, in one process on
// one thread. run.py builds this against libsmn and drives it.
//
//   e2ebench_harness --side S --k K --radius R --mobility all-move|frog
//                    --window W --seed N --reps M [--trace] [--spans FILE]
//
// Each replication constructs a core::BroadcastProcess and steps it until
// every agent is informed (window 0) or for at most W steps. The untraced
// run calls only that public engine API. With --trace every replication is
// then replayed from the library's public layer calls in the engine's step
// order, recording spans at each layer boundary; without --trace only the
// first replication is replayed, after all timing, as a check. A
// replay must reproduce the engine's informed times and final positions
// exactly: the two hashes are printed side by side.
//
// Output: one JSON line per replication, then one summary line. Linux and
// glibc only: memory is read from /proc/self/status and mallinfo2().
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "core/bounds.hpp"
#include "core/engine.hpp"
#include "core/rumor.hpp"
#include "graph/dsu.hpp"
#include "graph/visibility.hpp"
#include "grid/grid.hpp"
#include "obs/process.hpp"
#include "obs/provenance.hpp"
#include "rng/rng.hpp"
#include "rng/splitmix64.hpp"
#include "walk/ensemble.hpp"

namespace {

using namespace smn;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Peak resident set size of this process image in bytes. VmHWM starts
/// afresh at exec, unlike getrusage's ru_maxrss, which carries over the
/// launching process's peak.
std::int64_t peak_rss_bytes() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6)) * 1024;
    }
    return obs::peak_rss_bytes();
}

/// Heap bytes currently allocated (small-chunk arenas plus mmapped chunks).
std::int64_t heap_bytes() {
    const auto info = mallinfo2();
    return static_cast<std::int64_t>(info.uordblks + info.hblkhd);
}

struct Options {
    core::EngineConfig config;
    std::int64_t window{0};  ///< 0: run each replication to T_B
    std::uint64_t seed{1};
    int reps{1};
    bool trace{false};
    std::string spans_path;
};

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string_view key = argv[i];
        if (key == "--trace") {
            o.trace = true;
            continue;
        }
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(key));
        const std::string value = argv[++i];
        if (key == "--side") o.config.side = std::stoi(value);
        else if (key == "--k") o.config.k = std::stoi(value);
        else if (key == "--radius") o.config.radius = std::stoll(value);
        else if (key == "--mobility") {
            if (value == "all-move") o.config.mobility = core::Mobility::kAllMove;
            else if (value == "frog") o.config.mobility = core::Mobility::kInformedOnly;
            else throw std::invalid_argument("unknown mobility " + value);
        } else if (key == "--window") o.window = std::stoll(value);
        else if (key == "--seed") o.seed = std::stoull(value);
        else if (key == "--reps") o.reps = std::stoi(value);
        else if (key == "--spans") o.spans_path = value;
        else throw std::invalid_argument("unknown option " + std::string(key));
    }
    if (o.reps < 1) throw std::invalid_argument("--reps must be >= 1");
    return o;
}

/// FNV-1a over the informed-time vector, the final time and the final
/// positions: equal hashes mean the same trajectory outcome.
struct Fnv {
    std::uint64_t h{0xcbf29ce484222325ULL};
    void add(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    }
};

std::uint64_t outcome_hash(std::span<const std::int64_t> times, std::int64_t t,
                           std::span<const grid::Point> positions) {
    Fnv f;
    for (const auto v : times) f.add(static_cast<std::uint64_t>(v));
    f.add(static_cast<std::uint64_t>(t));
    for (const auto p : positions) {
        f.add((static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.x)) << 32) |
              static_cast<std::uint32_t>(p.y));
    }
    return f.h;
}

std::string hex(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

/// Checks the outcome against the model: the source at time 0, every
/// informed time within [0, t], and — for a run to T_B — everyone informed
/// with the last informed at exactly t.
bool outcome_valid(const core::SingleRumor& rumor, std::int32_t source, std::int64_t t,
                   bool to_completion) {
    const auto times = rumor.times();
    if (times[static_cast<std::size_t>(source)] != 0) return false;
    std::int64_t last = 0;
    std::int32_t informed = 0;
    for (const auto v : times) {
        if (v < -1 || v > t) return false;
        if (v >= 0) ++informed;
        last = std::max(last, v);
    }
    if (informed != rumor.informed_count()) return false;
    return !to_completion || (rumor.all_informed() && last == t);
}

// ---------------------------------------------------------------- tracing

enum SpanName : std::uint8_t {
    kRep, kSetup, kSetupAgents, kSetupBuilder, kSetupFirstBuild, kSteps,
    kStep, kWalk, kSpatial, kGraph, kExchange, kSpanNames
};
constexpr std::array<const char*, kSpanNames> kSpanLabel{
    "rep", "setup", "setup.agents", "setup.builder", "setup.first_build", "steps",
    "step", "walk", "spatial", "graph", "exchange"};

struct Span {
    SpanName name;
    std::int32_t parent;  ///< index of the enclosing span, -1 at the root
    std::int32_t rep;
    double start;  ///< seconds since the trace epoch
    double end;
};

/// Spans kept in memory up to a fixed cap (later ones are only counted) and
/// written when the run ends; busy totals per name cover every span.
class Trace {
public:
    static constexpr std::size_t kCap = 50000;

    Trace() { spans_.reserve(kCap); }

    /// Opens a span and returns its handle for parent links and close();
    /// -1 once the cap is reached.
    std::int32_t open(SpanName name, std::int32_t parent, std::int32_t rep, Clock::time_point at) {
        if (spans_.size() >= kCap) {
            ++dropped_;
            return -1;
        }
        spans_.push_back({name, parent, rep, seconds_between(epoch_, at), 0.0});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }

    void close(std::int32_t handle, SpanName name, Clock::time_point start, Clock::time_point end) {
        busy_[name] += seconds_between(start, end);
        if (handle >= 0) spans_[static_cast<std::size_t>(handle)].end = seconds_between(epoch_, end);
    }

    /// Records a span whose two stamps are both known.
    void add(SpanName name, std::int32_t parent, std::int32_t rep, Clock::time_point a,
             Clock::time_point b) {
        close(open(name, parent, rep, a), name, a, b);
    }

    [[nodiscard]] double busy(SpanName name) const { return busy_[name]; }
    [[nodiscard]] std::int64_t dropped() const { return dropped_; }
    [[nodiscard]] std::size_t kept() const { return spans_.size(); }

    void write(const std::string& path) const {
        std::ofstream out(path);
        if (!out) throw std::runtime_error("cannot write spans to " + path);
        out << std::fixed << std::setprecision(9);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto& s = spans_[i];
            out << "{\"id\":" << i << ",\"name\":\"" << kSpanLabel[s.name] << "\",\"parent\":"
                << s.parent << ",\"rep\":" << s.rep << ",\"start\":" << s.start
                << ",\"end\":" << s.end << "}\n";
        }
    }

private:
    Clock::time_point epoch_{Clock::now()};
    std::vector<Span> spans_;
    std::array<double, kSpanNames> busy_{};
    std::int64_t dropped_{0};
};

/// Layer counters summed over the traced replications.
struct LayerCounts {
    std::int64_t node_changes{0}, blocks_decoded{0}, blocks_scalar{0};
    std::int64_t index_moves{0}, relinks{0};
    std::int64_t passes{0}, scan_passes{0}, bypass_passes{0}, pairs_tested{0},
        pairs_survived{0}, replayed_units{0}, rescanned_units{0}, edges_replayed{0},
        dsu_unites{0};
    std::int64_t informs{0}, idle_passes{0};
    std::int64_t builder_bytes{0};
};

struct Outcome {
    std::uint64_t hash{0};
    std::int64_t steps{0};
    bool valid{false};
    double setup_s{0.0};
    double step_s{0.0};
};

/// The engine's t = 0 and per-step exchange rule, over the public DSU and
/// rumor calls: every component holding both an informed and an uninformed
/// agent becomes informed at time t. Returns the number newly informed.
std::int32_t exchange(graph::DisjointSets& dsu, core::SingleRumor& rumor, std::int64_t t,
                      std::vector<std::uint8_t>& root_state, std::vector<std::int32_t>& labels) {
    if (rumor.all_informed()) return 0;
    const auto k = rumor.agent_count();
    std::fill(root_state.begin(), root_state.end(), std::uint8_t{0});
    bool any_mixed = false;
    for (std::int32_t a = 0; a < k; ++a) {
        const auto root = dsu.find(a);
        labels[static_cast<std::size_t>(a)] = root;
        auto& state = root_state[static_cast<std::size_t>(root)];
        state |= rumor.is_informed(a) ? std::uint8_t{1} : std::uint8_t{2};
        any_mixed |= state == 3;
    }
    if (!any_mixed) return 0;
    std::int32_t informed = 0;
    for (std::int32_t a = 0; a < k; ++a) {
        const auto root = static_cast<std::size_t>(labels[static_cast<std::size_t>(a)]);
        if (root_state[root] == 3 && !rumor.is_informed(a)) {
            rumor.inform(a, t);
            ++informed;
        }
    }
    return informed;
}

/// Untraced run: the public engine API only.
Outcome run_engine(const core::EngineConfig& config, std::int64_t limit, bool to_completion) {
    Outcome o;
    const auto t0 = Clock::now();
    core::BroadcastProcess process{config};
    const auto t1 = Clock::now();
    while (!process.complete() && process.time() < limit) process.step();
    const auto t2 = Clock::now();
    o.setup_s = seconds_between(t0, t1);
    o.step_s = seconds_between(t1, t2);
    o.steps = process.time();
    o.hash = outcome_hash(process.rumor().times(), process.time(), process.agents().positions());
    o.valid = outcome_valid(process.rumor(), config.source, process.time(), to_completion);
    return o;
}

struct Move {
    walk::AgentId agent;
    grid::Point from;
    grid::Point to;
};

/// Traced replay of one replication from the layers' public calls.
Outcome run_replay(const core::EngineConfig& config, std::int64_t limit, bool to_completion,
                   std::int32_t rep, Trace& trace, LayerCounts& counts) {
    Outcome o;
    const auto k = static_cast<std::size_t>(config.k);
    const auto t_rep = Clock::now();
    const auto rep_span = trace.open(kRep, -1, rep, t_rep);
    const auto setup_span = trace.open(kSetup, rep_span, rep, t_rep);

    rng::Rng rng{config.seed};
    walk::AgentEnsemble agents{grid::Grid2D::square(config.side), config.k, rng, config.walk};
    const auto t_agents = Clock::now();
    // Heap held by the builder: its constructor plus what the first build
    // allocates (the r = 0 occupancy map sizes itself there).
    const auto heap0 = heap_bytes();
    graph::VisibilityGraphBuilder builder{agents.grid(), config.radius, config.metric};
    const auto heap1 = heap_bytes();
    const auto t_builder = Clock::now();
    graph::DisjointSets dsu{k};
    core::SingleRumor rumor{config.k, config.source};
    std::vector<std::uint8_t> root_state(k, 0);
    std::vector<std::int32_t> labels(k, 0);
    std::vector<std::uint8_t> move_mask(k, 0);
    std::vector<Move> moves;
    moves.reserve(k);
    const auto heap2 = heap_bytes();
    builder.build(agents.positions(), dsu);
    if (rep == 0) counts.builder_bytes = (heap1 - heap0) + (heap_bytes() - heap2);
    counts.informs += exchange(dsu, rumor, 0, root_state, labels);
    const auto t_setup = Clock::now();
    trace.add(kSetupAgents, setup_span, rep, t_rep, t_agents);
    trace.add(kSetupBuilder, setup_span, rep, t_agents, t_builder);
    trace.add(kSetupFirstBuild, setup_span, rep, t_builder, t_setup);
    trace.close(setup_span, kSetup, t_rep, t_setup);

    const auto record = [&moves](walk::AgentId a, grid::Point from, grid::Point to) {
        moves.push_back({a, from, to});
    };
    const auto steps_span = trace.open(kSteps, rep_span, rep, t_setup);
    std::int64_t t = 0;
    while (!rumor.all_informed() && t < limit) {
        ++t;
        const auto s0 = Clock::now();
        const auto step_span = trace.open(kStep, steps_span, rep, s0);
        moves.clear();
        if (config.mobility == core::Mobility::kAllMove) {
            agents.step_all(rng, record);
        } else {
            const auto flags = rumor.flags();
            std::copy(flags.begin(), flags.end(), move_mask.begin());
            agents.step_subset(rng, move_mask, record);
        }
        const auto s1 = Clock::now();
        builder.begin_step();
        for (const auto& m : moves) builder.on_move(m.agent, m.from, m.to);
        const auto s2 = Clock::now();
        builder.rebuild_components(agents.positions(), dsu);
        const auto s3 = Clock::now();
        const auto informed = exchange(dsu, rumor, t, root_state, labels);
        const auto s4 = Clock::now();
        trace.add(kWalk, step_span, rep, s0, s1);
        trace.add(kSpatial, step_span, rep, s1, s2);
        trace.add(kGraph, step_span, rep, s2, s3);
        trace.add(kExchange, step_span, rep, s3, s4);
        trace.close(step_span, kStep, s0, s4);
        counts.node_changes += static_cast<std::int64_t>(moves.size());
        counts.informs += informed;
        counts.idle_passes += informed == 0 ? 1 : 0;
        ++counts.passes;
    }
    const auto t_end = Clock::now();
    trace.close(steps_span, kSteps, t_setup, t_end);
    trace.close(rep_span, kRep, t_rep, t_end);

    const auto& walk = agents.decode_stats();
    counts.blocks_decoded += walk.blocks_decoded;
    counts.blocks_scalar += walk.blocks_scalar;
    const auto& index = builder.index_stats();
    counts.index_moves += index.moves;
    counts.relinks += index.relinks;
    const auto& scan = builder.scan_stats();
    counts.scan_passes += scan.passes;
    counts.bypass_passes += scan.bypass_passes;
    counts.pairs_tested += scan.pairs_tested;
    counts.pairs_survived += scan.pairs_survived;
    counts.replayed_units += scan.replayed_units;
    counts.rescanned_units += scan.rescanned_units;
    counts.edges_replayed += scan.edges_replayed;
    counts.dsu_unites += dsu.stats().unites;

    o.setup_s = seconds_between(t_rep, t_setup);
    o.step_s = seconds_between(t_setup, t_end);
    o.steps = t;
    o.hash = outcome_hash(rumor.times(), t, agents.positions());
    o.valid = outcome_valid(rumor, config.source, t, to_completion);
    return o;
}

double ratio(std::int64_t num, std::int64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

int run(const Options& opt) {
    const bool to_completion = opt.window == 0;
    const auto limit = to_completion ? core::bounds::default_max_steps(opt.config.n(), opt.config.k)
                                     : opt.window;
    rng::SplitMix64 seeds{opt.seed};
    std::vector<std::uint64_t> rep_seeds(static_cast<std::size_t>(opt.reps));
    for (auto& s : rep_seeds) s = seeds();

    Trace trace;
    LayerCounts counts;
    double engine_step_s = 0.0;
    double replay_step_s = 0.0;
    const auto rss_before = peak_rss_bytes();
    const auto t_start = Clock::now();
    std::vector<Outcome> engine(rep_seeds.size());
    std::vector<std::optional<Outcome>> replay(rep_seeds.size());
    for (std::size_t i = 0; i < rep_seeds.size(); ++i) {
        auto config = opt.config;
        config.seed = rep_seeds[i];
        engine[i] = run_engine(config, limit, to_completion);
        if (opt.trace) {
            replay[i] = run_replay(config, limit, to_completion, static_cast<std::int32_t>(i),
                                   trace, counts);
            engine_step_s += engine[i].step_s;
            replay_step_s += replay[i]->step_s;
        }
    }
    const double wall_s = seconds_between(t_start, Clock::now());
    const auto rss_peak = peak_rss_bytes();
    // Untraced runs check their first replication against the replay, after
    // timing.
    if (!opt.trace) {
        LayerCounts unused;
        auto config = opt.config;
        config.seed = rep_seeds[0];
        replay[0] = run_replay(config, limit, to_completion, 0, trace, unused);
    }

    for (std::size_t i = 0; i < rep_seeds.size(); ++i) {
        const auto& e = engine[i];
        std::printf("{\"rep\":%zu,\"rep_seed\":%llu,\"steps\":%lld,\"valid\":%s,\"hash\":\"%s\","
                    "\"setup_s\":%.9g,\"step_s\":%.9g",
                    i, static_cast<unsigned long long>(rep_seeds[i]),
                    static_cast<long long>(e.steps), e.valid ? "true" : "false",
                    hex(e.hash).c_str(), e.setup_s, e.step_s);
        if (replay[i]) {
            std::printf(",\"replay_hash\":\"%s\",\"replay_valid\":%s", hex(replay[i]->hash).c_str(),
                        replay[i]->valid ? "true" : "false");
        }
        std::printf("}\n");
    }

    const auto info = obs::build_info();
    std::printf("{\"summary\":true,\"wall_s\":%.9g,\"rss_before_bytes\":%lld,"
                "\"rss_peak_bytes\":%lld,\"nproc\":%ld,\"git_sha\":\"%s\",\"build_type\":\"%s\","
                "\"simd_backend\":\"%s\",\"obs_enabled\":%s",
                wall_s, static_cast<long long>(rss_before), static_cast<long long>(rss_peak),
                sysconf(_SC_NPROCESSORS_ONLN), info.git_sha, info.build_type, info.simd_backend,
                info.obs_enabled ? "true" : "false");
    if (opt.trace) {
        const double busy = trace.busy(kWalk) + trace.busy(kSpatial) + trace.busy(kGraph) +
                            trace.busy(kExchange);
        const auto& c = counts;
        std::printf(
            ",\"layers\":{"
            "\"walk.busy_s\":%.9g,\"walk.node_changes\":%lld,\"walk.blocks_decoded\":%lld,"
            "\"walk.blocks_scalar\":%lld,"
            "\"spatial.busy_s\":%.9g,\"spatial.relinks\":%lld,\"spatial.relink_frac\":%.9g,"
            "\"graph.busy_s\":%.9g,\"graph.passes\":%lld,\"graph.bypass_frac\":%.9g,"
            "\"graph.pairs_tested\":%lld,\"graph.pair_survivor_rate\":%.9g,"
            "\"graph.dsu_unites\":%lld,\"graph.replay_ratio\":%.9g,\"graph.edges_replayed\":%lld,"
            "\"core.exchange_busy_s\":%.9g,\"core.informs\":%lld,\"core.idle_pass_frac\":%.9g,"
            "\"setup.agents_s\":%.9g,\"setup.builder_s\":%.9g,\"setup.first_build_s\":%.9g,"
            "\"setup.builder_bytes\":%lld,"
            "\"trace.overhead_frac\":%.9g,\"trace.unaccounted_frac\":%.9g,"
            "\"trace.spans_kept\":%zu,\"trace.spans_dropped\":%lld}",
            trace.busy(kWalk), static_cast<long long>(c.node_changes),
            static_cast<long long>(c.blocks_decoded), static_cast<long long>(c.blocks_scalar),
            trace.busy(kSpatial), static_cast<long long>(c.relinks), ratio(c.relinks, c.index_moves),
            trace.busy(kGraph), static_cast<long long>(c.passes),
            ratio(c.bypass_passes, c.scan_passes), static_cast<long long>(c.pairs_tested),
            ratio(c.pairs_survived, c.pairs_tested), static_cast<long long>(c.dsu_unites),
            ratio(c.replayed_units, c.replayed_units + c.rescanned_units),
            static_cast<long long>(c.edges_replayed), trace.busy(kExchange),
            static_cast<long long>(c.informs), ratio(c.idle_passes, c.passes),
            trace.busy(kSetupAgents), trace.busy(kSetupBuilder), trace.busy(kSetupFirstBuild),
            static_cast<long long>(c.builder_bytes),
            engine_step_s > 0 ? replay_step_s / engine_step_s - 1.0 : 0.0,
            replay_step_s > 0 ? 1.0 - busy / replay_step_s : 0.0, trace.kept(),
            static_cast<long long>(trace.dropped()));
    }
    std::printf("}\n");
    if (!opt.spans_path.empty()) trace.write(opt.spans_path);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    // Pin glibc's static allocation policy: with the dynamic mmap threshold,
    // whether a replication's O(n) arrays come back from the heap or are
    // mapped and faulted in afresh depends on earlier replications' frees,
    // which made setup_s bimodal across seeds. Fixed, every construction
    // pays the cold cost a single run pays.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    try {
        return run(parse(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2ebench_harness: %s\n", e.what());
        return 2;
    }
}
