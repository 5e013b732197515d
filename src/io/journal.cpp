#include "io/journal.hpp"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "util/failpoint.hpp"

namespace smn::io {
namespace {

// The journal's number format: a metric double travels through the text
// form and re-serializes to the exact bytes the original run would have
// written, so a resumed sweep's merged JSONL output stays byte-identical.
// Shortest round-trip via std::to_chars out, full-consumption strtod back
// in. (exp::format_double is intentionally separate: JSON cannot
// represent nan/inf, so the writer maps them to null.)

/// Shortest decimal rendering that parses back to the exact same bits.
std::string render_double(double value) {
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
    if (ec != std::errc{}) return "0";
    return std::string(buf, ptr);
}

/// Parses a double, demanding the whole token is consumed. Returns false
/// on empty input, trailing garbage, or no conversion ("nan"/"inf" parse,
/// matching what render_double can emit).
bool parse_double(std::string_view text, double& out) {
    if (text.empty()) return false;
    const std::string owned{text};  // strtod needs a terminator
    char* end = nullptr;
    out = std::strtod(owned.c_str(), &end);
    return end == owned.c_str() + owned.size();
}

[[noreturn]] void fail(const std::string& path, const std::string& reason) {
    throw JournalError("journal '" + path + "': " + reason);
}

/// Writes every byte of `bytes`, riding out EINTR and short writes — a
/// single unchecked ::write can legally land partial (signal mid-write,
/// disk-full boundary) and would tear the record or header. The
/// journal_short_write fail point deliberately splits the first write
/// into one byte so the retry loop is exercised deterministically.
void write_fully(int fd, const std::string& path, std::string_view bytes,
                 const char* what) {
    std::size_t off = 0;
    bool inject_short = util::failpoint_fires("journal_short_write");
    while (off < bytes.size()) {
        std::size_t len = bytes.size() - off;
        if (inject_short) {
            len = 1;
            inject_short = false;
        }
        const ::ssize_t n = ::write(fd, bytes.data() + off, len);
        if (n < 0) {
            if (errno == EINTR) continue;
            fail(path, std::string{what} + ": " + std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
}

std::uint64_t fnv1a(std::uint64_t hash, std::string_view text) {
    for (const char c : text) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 0x100000001B3ULL;
    }
    return hash;
}

std::string hex16(std::uint64_t value) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
    return buf;
}

constexpr std::string_view kHeaderPrefix = "smn-sweep-journal v1 fingerprint=";

/// Splits a space-separated token off the front of `rest`.
std::string_view take_token(std::string_view& rest) {
    const auto space = rest.find(' ');
    const auto token = rest.substr(0, space);
    rest = space == std::string_view::npos ? std::string_view{} : rest.substr(space + 1);
    return token;
}

}  // namespace

std::uint64_t sweep_fingerprint(std::uint64_t seed, int reps,
                                const std::vector<std::pair<std::string, std::string>>& scenarios,
                                std::string_view build_sha) {
    std::uint64_t hash = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
    hash = fnv1a(hash, "smn-sweep v1|");
    hash = fnv1a(hash, std::to_string(seed));
    hash = fnv1a(hash, "|");
    hash = fnv1a(hash, std::to_string(reps));
    hash = fnv1a(hash, "|");
    hash = fnv1a(hash, build_sha);
    for (const auto& [name, sweep] : scenarios) {
        hash = fnv1a(hash, "|");
        hash = fnv1a(hash, name);
        hash = fnv1a(hash, ":");
        hash = fnv1a(hash, sweep);
    }
    return hash;
}

SweepJournal::SweepJournal(std::string path, std::uint64_t fingerprint, bool resume)
    : path_{std::move(path)}, fingerprint_{fingerprint} {
    if (resume) {
        // Replay the existing journal before reopening it for append.
        std::FILE* f = std::fopen(path_.c_str(), "rb");
        if (f == nullptr) fail(path_, std::string{"cannot open for resume: "} + std::strerror(errno));
        std::string content;
        char chunk[1 << 16];
        std::size_t n = 0;
        while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) content.append(chunk, n);
        const bool bad = std::ferror(f) != 0;
        std::fclose(f);
        if (bad) fail(path_, "read error");

        // A crash can tear at most the final line: anything after the last
        // '\n' is discarded; malformed content before it is a hard error.
        const auto last_newline = content.find_last_of('\n');
        if (last_newline == std::string::npos) fail(path_, "missing or torn header line");
        std::string_view complete{content.data(), last_newline + 1};

        std::size_t line_no = 0;
        while (!complete.empty()) {
            ++line_no;
            const auto eol = complete.find('\n');
            std::string_view line = complete.substr(0, eol);
            complete = complete.substr(eol + 1);
            if (line_no == 1) {
                if (line.size() != kHeaderPrefix.size() + 16 ||
                    line.substr(0, kHeaderPrefix.size()) != kHeaderPrefix) {
                    fail(path_, "bad header (not a sweep journal)");
                }
                const auto hex = line.substr(kHeaderPrefix.size());
                std::uint64_t found = 0;
                const auto [ptr, ec] =
                    std::from_chars(hex.data(), hex.data() + hex.size(), found, 16);
                if (ec != std::errc{} || ptr != hex.data() + hex.size()) {
                    fail(path_, "bad header fingerprint");
                }
                if (found != fingerprint_) {
                    fail(path_, "fingerprint mismatch: journal was written by a different sweep "
                                "(journal " +
                                    hex16(found) + ", this invocation " + hex16(fingerprint_) +
                                    "); refusing to resume");
                }
                continue;
            }
            const auto where = [&] { return "line " + std::to_string(line_no); };
            if (take_token(line) != "unit") fail(path_, where() + ": expected 'unit' record");
            const auto scenario = take_token(line);
            const auto index_tok = take_token(line);
            int index = -1;
            const auto [iptr, iec] =
                std::from_chars(index_tok.data(), index_tok.data() + index_tok.size(), index);
            if (iec != std::errc{} || iptr != index_tok.data() + index_tok.size() || index < 0) {
                fail(path_, where() + ": bad unit index");
            }
            JournalUnit unit;
            bool saw_wall = false;
            while (!line.empty()) {
                const auto kv = take_token(line);
                const auto eq = kv.find('=');
                if (eq == std::string_view::npos || eq == 0) {
                    fail(path_, where() + ": malformed metric field");
                }
                const std::string name{kv.substr(0, eq)};
                double value = 0.0;
                if (!parse_double(kv.substr(eq + 1), value)) {
                    fail(path_, where() + ": bad metric value for '" + name + "'");
                }
                if (name == "wall") {
                    unit.wall_seconds = value;
                    saw_wall = true;
                } else {
                    unit.metrics[name] = value;
                }
            }
            if (!saw_wall) fail(path_, where() + ": missing wall field");
            units_[{std::string{scenario}, index}] = std::move(unit);
        }
        replayed_ = units_.size();

        fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
        if (fd_ < 0) fail(path_, std::string{"cannot reopen for append: "} + std::strerror(errno));
        // Drop the torn tail (bytes after the last newline) so the next
        // append starts a fresh record instead of extending the fragment.
        if (::ftruncate(fd_, static_cast<::off_t>(last_newline + 1)) != 0) {
            const int err = errno;
            ::close(fd_);
            fd_ = -1;
            fail(path_, std::string{"cannot drop torn tail: "} + std::strerror(err));
        }
        return;
    }

    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
    if (fd_ < 0) fail(path_, std::string{"cannot create: "} + std::strerror(errno));
    const std::string header = std::string{kHeaderPrefix} + hex16(fingerprint_) + "\n";
    try {
        write_fully(fd_, path_, header, "cannot write header");
    } catch (...) {
        ::close(fd_);
        fd_ = -1;
        throw;
    }
}

SweepJournal::~SweepJournal() {
    if (fd_ >= 0) ::close(fd_);
}

const JournalUnit* SweepJournal::find(std::string_view scenario, int unit) const {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto it = units_.find(std::pair<std::string, int>{std::string{scenario}, unit});
    return it == units_.end() ? nullptr : &it->second;
}

void SweepJournal::record(std::string_view scenario, int unit, const JournalUnit& data) {
    if (scenario.find_first_of(" \n") != std::string_view::npos || scenario.empty()) {
        fail(path_, "scenario name unrepresentable in journal: '" + std::string{scenario} + "'");
    }
    std::string line = "unit ";
    line += scenario;
    line += ' ';
    line += std::to_string(unit);
    line += " wall=";
    line += render_double(data.wall_seconds);
    for (const auto& [name, value] : data.metrics) {
        if (name.empty() || name.find_first_of(" =\n") != std::string::npos) {
            fail(path_, "metric name unrepresentable in journal: '" + name + "'");
        }
        line += ' ';
        line += name;
        line += '=';
        line += render_double(value);
    }
    line += '\n';

    util::failpoint("journal_append");
    const std::lock_guard<std::mutex> lock{mutex_};
    // O_APPEND writes from a single fd never interleave with each other,
    // and write_fully rides out EINTR and short writes so the line always
    // lands whole (a torn tail is only possible at a crash boundary).
    write_fully(fd_, path_, line, "append failed");
    units_[{std::string{scenario}, unit}] = data;
}

void SweepJournal::sync() {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (fd_ >= 0) ::fsync(fd_);
}

}  // namespace smn::io
