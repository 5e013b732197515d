#include "io/snapshot.hpp"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "obs/provenance.hpp"
#include "util/failpoint.hpp"

namespace smn::io {
namespace {

constexpr std::array<char, 8> kMagic = {'S', 'M', 'N', 'S', 'N', 'A', 'P', '\0'};

[[noreturn]] void fail(const std::string& path, const std::string& reason) {
    throw SnapshotError("snapshot '" + path + "': " + reason);
}

// ---- little-endian buffer writer ------------------------------------------
//
// Fields are appended byte-serially (memcpy through a uint of the right
// width), so the format is independent of host alignment and padding; on
// big-endian hosts the bytes are swapped explicitly.

struct Writer {
    std::vector<std::uint8_t> bytes;

    void raw(const void* data, std::size_t size) {
        const auto* p = static_cast<const std::uint8_t*>(data);
        bytes.insert(bytes.end(), p, p + size);
    }
    template <typename T>
    void u(T value) {
        static_assert(std::is_unsigned_v<T>);
        std::array<std::uint8_t, sizeof(T)> out{};
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            out[i] = static_cast<std::uint8_t>(value >> (8 * i));
        }
        raw(out.data(), out.size());
    }
    void u8(std::uint8_t v) { u<std::uint8_t>(v); }
    void u32(std::uint32_t v) { u<std::uint32_t>(v); }
    void u64(std::uint64_t v) { u<std::uint64_t>(v); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void str(std::string_view s) {
        u32(static_cast<std::uint32_t>(s.size()));
        raw(s.data(), s.size());
    }
};

// ---- little-endian buffer reader ------------------------------------------
//
// Reads are bounded by `end`, the end of the CRC-protected body, so a
// short payload can never read into the checksum trailer.

struct Reader {
    const std::string& path;
    const std::vector<std::uint8_t>& bytes;
    std::size_t end;
    std::size_t pos{0};

    void need(std::size_t n) const {
        if (end - pos < n) fail(path, "truncated (unexpected end of data)");
    }
    /// Fails unless the payload was consumed exactly.
    void finish() const {
        if (pos != end) fail(path, "trailing bytes after the payload (corrupt payload)");
    }
    void raw(void* out, std::size_t n) {
        need(n);
        std::memcpy(out, bytes.data() + pos, n);
        pos += n;
    }
    template <typename T>
    T u() {
        static_assert(std::is_unsigned_v<T>);
        need(sizeof(T));
        T value = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            value |= static_cast<T>(bytes[pos + i]) << (8 * i);
        }
        pos += sizeof(T);
        return value;
    }
    std::uint8_t u8() { return u<std::uint8_t>(); }
    std::uint32_t u32() { return u<std::uint32_t>(); }
    std::uint64_t u64() { return u<std::uint64_t>(); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    std::string str() {
        const auto n = u32();
        if (n > (1u << 20)) fail(path, "implausible string length (corrupt header)");
        std::string s(n, '\0');
        raw(s.data(), n);
        return s;
    }
};

// ---- shared header / config serialization ---------------------------------

void put_header(Writer& w, std::uint32_t kind) {
    w.raw(kMagic.data(), kMagic.size());
    w.u32(kSnapshotVersion);
    w.u32(kind);
    const auto& build = obs::build_info();
    w.str(build.git_sha);
    w.str(build.simd_backend);
    w.u8(build.obs_enabled ? 1 : 0);
}

SnapshotInfo get_header(Reader& r) {
    std::array<char, 8> magic{};
    r.raw(magic.data(), magic.size());
    if (magic != kMagic) fail(r.path, "bad magic (not a snapshot file)");
    SnapshotInfo info;
    info.version = r.u32();
    if (info.version != kSnapshotVersion) {
        fail(r.path, "unsupported format version " + std::to_string(info.version) +
                         " (this build reads version " + std::to_string(kSnapshotVersion) + ")");
    }
    info.kind = r.u32();
    if (info.kind != kSnapshotBroadcast && info.kind != kSnapshotGossip) {
        fail(r.path, "unknown engine kind " + std::to_string(info.kind));
    }
    info.git_sha = r.str();
    info.simd_backend = r.str();
    info.obs_enabled = r.u8() != 0;
    return info;
}

void put_config(Writer& w, const core::EngineConfig& c) {
    w.i32(c.side);
    w.i32(c.k);
    w.i64(c.radius);
    w.u8(static_cast<std::uint8_t>(c.metric));
    w.u8(static_cast<std::uint8_t>(c.walk));
    w.u8(static_cast<std::uint8_t>(c.mobility));
    w.i32(c.source);
    w.u64(c.seed);
}

core::EngineConfig get_config(Reader& r) {
    core::EngineConfig c;
    c.side = r.i32();
    c.k = r.i32();
    c.radius = r.i64();
    c.metric = static_cast<grid::Metric>(r.u8());
    c.walk = static_cast<walk::WalkKind>(r.u8());
    c.mobility = static_cast<core::Mobility>(r.u8());
    c.source = r.i32();
    c.seed = r.u64();
    if (c.k < 1 || c.k > (1 << 26)) fail(r.path, "implausible agent count (corrupt payload)");
    try {
        return core::validate_config(c);
    } catch (const std::invalid_argument& err) {
        fail(r.path, err.what());
    }
}

void put_common(Writer& w, const core::EngineConfig& config,
                const std::array<std::uint64_t, 4>& rng_state,
                const std::vector<grid::Point>& positions, std::int64_t t) {
    put_config(w, config);
    w.i64(t);
    for (const auto word : rng_state) w.u64(word);
    for (const auto& p : positions) {
        w.i32(p.x);
        w.i32(p.y);
    }
}

// ---- atomic file I/O -------------------------------------------------------

void fsync_or_fail(int fd, const std::string& path, const char* what) {
    if (::fsync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        fail(path, std::string{what} + " fsync failed: " + std::strerror(err));
    }
}

// Publishes `bytes` at `path` atomically: write to "<path>.tmp", fsync,
// rename over the target, fsync the directory. A crash at any point
// leaves either the previous file or the complete new one.
void atomic_write(const std::string& path, const std::vector<std::uint8_t>& bytes) {
    const std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) fail(path, "cannot create temp file '" + tmp + "': " + std::strerror(errno));
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ::ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            const int err = errno;
            ::close(fd);
            fail(path, std::string{"write failed: "} + std::strerror(err));
        }
        off += static_cast<std::size_t>(n);
    }
    fsync_or_fail(fd, path, "temp file");
    ::close(fd);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        fail(path, std::string{"rename failed: "} + std::strerror(errno));
    }
    // fsync the containing directory so the rename itself is durable.
    const auto slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
        fsync_or_fail(dfd, path, "directory");
        ::close(dfd);
    }
}

void finish_and_write(const std::string& path, Writer& w) {
    util::failpoint("snapshot_write");
    w.u32(crc32(w.bytes.data(), w.bytes.size()));
    if (util::failpoint_fires("snapshot_truncate")) {
        // Simulate a torn write on a non-atomic filesystem: publish only a
        // prefix of the buffer. Loads must reject this via the CRC.
        w.bytes.resize(w.bytes.size() * 2 / 3);
    }
    atomic_write(path, w.bytes);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) fail(path, std::string{"cannot open: "} + std::strerror(errno));
    std::vector<std::uint8_t> bytes;
    std::array<std::uint8_t, 1 << 16> chunk{};
    std::size_t n = 0;
    while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
        bytes.insert(bytes.end(), chunk.data(), chunk.data() + n);
    }
    const bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad) fail(path, "read error");
    return bytes;
}

// Verifies the CRC trailer and returns a reader over the protected bytes.
Reader open_verified(const std::string& path, const std::vector<std::uint8_t>& bytes) {
    if (bytes.size() < kMagic.size() + sizeof(std::uint32_t)) {
        fail(path, "truncated (shorter than header + checksum)");
    }
    const std::size_t body = bytes.size() - sizeof(std::uint32_t);
    std::uint32_t stored = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        stored |= static_cast<std::uint32_t>(bytes[body + i]) << (8 * i);
    }
    if (crc32(bytes.data(), body) != stored) {
        fail(path, "checksum mismatch (file is corrupt or truncated)");
    }
    return Reader{path, bytes, body};
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) noexcept {
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit) {
                c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            }
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xFFFFFFFFu;
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
    }
    return crc ^ 0xFFFFFFFFu;
}

void save_snapshot(const std::string& path, const core::BroadcastState& state) {
    Writer w;
    put_header(w, kSnapshotBroadcast);
    put_common(w, state.config, state.rng_state, state.positions, state.t);
    for (const auto flag : state.informed) w.u8(flag);
    for (const auto time : state.informed_time) w.i64(time);
    finish_and_write(path, w);
}

void save_snapshot(const std::string& path, const core::GossipState& state) {
    Writer w;
    put_header(w, kSnapshotGossip);
    put_common(w, state.config, state.rng_state, state.positions, state.t);
    w.u64(state.rumor_bits.size());
    for (const auto word : state.rumor_bits) w.u64(word);
    for (const auto time : state.rumor_complete_time) w.i64(time);
    finish_and_write(path, w);
}

SnapshotInfo snapshot_info(const std::string& path) {
    const auto bytes = read_file(path);
    auto r = open_verified(path, bytes);
    return get_header(r);
}

core::BroadcastState load_broadcast_snapshot(const std::string& path) {
    const auto bytes = read_file(path);
    auto r = open_verified(path, bytes);
    const auto info = get_header(r);
    if (info.kind != kSnapshotBroadcast) {
        fail(path, "kind mismatch: file holds a gossip snapshot, expected broadcast");
    }
    core::BroadcastState state;
    state.config = get_config(r);
    state.t = r.i64();
    for (auto& word : state.rng_state) word = r.u64();
    const auto k = static_cast<std::size_t>(state.config.k);
    state.positions.resize(k);
    for (auto& p : state.positions) {
        p.x = r.i32();
        p.y = r.i32();
    }
    state.informed.resize(k);
    for (auto& flag : state.informed) flag = r.u8();
    state.informed_time.resize(k);
    for (auto& time : state.informed_time) time = r.i64();
    r.finish();
    return state;
}

core::GossipState load_gossip_snapshot(const std::string& path) {
    const auto bytes = read_file(path);
    auto r = open_verified(path, bytes);
    const auto info = get_header(r);
    if (info.kind != kSnapshotGossip) {
        fail(path, "kind mismatch: file holds a broadcast snapshot, expected gossip");
    }
    core::GossipState state;
    state.config = get_config(r);
    state.t = r.i64();
    for (auto& word : state.rng_state) word = r.u64();
    const auto k = static_cast<std::size_t>(state.config.k);
    state.positions.resize(k);
    for (auto& p : state.positions) {
        p.x = r.i32();
        p.y = r.i32();
    }
    const auto words = r.u64();
    const auto expected = k * ((k + 63) / 64);
    if (words != expected) fail(path, "rumor bitset size disagrees with agent count");
    state.rumor_bits.resize(words);
    for (auto& word : state.rumor_bits) word = r.u64();
    state.rumor_complete_time.resize(k);
    for (auto& time : state.rumor_complete_time) time = r.i64();
    r.finish();
    return state;
}

}  // namespace smn::io
