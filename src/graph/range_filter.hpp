// range_filter.hpp — masked in-range tests for the visibility pair scan.
//
// The hot predicate of VisibilityGraphBuilder is "is agent j within
// distance r of agent i" over short contiguous candidate slices (a bucket
// row segment or a gathered bucket). At percolation occupancy (≈1 agent
// per bucket) those slices are 1–8 agents long, so a classic
// full-vector-plus-scalar-tail loop would almost never take the vector
// path. Instead the kernel here is *masked fixed width*: it always loads
// one full 8-lane vector and masks away the lanes ≥ count, which turns
// every candidate slice into exactly one vector op.
//
// Contract: callers must keep xs/ys readable for kRangeLanes elements
// from the given offset even when count < kRangeLanes — the scan buffers
// (RowBuffer, ScanScratch) are padded with kRangePad value-initialized
// elements for this; the padded lanes are computed on and then discarded
// by the mask, so their contents never affect the result.
//
// The returned bit i (i < count) is set iff candidate i is in range. The
// caller iterates survivors in ascending bit order (countr_zero /
// clear-lowest), which is exactly the scalar iteration order — so the
// DSU union sequence, the cached-edge arenas, and therefore the
// trajectories are bit-identical to the scalar scan (and across SIMD
// backends; the force-scalar CI leg replays the same goldens).
//
// Metrics: L1 and L∞ are 8-wide int32 lane math. Distances fit int32
// because the builder and core::validate_config refuse grid sides above
// kMaxSide = 2^30 (visibility.hpp), so |dx|+|dy| ≤ 2^31 − 2. A radius of 0
// is the co-location test. Squared Euclidean needs 64-bit
// products, which AVX2/NEON cannot form from 32-bit lanes cheaply — and
// no tracked scenario uses it — so it takes the scalar loop on every
// backend, through the same masked interface.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "grid/point.hpp"
#include "util/simd.hpp"

namespace smn::graph {

/// Candidates tested per call; also the buffer padding the caller owes.
inline constexpr std::size_t kRangeLanes = static_cast<std::size_t>(util::simd::kI32Lanes);
inline constexpr std::size_t kRangePad = kRangeLanes;

/// Reference implementation: plain scalar loop, any backend. Semantics
/// identical to in_range_mask8 (tests and microbenches diff the two).
template <grid::Metric M>
[[nodiscard]] inline std::uint32_t in_range_mask8_scalar(const grid::Coord* xs,
                                                         const grid::Coord* ys,
                                                         std::size_t count, grid::Coord px,
                                                         grid::Coord py,
                                                         std::int32_t radius) noexcept {
    std::uint32_t bits = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::int32_t dx = xs[i] - px;
        const std::int32_t dy = ys[i] - py;
        bool in = false;
        if constexpr (M == grid::Metric::kEuclidean) {
            in = std::int64_t{dx} * dx + std::int64_t{dy} * dy <=
                 std::int64_t{radius} * radius;
        } else {
            const std::int32_t adx = dx < 0 ? -dx : dx;
            const std::int32_t ady = dy < 0 ? -dy : dy;
            if constexpr (M == grid::Metric::kManhattan) {
                in = adx + ady <= radius;
            } else {
                in = (adx > ady ? adx : ady) <= radius;
            }
        }
        bits |= static_cast<std::uint32_t>(in) << i;
    }
    return bits;
}

/// Tests candidates (xs[i], ys[i]) for i < count ≤ kRangeLanes against
/// (px, py); bit i of the result is set iff in range under metric M.
/// Vectorized for L1/L∞ on SIMD backends; see the header comment for the
/// padding contract.
template <grid::Metric M>
[[nodiscard]] inline std::uint32_t in_range_mask8(const grid::Coord* xs, const grid::Coord* ys,
                                                  std::size_t count, grid::Coord px,
                                                  grid::Coord py,
                                                  std::int32_t radius) noexcept {
#if defined(SMN_SIMD_SCALAR)
    return in_range_mask8_scalar<M>(xs, ys, count, px, py, radius);
#else
    if constexpr (M == grid::Metric::kEuclidean) {
        return in_range_mask8_scalar<M>(xs, ys, count, px, py, radius);
    } else {
        namespace s = util::simd;
        const auto adx = s::abs(s::sub(s::I32x8::load(xs), s::I32x8::splat(px)));
        const auto ady = s::abs(s::sub(s::I32x8::load(ys), s::I32x8::splat(py)));
        const auto dist = M == grid::Metric::kManhattan ? s::add(adx, ady) : s::max(adx, ady);
        const auto over = s::cmpgt(dist, s::I32x8::splat(radius));
        return ~s::move_mask(over) & ((1u << count) - 1u);
    }
#endif
}

namespace detail {

/// kCompressLut[bits] = the set-bit lanes of `bits` in ascending order
/// (trailing lanes are don't-cares) — the shuffle pattern that packs the
/// survivors of an 8-lane mask to the front of a vector.
inline constexpr auto kCompressLut = [] {
    std::array<std::array<std::int32_t, 8>, 256> lut{};
    for (std::uint32_t bits = 0; bits < 256; ++bits) {
        std::size_t n = 0;
        for (std::int32_t lane = 0; lane < 8; ++lane) {
            if (bits & (1u << lane)) lut[bits][n++] = lane;
        }
    }
    return lut;
}();

}  // namespace detail

/// Compressed store of a masked 8-lane survivor set: writes src[lane] for
/// every set bit of `bits` (lanes ascending — the scalar iteration order)
/// to dst[0..popcount), and returns the survivor count. `src` and `dst`
/// must both be readable/writable for kRangeLanes elements regardless of
/// the popcount — the same padding contract as in_range_mask8, which is
/// where `bits` comes from. This turns the branchy bit-scan loop over the
/// in-range mask into one branch-free shuffle + store on SIMD backends.
inline std::size_t compress_store8(std::uint32_t bits, const std::int32_t* src,
                                   std::int32_t* dst) noexcept {
#if defined(SMN_SIMD_AVX2)
    const auto idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(detail::kCompressLut[bits & 0xFFu].data()));
    const auto v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), _mm256_permutevar8x32_epi32(v, idx));
    return static_cast<std::size_t>(std::popcount(bits & 0xFFu));
#else
    // Scalar/NEON: the plain bit-scan emits the same survivors in the same
    // order (NEON has no cross-lane variable shuffle worth the setup here).
    std::size_t n = 0;
    for (auto b = bits & 0xFFu; b != 0; b &= b - 1) {
        dst[n++] = src[static_cast<std::size_t>(std::countr_zero(b))];
    }
    return n;
#endif
}

}  // namespace smn::graph
