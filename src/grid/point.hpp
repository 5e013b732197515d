// point.hpp — integer lattice points and the distance metrics of the paper.
//
// The paper (footnote 2) measures all distances with the *Manhattan* (L1)
// metric; that is the default throughout libsmn. Chebyshev (L∞) and squared
// Euclidean are provided for ablation studies and for the spatial index.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <cstdlib>
#include <ostream>

namespace smn::grid {

/// Signed grid coordinate. 32 bits comfortably covers grids up to 2^31 per
/// side; node counts are handled as 64-bit.
using Coord = std::int32_t;

/// A point on the 2-D integer lattice.
struct Point {
    Coord x{0};
    Coord y{0};

    friend constexpr bool operator==(Point, Point) noexcept = default;
    friend constexpr auto operator<=>(Point, Point) noexcept = default;
};

inline std::ostream& operator<<(std::ostream& os, Point p) {
    return os << '(' << p.x << ',' << p.y << ')';
}

/// Distance metric selector.
enum class Metric : std::uint8_t {
    kManhattan,  ///< L1, the paper's metric (footnote 2)
    kChebyshev,  ///< L∞
    kEuclidean,  ///< L2 (comparisons done on squared values)
};

/// L1 distance ||u − v||₁, the paper's ||·||.
[[nodiscard]] constexpr std::int64_t manhattan(Point a, Point b) noexcept {
    const std::int64_t dx = std::int64_t{a.x} - b.x;
    const std::int64_t dy = std::int64_t{a.y} - b.y;
    return (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy);
}

/// L∞ distance.
[[nodiscard]] constexpr std::int64_t chebyshev(Point a, Point b) noexcept {
    const std::int64_t dx = std::int64_t{a.x} - b.x;
    const std::int64_t dy = std::int64_t{a.y} - b.y;
    const std::int64_t ax = dx < 0 ? -dx : dx;
    const std::int64_t ay = dy < 0 ? -dy : dy;
    return ax > ay ? ax : ay;
}

/// Squared L2 distance (avoids sqrt; exact in integers).
[[nodiscard]] constexpr std::int64_t euclidean_sq(Point a, Point b) noexcept {
    const std::int64_t dx = std::int64_t{a.x} - b.x;
    const std::int64_t dy = std::int64_t{a.y} - b.y;
    return dx * dx + dy * dy;
}

/// The comparison key of the distance between `a` and `b` under `M`: the
/// distance itself for L1 and L∞, its square for L2 (exact in integers).
template <Metric M>
[[nodiscard]] constexpr std::int64_t distance_key(Point a, Point b) noexcept {
    if constexpr (M == Metric::kManhattan) {
        return manhattan(a, b);
    } else if constexpr (M == Metric::kChebyshev) {
        return chebyshev(a, b);
    } else {
        return euclidean_sq(a, b);
    }
}

/// True iff `a` and `b` are within distance `r` under `metric`.
/// For Euclidean the comparison is r² vs squared distance, exact.
[[nodiscard]] constexpr bool within(Point a, Point b, std::int64_t r, Metric metric) noexcept {
    switch (metric) {
        case Metric::kManhattan: return manhattan(a, b) <= r;
        case Metric::kChebyshev: return chebyshev(a, b) <= r;
        case Metric::kEuclidean: return euclidean_sq(a, b) <= r * r;
    }
    return false;  // unreachable
}

/// ⌊√v⌋ for v >= 0, exact: the double estimate is corrected in integers.
[[nodiscard]] inline std::int64_t isqrt(std::int64_t v) noexcept {
    auto s = static_cast<std::int64_t>(std::sqrt(static_cast<double>(v)));
    while (s * s > v) --s;
    while ((s + 1) * (s + 1) <= v) ++s;
    return s;
}

/// Distance under the selected metric (Euclidean returns floor of the true
/// distance; use `within` for exact radius tests).
[[nodiscard]] inline std::int64_t distance(Point a, Point b, Metric metric) noexcept {
    switch (metric) {
        case Metric::kManhattan: return manhattan(a, b);
        case Metric::kChebyshev: return chebyshev(a, b);
        case Metric::kEuclidean:
            return static_cast<std::int64_t>(std::sqrt(static_cast<double>(euclidean_sq(a, b))));
    }
    return 0;  // unreachable
}

[[nodiscard]] constexpr const char* metric_name(Metric metric) noexcept {
    switch (metric) {
        case Metric::kManhattan: return "manhattan";
        case Metric::kChebyshev: return "chebyshev";
        case Metric::kEuclidean: return "euclidean";
    }
    return "?";
}

}  // namespace smn::grid
