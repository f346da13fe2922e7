// Fundamental geometric vocabulary for the routing grid.
//
// The routing model follows the paper's benchmarks: a multi-layer grid of
// unit-pitch tracks.  Metal layer 1 carries pins only; metal 2 prefers
// horizontal wires, metal 3 prefers vertical wires (and so on, alternating,
// if more layers are configured).  Via layer v sits between metal v and
// metal v+1.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace sadp::grid {

/// A grid point (track intersection).  Coordinates are track indices.
struct Point {
  std::int32_t x = 0;
  std::int32_t y = 0;

  friend constexpr auto operator<=>(const Point&, const Point&) = default;
};

[[nodiscard]] constexpr Point operator+(Point a, Point b) noexcept {
  return {a.x + b.x, a.y + b.y};
}
[[nodiscard]] constexpr Point operator-(Point a, Point b) noexcept {
  return {a.x - b.x, a.y - b.y};
}

/// Chebyshev (L-infinity) distance between two grid points.
[[nodiscard]] constexpr std::int32_t chebyshev(Point a, Point b) noexcept {
  const std::int32_t dx = std::abs(a.x - b.x);
  const std::int32_t dy = std::abs(a.y - b.y);
  return dx > dy ? dx : dy;
}

/// Manhattan (L1) distance.
[[nodiscard]] constexpr std::int32_t manhattan(Point a, Point b) noexcept {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

/// Squared Euclidean distance in grid units.  The via-layer TPL conflict
/// predicate is `sq_dist < 8` (see via/decomp_graph.hpp).
[[nodiscard]] constexpr std::int64_t sq_dist(Point a, Point b) noexcept {
  const std::int64_t dx = a.x - b.x;
  const std::int64_t dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// The largest grid side the site key below packs one to one (coordinates
/// 0 to 2^24 - 1).  Solution headers and scaled benchmark specs are held to
/// it.
inline constexpr int kMaxSide = 1 << 24;

/// The one (layer, x, y) packing: bits 48 and up hold the layer, bits 24-47
/// x and bits 0-23 y.  In-grid points (0 <= x, y < 2^24) pack one to one and
/// never collide with an off-grid probe; the XOR keeps off-grid keys (window
/// origins at -1, -2) distinct across layers.
[[nodiscard]] constexpr std::int64_t site_key(int layer, Point p) noexcept {
  return (static_cast<std::int64_t>(layer) << 48) ^
         (static_cast<std::int64_t>(static_cast<std::uint32_t>(p.x)) << 24) ^
         static_cast<std::int64_t>(static_cast<std::uint32_t>(p.y));
}
[[nodiscard]] constexpr int site_layer(std::int64_t key) noexcept {
  return static_cast<int>(key >> 48);
}
[[nodiscard]] constexpr Point site_point(std::int64_t key) noexcept {
  return {static_cast<std::int32_t>((key >> 24) & 0xFFFFFF),
          static_cast<std::int32_t>(key & 0xFFFFFF)};
}

/// Planar direction of a unit step.
enum class Dir : std::uint8_t { kEast = 0, kWest = 1, kNorth = 2, kSouth = 3, kNone = 4 };

inline constexpr std::array<Dir, 4> kPlanarDirs = {Dir::kEast, Dir::kWest,
                                                   Dir::kNorth, Dir::kSouth};

[[nodiscard]] constexpr bool is_horizontal(Dir d) noexcept {
  return d == Dir::kEast || d == Dir::kWest;
}
[[nodiscard]] constexpr bool is_vertical(Dir d) noexcept {
  return d == Dir::kNorth || d == Dir::kSouth;
}
[[nodiscard]] constexpr bool is_perpendicular(Dir a, Dir b) noexcept {
  return (is_horizontal(a) && is_vertical(b)) || (is_vertical(a) && is_horizontal(b));
}
[[nodiscard]] constexpr Dir opposite(Dir d) noexcept {
  switch (d) {
    case Dir::kEast: return Dir::kWest;
    case Dir::kWest: return Dir::kEast;
    case Dir::kNorth: return Dir::kSouth;
    case Dir::kSouth: return Dir::kNorth;
    case Dir::kNone: return Dir::kNone;
  }
  return Dir::kNone;
}

/// Unit step for a direction.
[[nodiscard]] constexpr Point step(Dir d) noexcept {
  switch (d) {
    case Dir::kEast: return {1, 0};
    case Dir::kWest: return {-1, 0};
    case Dir::kNorth: return {0, 1};
    case Dir::kSouth: return {0, -1};
    case Dir::kNone: return {0, 0};
  }
  return {0, 0};
}

[[nodiscard]] constexpr const char* dir_name(Dir d) noexcept {
  switch (d) {
    case Dir::kEast: return "E";
    case Dir::kWest: return "W";
    case Dir::kNorth: return "N";
    case Dir::kSouth: return "S";
    case Dir::kNone: return "-";
  }
  return "?";
}

/// An L-shape turn kind: the two arms leaving the corner point.
/// kNE means one arm to the north and one to the east, etc.
enum class TurnKind : std::uint8_t { kNE = 0, kNW = 1, kSE = 2, kSW = 3 };

inline constexpr std::array<TurnKind, 4> kTurnKinds = {TurnKind::kNE, TurnKind::kNW,
                                                       TurnKind::kSE, TurnKind::kSW};

/// Classify an L-turn from its two (perpendicular) arm directions, given as
/// directions *leaving* the corner point.  Order does not matter.
[[nodiscard]] constexpr TurnKind turn_kind(Dir a, Dir b) noexcept {
  const Dir h = is_horizontal(a) ? a : b;
  const Dir v = is_vertical(a) ? a : b;
  if (v == Dir::kNorth) return h == Dir::kEast ? TurnKind::kNE : TurnKind::kNW;
  return h == Dir::kEast ? TurnKind::kSE : TurnKind::kSW;
}

[[nodiscard]] constexpr const char* turn_name(TurnKind k) noexcept {
  switch (k) {
    case TurnKind::kNE: return "NE";
    case TurnKind::kNW: return "NW";
    case TurnKind::kSE: return "SE";
    case TurnKind::kSW: return "SW";
  }
  return "??";
}

/// Bitmask of arm directions present at a grid point (bit = Dir value).
using ArmMask = std::uint8_t;

[[nodiscard]] constexpr ArmMask arm_bit(Dir d) noexcept {
  return static_cast<ArmMask>(1u << static_cast<unsigned>(d));
}
[[nodiscard]] constexpr bool has_arm(ArmMask mask, Dir d) noexcept {
  return (mask & arm_bit(d)) != 0;
}

/// String "x,y" for diagnostics.
[[nodiscard]] inline std::string to_string(Point p) {
  return std::to_string(p.x) + "," + std::to_string(p.y);
}

}  // namespace sadp::grid
