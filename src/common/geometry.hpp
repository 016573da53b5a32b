// Mesh geometry primitives shared by every DL2Fence module.
//
// The paper studies 2-D Mesh-XY NoCs. Node IDs are assigned row-major:
// id = y * cols + x, with (0,0) in the bottom-left corner, x growing East
// and y growing North. This orientation makes the paper's Table-Like-Method
// id arithmetic literal: the East neighbor is id+1, the North neighbor is
// id+R (Fig. 3: "Max(E) + 1", "Max(N) + R", "Min(W) - 1", "Min(S) - R").
// Directions name the side of the router a link attaches to; an *input
// port* in direction D receives flits from the neighbor that lies in
// direction D.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string_view>

namespace dl2f {

/// Index of a node (router + local tile) in a mesh, row-major.
using NodeId = std::int32_t;

/// Cardinal directions of a 2-D mesh router, plus the local (tile) port.
enum class Direction : std::uint8_t { East = 0, North = 1, West = 2, South = 3, Local = 4 };

inline constexpr std::size_t kNumMeshDirections = 4;  ///< E, N, W, S (no Local).
inline constexpr std::size_t kNumPorts = 5;           ///< E, N, W, S, Local.

/// The four router-to-router directions, in the paper's E/N/W/S order.
inline constexpr std::array<Direction, kNumMeshDirections> kMeshDirections{
    Direction::East, Direction::North, Direction::West, Direction::South};

/// Opposite side: flits leaving through East arrive at the neighbor's West port.
[[nodiscard]] constexpr Direction opposite(Direction d) noexcept {
  switch (d) {
    case Direction::East: return Direction::West;
    case Direction::North: return Direction::South;
    case Direction::West: return Direction::East;
    case Direction::South: return Direction::North;
    case Direction::Local: return Direction::Local;
  }
  return Direction::Local;  // unreachable; keeps -Wreturn-type quiet
}

[[nodiscard]] constexpr std::string_view to_string(Direction d) noexcept {
  switch (d) {
    case Direction::East: return "East";
    case Direction::North: return "North";
    case Direction::West: return "West";
    case Direction::South: return "South";
    case Direction::Local: return "Local";
  }
  return "?";
}

/// (x, y) position in the mesh; x = column (East+), y = row (North+).
struct Coord {
  std::int32_t x = 0;
  std::int32_t y = 0;

  friend constexpr bool operator==(const Coord&, const Coord&) = default;
};

/// Shape and coordinate algebra of an R(rows) x C(cols) 2-D mesh.
///
/// Invariant: rows >= 1 and cols >= 1.
class MeshShape {
 public:
  constexpr MeshShape(std::int32_t rows, std::int32_t cols) : rows_(rows), cols_(cols) {
    assert(rows >= 1 && cols >= 1);
  }
  /// Square R x R mesh (the paper's configurations are all square).
  static constexpr MeshShape square(std::int32_t r) { return MeshShape(r, r); }

  [[nodiscard]] constexpr std::int32_t rows() const noexcept { return rows_; }
  [[nodiscard]] constexpr std::int32_t cols() const noexcept { return cols_; }
  [[nodiscard]] constexpr std::int32_t node_count() const noexcept { return rows_ * cols_; }

  [[nodiscard]] constexpr bool contains(Coord c) const noexcept {
    return c.x >= 0 && c.x < cols_ && c.y >= 0 && c.y < rows_;
  }
  [[nodiscard]] constexpr bool valid(NodeId id) const noexcept {
    return id >= 0 && id < node_count();
  }

  [[nodiscard]] constexpr NodeId id_of(Coord c) const noexcept {
    assert(contains(c));
    return c.y * cols_ + c.x;
  }
  [[nodiscard]] constexpr Coord coord_of(NodeId id) const noexcept {
    assert(valid(id));
    return Coord{id % cols_, id / cols_};
  }

  /// Neighbor of `c` in direction `d`, or nullopt at a mesh edge.
  [[nodiscard]] constexpr std::optional<Coord> neighbor(Coord c, Direction d) const noexcept {
    Coord n = c;
    switch (d) {
      case Direction::East: ++n.x; break;
      case Direction::North: ++n.y; break;
      case Direction::West: --n.x; break;
      case Direction::South: --n.y; break;
      case Direction::Local: return std::nullopt;
    }
    if (!contains(n)) return std::nullopt;
    return n;
  }
  [[nodiscard]] constexpr std::optional<NodeId> neighbor(NodeId id, Direction d) const noexcept {
    auto n = neighbor(coord_of(id), d);
    if (!n) return std::nullopt;
    return id_of(*n);
  }

  /// True if the router at `c` has an input port facing direction `d`
  /// (i.e. a neighbor exists on that side).
  [[nodiscard]] constexpr bool has_port(Coord c, Direction d) const noexcept {
    return d == Direction::Local || neighbor(c, d).has_value();
  }

  /// Manhattan hop distance between two nodes.
  [[nodiscard]] constexpr std::int32_t hop_distance(NodeId a, NodeId b) const noexcept {
    const Coord ca = coord_of(a), cb = coord_of(b);
    const auto dx = ca.x > cb.x ? ca.x - cb.x : cb.x - ca.x;
    const auto dy = ca.y > cb.y ? ca.y - cb.y : cb.y - ca.y;
    return dx + dy;
  }

  friend constexpr bool operator==(const MeshShape&, const MeshShape&) = default;

 private:
  std::int32_t rows_;
  std::int32_t cols_;
};

/// Next output direction under dimension-order XY routing (X first, then Y).
/// Returns Direction::Local when `at == dst`.
[[nodiscard]] constexpr Direction xy_route_step(Coord at, Coord dst) noexcept {
  if (at.x < dst.x) return Direction::East;
  if (at.x > dst.x) return Direction::West;
  if (at.y < dst.y) return Direction::North;
  if (at.y > dst.y) return Direction::South;
  return Direction::Local;
}
[[nodiscard]] constexpr Direction xy_route_step(const MeshShape& mesh, NodeId at,
                                                NodeId dst) noexcept {
  return xy_route_step(mesh.coord_of(at), mesh.coord_of(dst));
}

}  // namespace dl2f
