// Shared radio medium: node positions and range queries.
//
// Every radio-equipped entity (phone, BT-GPS receiver, communicator)
// registers as a node with a 2-D position; radio models ask the medium
// which peers are in range. Mobility (sailing boats, city commuters) is
// expressed by updating positions over simulated time.
//
// Storage is dense. Node ids are handed out 1, 2, 3, ... and never
// reused, so the node table is a vector indexed by NodeId (slot 0 is
// unused; Unregister clears an `alive` flag). Range queries run against
// a uniform spatial hash grid so that a city of 100k moving nodes stays
// O(neighbors) per query instead of O(N). Cells live in a dense vector,
// and every node keeps a handle to its cell (key, cell index, slot), so
// a SetPosition that stays in its cell writes two vector slots and
// hashes nothing. The key -> cell index table is consulted only when a
// node migrates cells and by range queries; a cell that empties is kept
// for reuse rather than freed.
//
// The grid is an index only: NodesWithin's result contract — nearest
// first, exact distance ties broken by ascending NodeId — is identical
// to the brute-force scan, which remains available behind `set_use_grid
// (false)` as the property-test oracle. Cell size is derived from the
// radio ranges the protocol models register via NoteRadioRange.
//
// The range query is a template, NodesWithinInto, so the per-hop callers
// (WiFi neighbor lists under every SM routing BFS, BT inquiry) inline
// their filter and append into a buffer they reuse: with warm buffers a
// query hashes nothing and allocates nothing. The std::function
// NodesWithin is a thin wrapper over the same scan.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace contory::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0;

struct Position {
  double x = 0.0;  // meters
  double y = 0.0;  // meters
};

[[nodiscard]] inline double Distance(Position a, Position b) noexcept {
  return std::hypot(a.x - b.x, a.y - b.y);
}

struct MediumOptions {
  /// Answer range queries from the spatial grid. OFF selects the linear
  /// scan over every registered node — the semantics oracle for tests.
  bool use_grid = true;
  /// Fixed grid cell edge in meters; 0 = derive from NoteRadioRange
  /// hints (geometric mean of the smallest and largest noted range,
  /// clamped to [1, 2000]; 100 m before any radio registers).
  double cell_size_m = 0.0;
};

class Medium {
 public:
  explicit Medium(MediumOptions options = {});

  /// Registers a node; ids are dense and deterministic (1, 2, 3, ...).
  NodeId Register(std::string name, Position pos);

  /// Removes a node (e.g. a switched-off device). Range queries no longer
  /// see it; its id is never reused.
  void Unregister(NodeId id);

  [[nodiscard]] bool Exists(NodeId id) const noexcept;
  [[nodiscard]] Result<Position> GetPosition(NodeId id) const;
  [[nodiscard]] Result<std::string> GetName(NodeId id) const;
  /// Moves a node. The grid migrates the node between cells
  /// incrementally (O(1)); same-cell moves only rewrite the slot, with
  /// no hash lookup.
  Status SetPosition(NodeId id, Position pos);

  /// Distance between two registered nodes (error if either is gone).
  [[nodiscard]] Result<double> DistanceBetween(NodeId a, NodeId b) const;

  /// True when both exist and are within `range_m` of each other.
  /// Single-pass: two node-table reads, no Result plumbing — this is the
  /// per-packet hot path for both radios.
  [[nodiscard]] bool InRange(NodeId a, NodeId b, double range_m) const;

  /// Appends to `out` every other node within `range_m` of `center` that
  /// passes `filter` (callable as bool(NodeId)), nearest first; exact
  /// distance ties break by ascending NodeId (deterministic order even
  /// for equidistant peers). The filter only ever sees in-range nodes,
  /// but the order in which it is consulted is unspecified (the result
  /// order is not). Appends nothing when `center` is not registered.
  /// Counts one medium_neighbor_queries_total per call. Allocation-free
  /// once `out` and the internal hit buffer are warm; a filter may itself
  /// query this medium (the nested call just allocates its own buffer).
  template <class Filter>
  void NodesWithinInto(NodeId center, double range_m,
                       std::vector<NodeId>& out, Filter&& filter) const;

  /// NodesWithinInto into a fresh vector, with an optional predicate.
  [[nodiscard]] std::vector<NodeId> NodesWithin(
      NodeId center, double range_m,
      const std::function<bool(NodeId)>& filter = {}) const;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return live_nodes_;
  }

  /// Bumped by Register, Unregister and every SetPosition, the writes a
  /// range query's result depends on, so a result kept with the epoch it
  /// was computed at stays exact while the epoch is unchanged
  /// (WifiController keeps its neighbor list so). NoteRadioRange and
  /// set_use_grid change query cost only and leave it.
  [[nodiscard]] std::uint64_t topology_epoch() const noexcept {
    return topology_epoch_;
  }

  /// All currently registered node ids, ascending.
  [[nodiscard]] std::vector<NodeId> AllNodes() const;

  // --- Spatial index ----------------------------------------------------

  /// Radio models call this with their configured range at construction;
  /// in auto mode the grid re-derives its cell size from the noted
  /// min/max and rebuilds when it changes. Results never change, only
  /// query cost.
  void NoteRadioRange(double range_m);

  /// Switches between the grid and the linear oracle at runtime. The
  /// grid index is maintained either way, so flipping is O(1).
  void set_use_grid(bool use_grid) noexcept { use_grid_ = use_grid; }
  [[nodiscard]] bool use_grid() const noexcept { return use_grid_; }
  [[nodiscard]] double cell_size_m() const noexcept { return cell_size_; }
  /// Cells holding at least one node (retained empty cells excluded).
  [[nodiscard]] std::size_t occupied_cells() const noexcept {
    return occupied_cells_;
  }
  /// Mean nodes per occupied cell (0 when empty) — the occupancy gauge.
  [[nodiscard]] double mean_cell_occupancy() const noexcept;

 private:
  /// Node table slot, indexed by NodeId. Hot fields only; the name lives
  /// in the parallel `names_` vector.
  struct NodeInfo {
    Position pos;
    std::uint64_t cell_key = 0;  // grid key of the current cell
    std::uint32_t cell = 0;      // index into cells_
    std::uint32_t slot = 0;      // index into that cell's entry vector
    bool alive = false;          // false for slot 0 and unregistered ids
  };
  /// One node's entry in its cell.
  struct CellEntry {
    NodeId id;
    Position pos;  // mirrored so queries never read nodes_ per candidate
  };

  /// One in-range candidate of a range query.
  struct Hit {
    double distance;
    NodeId id;
  };

  static constexpr std::uint32_t kNoCell = 0xffff'ffff;
  /// One slot of the key -> cell index table.
  struct KeySlot {
    std::uint64_t key = 0;
    std::uint32_t cell = kNoCell;  // kNoCell = free slot
  };

  /// The live node `id`, or nullptr.
  [[nodiscard]] const NodeInfo* Find(NodeId id) const noexcept {
    return id < nodes_.size() && nodes_[id].alive ? &nodes_[id] : nullptr;
  }
  /// Cell coordinates are clamped to 32-bit so one u64 key can hold both;
  /// at the 1 m minimum cell size that still spans ±2 billion meters.
  static std::int64_t ClampCoord(double v) noexcept {
    constexpr double kLim = 2'147'483'000.0;
    const double clamped = std::max(-kLim, std::min(kLim, v));
    return static_cast<std::int64_t>(std::floor(clamped));
  }
  static std::uint64_t PackCell(std::int64_t cx, std::int64_t cy) noexcept {
    const auto ux = static_cast<std::uint64_t>(cx + 0x8000'0000LL);
    const auto uy = static_cast<std::uint64_t>(cy + 0x8000'0000LL);
    return (ux << 32) | (uy & 0xffff'ffffULL);
  }
  [[nodiscard]] std::uint64_t CellKeyFor(Position pos) const noexcept;
  /// cell_index_ slot holding `key`, or the free slot it would take.
  [[nodiscard]] std::size_t ProbeCell(std::uint64_t key) const noexcept;
  /// The cells_ index for `key`, or kNoCell.
  [[nodiscard]] std::uint32_t FindCell(std::uint64_t key) const noexcept;
  /// The cells_ index for `key`, appending an empty cell when absent.
  std::uint32_t FindOrAddCell(std::uint64_t key);
  void InsertIntoCell(NodeId id, NodeInfo& info);
  void RemoveFromCell(const NodeInfo& info);
  /// Re-derives the cell size from the noted ranges; rebuilds the grid
  /// when the derived size changes.
  void MaybeResize();
  void RebuildGrid();
  void PublishGauges() const;
  /// Bumps medium_neighbor_queries_total{backend} (COBS-gated).
  void CountNeighborQuery() const;

  std::vector<NodeInfo> nodes_;  // [0] unused; ids are never reused
  std::vector<std::string> names_;  // parallel to nodes_
  std::vector<std::vector<CellEntry>> cells_;  // emptied cells are kept
  /// Grid key -> cells_ index, open addressing with linear probing.
  /// Cells are never erased (RebuildGrid clears wholesale), so the table
  /// is insert-only and needs no tombstones. Power-of-two size, at most
  /// half full; read only on migration and by range queries.
  std::vector<KeySlot> cell_index_;
  std::size_t live_nodes_ = 0;
  std::size_t occupied_cells_ = 0;  // non-empty entries of cells_
  std::uint64_t topology_epoch_ = 0;
  bool use_grid_ = true;
  bool fixed_cell_size_ = false;
  double cell_size_ = 100.0;
  double min_range_ = 0.0;  // 0 = no range noted yet
  double max_range_ = 0.0;
  /// Range-query hit buffer, borrowed (moved out and back) by each
  /// NodesWithinInto so a nested query cannot clobber an outer one.
  mutable std::vector<Hit> hits_;
};

template <class Filter>
void Medium::NodesWithinInto(NodeId center, double range_m,
                             std::vector<NodeId>& out,
                             Filter&& filter) const {
  const NodeInfo* cinfo = Find(center);
  if (cinfo == nullptr) return;
  const Position cpos = cinfo->pos;
  CountNeighborQuery();

  std::vector<Hit> hits = std::move(hits_);
  hits.clear();
  const auto consider = [&](NodeId id, Position pos) {
    if (id == center) return;
    // hypot >= max(|dx|, |dy|), so a node outside the bounding square is
    // out of range; skipping hypot for it changes no result.
    if (std::abs(cpos.x - pos.x) > range_m ||
        std::abs(cpos.y - pos.y) > range_m) {
      return;
    }
    const double d = Distance(cpos, pos);
    if (d <= range_m && filter(id)) hits.push_back(Hit{d, id});
  };

  if (!use_grid_) {
    for (NodeId id = 1; id < nodes_.size(); ++id) {
      if (nodes_[id].alive) consider(id, nodes_[id].pos);
    }
  } else {
    const std::int64_t cx0 = ClampCoord((cpos.x - range_m) / cell_size_);
    const std::int64_t cx1 = ClampCoord((cpos.x + range_m) / cell_size_);
    const std::int64_t cy0 = ClampCoord((cpos.y - range_m) / cell_size_);
    const std::int64_t cy1 = ClampCoord((cpos.y + range_m) / cell_size_);
    const double span_x = static_cast<double>(cx1 - cx0 + 1);
    const double span_y = static_cast<double>(cy1 - cy0 + 1);
    if (span_x * span_y > static_cast<double>(occupied_cells_)) {
      // The range covers more cells than are occupied: walking the dense
      // cell vector is cheaper — e.g. an "everything" query.
      for (const std::vector<CellEntry>& entries : cells_) {
        for (const CellEntry& e : entries) consider(e.id, e.pos);
      }
    } else {
      for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
        for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
          const std::uint32_t cell = FindCell(PackCell(cx, cy));
          if (cell == kNoCell) continue;
          for (const CellEntry& e : cells_[cell]) consider(e.id, e.pos);
        }
      }
    }
  }

  // Deterministic order: nearest first, distance ties broken by ascending
  // NodeId. This is what makes the grid and the linear oracle
  // byte-identical.
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  });
  for (const Hit& h : hits) out.push_back(h.id);
  hits_ = std::move(hits);
}

}  // namespace contory::net
