#include "net/medium.hpp"

#include <algorithm>
#include <cmath>

#include "obs/observability.hpp"

namespace contory::net {
namespace {

/// Home slot of `key` in a table of `mask + 1` slots. Fibonacci hashing
/// folds both packed cell coordinates into the low bits.
std::size_t HomeSlot(std::uint64_t key, std::size_t mask) noexcept {
  const std::uint64_t h = key * 0x9e37'79b9'7f4a'7c15ULL;
  return static_cast<std::size_t>(h ^ (h >> 32)) & mask;
}

}  // namespace

Medium::Medium(MediumOptions options)
    : nodes_(1), names_(1),  // NodeId 0 is kInvalidNode
      use_grid_(options.use_grid),
      fixed_cell_size_(options.cell_size_m > 0.0) {
  if (fixed_cell_size_) cell_size_ = options.cell_size_m;
}

std::uint64_t Medium::CellKeyFor(Position pos) const noexcept {
  return PackCell(ClampCoord(pos.x / cell_size_),
                  ClampCoord(pos.y / cell_size_));
}

std::size_t Medium::ProbeCell(std::uint64_t key) const noexcept {
  const std::size_t mask = cell_index_.size() - 1;
  std::size_t i = HomeSlot(key, mask);
  while (cell_index_[i].cell != kNoCell && cell_index_[i].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

std::uint32_t Medium::FindCell(std::uint64_t key) const noexcept {
  return cell_index_.empty() ? kNoCell : cell_index_[ProbeCell(key)].cell;
}

std::uint32_t Medium::FindOrAddCell(std::uint64_t key) {
  if (2 * (cells_.size() + 1) > cell_index_.size()) {
    std::vector<KeySlot> old(
        std::max<std::size_t>(64, 2 * cell_index_.size()));
    old.swap(cell_index_);
    for (const KeySlot& slot : old) {
      if (slot.cell != kNoCell) cell_index_[ProbeCell(slot.key)] = slot;
    }
  }
  KeySlot& slot = cell_index_[ProbeCell(key)];
  if (slot.cell == kNoCell) {
    slot = KeySlot{key, static_cast<std::uint32_t>(cells_.size())};
    cells_.emplace_back();
  }
  return slot.cell;
}

void Medium::InsertIntoCell(NodeId id, NodeInfo& info) {
  info.cell_key = CellKeyFor(info.pos);
  info.cell = FindOrAddCell(info.cell_key);
  std::vector<CellEntry>& entries = cells_[info.cell];
  if (entries.empty()) ++occupied_cells_;
  info.slot = static_cast<std::uint32_t>(entries.size());
  entries.push_back(CellEntry{id, info.pos});
}

void Medium::RemoveFromCell(const NodeInfo& info) {
  std::vector<CellEntry>& entries = cells_[info.cell];
  const std::uint32_t slot = info.slot;
  if (slot + 1 != entries.size()) {
    // Swap-remove: the tail entry changes slots; fix its back-pointer.
    entries[slot] = entries.back();
    nodes_[entries[slot].id].slot = slot;
  }
  entries.pop_back();
  if (entries.empty()) --occupied_cells_;  // the cell stays for reuse
}

void Medium::MaybeResize() {
  if (fixed_cell_size_ || min_range_ <= 0.0) return;
  // Geometric mean balances a short-range radio (BT, 10 m) against a
  // long-range one (WiFi, 100 m): small-range queries stay cheap per
  // cell, large-range queries touch a bounded number of cells.
  const double derived =
      std::clamp(std::sqrt(min_range_ * max_range_), 1.0, 2000.0);
  if (derived == cell_size_) return;
  cell_size_ = derived;
  RebuildGrid();
}

void Medium::RebuildGrid() {
  cells_.clear();
  cell_index_.clear();
  occupied_cells_ = 0;
  for (NodeId id = 1; id < nodes_.size(); ++id) {
    if (nodes_[id].alive) InsertIntoCell(id, nodes_[id]);
  }
  PublishGauges();
}

void Medium::PublishGauges() const {
  COBS({
    static obs::Gauge& cells =
        obs::Observability::metrics().GetGauge("medium_grid_cells");
    static obs::Gauge& occupancy =
        obs::Observability::metrics().GetGauge("medium_grid_occupancy");
    static obs::Gauge& cell_size =
        obs::Observability::metrics().GetGauge("medium_grid_cell_size_m");
    cells.Set(static_cast<double>(occupied_cells_));
    occupancy.Set(mean_cell_occupancy());
    cell_size.Set(cell_size_);
  });
}

double Medium::mean_cell_occupancy() const noexcept {
  if (occupied_cells_ == 0) return 0.0;
  return static_cast<double>(live_nodes_) /
         static_cast<double>(occupied_cells_);
}

void Medium::NoteRadioRange(double range_m) {
  if (range_m <= 0.0) return;
  if (min_range_ <= 0.0) {
    min_range_ = max_range_ = range_m;
  } else {
    min_range_ = std::min(min_range_, range_m);
    max_range_ = std::max(max_range_, range_m);
  }
  MaybeResize();
}

NodeId Medium::Register(std::string name, Position pos) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeInfo{pos, 0, 0, 0, /*alive=*/true});
  names_.push_back(std::move(name));
  ++live_nodes_;
  ++topology_epoch_;
  InsertIntoCell(id, nodes_.back());
  PublishGauges();
  return id;
}

void Medium::Unregister(NodeId id) {
  if (Find(id) == nullptr) return;
  RemoveFromCell(nodes_[id]);
  nodes_[id].alive = false;
  names_[id] = std::string{};
  --live_nodes_;
  ++topology_epoch_;
  PublishGauges();
}

bool Medium::Exists(NodeId id) const noexcept { return Find(id) != nullptr; }

Result<Position> Medium::GetPosition(NodeId id) const {
  const NodeInfo* info = Find(id);
  if (info == nullptr) {
    return NotFound("node " + std::to_string(id) + " not registered");
  }
  return info->pos;
}

Result<std::string> Medium::GetName(NodeId id) const {
  if (Find(id) == nullptr) {
    return NotFound("node " + std::to_string(id) + " not registered");
  }
  return names_[id];
}

Status Medium::SetPosition(NodeId id, Position pos) {
  if (Find(id) == nullptr) {
    return NotFound("node " + std::to_string(id) + " not registered");
  }
  ++topology_epoch_;
  NodeInfo& info = nodes_[id];
  info.pos = pos;
  if (CellKeyFor(pos) == info.cell_key) {
    cells_[info.cell][info.slot].pos = pos;
    return Status::Ok();
  }
  RemoveFromCell(info);
  InsertIntoCell(id, info);
  return Status::Ok();
}

Result<double> Medium::DistanceBetween(NodeId a, NodeId b) const {
  const NodeInfo* ia = Find(a);
  if (ia == nullptr) {
    return NotFound("node " + std::to_string(a) + " not registered");
  }
  const NodeInfo* ib = Find(b);
  if (ib == nullptr) {
    return NotFound("node " + std::to_string(b) + " not registered");
  }
  return Distance(ia->pos, ib->pos);
}

bool Medium::InRange(NodeId a, NodeId b, double range_m) const {
  const NodeInfo* ia = Find(a);
  if (ia == nullptr) return false;
  const NodeInfo* ib = Find(b);
  if (ib == nullptr) return false;
  return Distance(ia->pos, ib->pos) <= range_m;
}

void Medium::CountNeighborQuery() const {
  COBS({
    static obs::Counter& grid_queries =
        obs::Observability::metrics().GetCounter(
            "medium_neighbor_queries_total", {{"backend", "grid"}});
    static obs::Counter& linear_queries =
        obs::Observability::metrics().GetCounter(
            "medium_neighbor_queries_total", {{"backend", "linear"}});
    (use_grid_ ? grid_queries : linear_queries).Inc();
  });
}

std::vector<NodeId> Medium::NodesWithin(
    NodeId center, double range_m,
    const std::function<bool(NodeId)>& filter) const {
  std::vector<NodeId> out;
  NodesWithinInto(center, range_m, out,
                  [&filter](NodeId id) { return !filter || filter(id); });
  return out;
}

std::vector<NodeId> Medium::AllNodes() const {
  std::vector<NodeId> ids;
  ids.reserve(live_nodes_);
  for (NodeId id = 1; id < nodes_.size(); ++id) {
    if (nodes_[id].alive) ids.push_back(id);
  }
  return ids;
}

}  // namespace contory::net
