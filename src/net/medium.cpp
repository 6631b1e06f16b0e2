#include "net/medium.hpp"

#include <algorithm>
#include <cmath>

#include "obs/observability.hpp"

namespace contory::net {
namespace {

/// Cell coordinates are clamped to 32-bit so one u64 key can hold both;
/// at the 1 m minimum cell size that still spans ±2 billion meters.
std::int64_t ClampCoord(double v) noexcept {
  constexpr double kLim = 2'147'483'000.0;
  const double clamped = std::max(-kLim, std::min(kLim, v));
  return static_cast<std::int64_t>(std::floor(clamped));
}

std::uint64_t PackCell(std::int64_t cx, std::int64_t cy) noexcept {
  const auto ux = static_cast<std::uint64_t>(cx + 0x8000'0000LL);
  const auto uy = static_cast<std::uint64_t>(cy + 0x8000'0000LL);
  return (ux << 32) | (uy & 0xffff'ffffULL);
}

/// Home slot of `key` in a table of `mask + 1` slots. Fibonacci hashing
/// folds both packed cell coordinates into the low bits.
std::size_t HomeSlot(std::uint64_t key, std::size_t mask) noexcept {
  const std::uint64_t h = key * 0x9e37'79b9'7f4a'7c15ULL;
  return static_cast<std::size_t>(h ^ (h >> 32)) & mask;
}

}  // namespace

double Distance(Position a, Position b) noexcept {
  return std::hypot(a.x - b.x, a.y - b.y);
}

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

std::vector<NodeId> Medium::NodesWithin(
    NodeId center, double range_m,
    const std::function<bool(NodeId)>& filter) const {
  const NodeInfo* cinfo = Find(center);
  if (cinfo == nullptr) return {};
  const Position cpos = cinfo->pos;

  COBS({
    static obs::Counter& grid_queries =
        obs::Observability::metrics().GetCounter(
            "medium_neighbor_queries_total", {{"backend", "grid"}});
    static obs::Counter& linear_queries =
        obs::Observability::metrics().GetCounter(
            "medium_neighbor_queries_total", {{"backend", "linear"}});
    (use_grid_ ? grid_queries : linear_queries).Inc();
  });

  std::vector<std::pair<double, NodeId>> hits;
  const auto consider = [&](NodeId id, Position pos) {
    if (id == center) return;
    const double d = Distance(cpos, pos);
    if (d <= range_m && (!filter || filter(id))) hits.emplace_back(d, id);
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
          for (const CellEntry& e : cells_[cell]) {
            consider(e.id, e.pos);
          }
        }
      }
    }
  }

  // Deterministic order: nearest first, distance ties broken by ascending
  // NodeId (spelled out, not left to pair's lexicographic operator<, so
  // the contract survives refactors of the hit representation). This is
  // what makes the grid and the linear oracle byte-identical.
  std::sort(hits.begin(), hits.end(),
            [](const std::pair<double, NodeId>& a,
               const std::pair<double, NodeId>& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  std::vector<NodeId> out;
  out.reserve(hits.size());
  for (const auto& [d, id] : hits) out.push_back(id);
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
