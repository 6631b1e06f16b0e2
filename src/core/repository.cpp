#include "core/repository.hpp"

#include <algorithm>

namespace contory::core {

CxtRepository::CxtRepository(sim::Simulation& sim, CxtRepositoryConfig config)
    : sim_(sim), config_(config) {}

void CxtRepository::Ring::Unroll() {
  std::rotate(items.begin(),
              items.begin() + static_cast<std::ptrdiff_t>(oldest),
              items.end());
  oldest = 0;
}

void CxtRepository::Store(const CxtItem& item) {
  if (config_.max_items_per_type == 0) return;
  Ring& ring = rings_[item.type];
  if (ring.items.size() < config_.max_items_per_type) {
    ring.items.push_back(item);
    ++count_;
    return;
  }
  ring.items[ring.oldest] = item;
  ring.oldest = (ring.oldest + 1) % ring.items.size();
}

Result<CxtItem> CxtRepository::Latest(const std::string& type) const {
  const auto it = rings_.find(type);
  if (it == rings_.end()) {
    return NotFound("no stored items of type '" + type + "'");
  }
  const Ring& ring = it->second;
  for (std::size_t k = 0; k < ring.items.size(); ++k) {
    if (!ring.Newest(k).IsExpired(sim_.Now())) return ring.Newest(k);
  }
  return NotFound("all stored items of type '" + type + "' expired");
}

std::vector<CxtItem> CxtRepository::Recent(const std::string& type,
                                           std::size_t max_n) const {
  std::vector<CxtItem> out;
  const auto it = rings_.find(type);
  if (it == rings_.end()) return out;
  const Ring& ring = it->second;
  for (std::size_t k = 0; k < ring.items.size(); ++k) {
    const CxtItem& item = ring.Newest(k);
    if (item.IsExpired(sim_.Now())) continue;
    out.push_back(item);
    if (max_n != 0 && out.size() >= max_n) break;
  }
  return out;
}

std::size_t CxtRepository::PurgeExpired() {
  std::size_t removed = 0;
  for (auto& [type, ring] : rings_) {
    ring.Unroll();
    removed += std::erase_if(ring.items, [this](const CxtItem& item) {
      return item.IsExpired(sim_.Now());
    });
  }
  count_ -= removed;
  return removed;
}

void CxtRepository::Shrink(std::size_t per_type) {
  config_.max_items_per_type = per_type;
  for (auto& [type, ring] : rings_) {
    if (ring.items.size() <= per_type) continue;
    ring.Unroll();
    const std::size_t drop = ring.items.size() - per_type;
    ring.items.erase(ring.items.begin(),
                     ring.items.begin() + static_cast<std::ptrdiff_t>(drop));
    count_ -= drop;
  }
}

}  // namespace contory::core
