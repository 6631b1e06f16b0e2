// CxtRepository (Sec. 4.3).
//
// "The CxtRepository module is responsible for storing gathered context
// information, locally or remotely. Only a few recent context data are
// stored locally, while complete logs can be stored in remote repositories
// of context infrastructures." This is the local side — small per-type
// rings sized for a 9 MB phone; remote storage goes through the
// ContextFactory's storeCxtItem path.
//
// A full ring overwrites its oldest slot by copy-assignment, which
// reuses the slot's string buffers: once every ring is full, storing
// allocates nothing (the router stores once per provider item).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "core/model/cxt_item.hpp"
#include "sim/simulation.hpp"

namespace contory::core {

struct CxtRepositoryConfig {
  std::size_t max_items_per_type = 8;
};

class CxtRepository {
 public:
  explicit CxtRepository(sim::Simulation& sim,
                         CxtRepositoryConfig config = {});

  /// Stores a copy of an item locally (evicting the oldest of its type
  /// when full).
  void Store(const CxtItem& item);

  /// Newest stored item of `type` that has not expired.
  [[nodiscard]] Result<CxtItem> Latest(const std::string& type) const;

  /// Up to `max_n` most recent unexpired items of `type`, newest first
  /// (0 = all).
  [[nodiscard]] std::vector<CxtItem> Recent(const std::string& type,
                                            std::size_t max_n = 0) const;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// Drops expired items; returns how many were removed.
  std::size_t PurgeExpired();

  /// The reduceMemory action: shrink every ring to `per_type` entries.
  void Shrink(std::size_t per_type);

  /// Current per-type capacity (observable effect of reduceMemory).
  [[nodiscard]] std::size_t capacity_per_type() const noexcept {
    return config_.max_items_per_type;
  }

 private:
  /// One type's items. Filled in arrival order up to the capacity; once
  /// full, `oldest` is the slot the next item overwrites.
  struct Ring {
    std::vector<CxtItem> items;
    std::size_t oldest = 0;

    /// The k-th newest item (0 = newest).
    [[nodiscard]] const CxtItem& Newest(std::size_t k) const {
      return items[(oldest + items.size() - 1 - k) % items.size()];
    }
    /// Puts the items back in arrival order, oldest first.
    void Unroll();
  };

  sim::Simulation& sim_;
  CxtRepositoryConfig config_;
  std::unordered_map<std::string, Ring> rings_;
  std::size_t count_ = 0;
};

}  // namespace contory::core
