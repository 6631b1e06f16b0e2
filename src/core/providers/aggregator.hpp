// CxtAggregator (Sec. 4.3).
//
// "A CxtAggregator can be used to combine context items collected from
// single or multiple CxtProviders." It deduplicates by item id (the same
// item can arrive over several mechanisms when a query is assigned to
// multiple facades) and fuses recent same-type numeric readings into one
// item whose value is the accuracy-weighted mean — "combining results
// collected through different context mechanisms allows applications to
// partly relieve the uncertainty of single context sources".
#pragma once

#include <deque>
#include <optional>
#include <string>
#include <unordered_set>

#include "core/model/cxt_item.hpp"
#include "sim/simulation.hpp"

namespace contory::core {

struct AggregatorConfig {
  /// Readings within this window fuse together.
  SimDuration fusion_window = std::chrono::seconds{5};
  /// Dedup memory cap (ids remembered).
  std::size_t dedup_capacity = 256;
};

class CxtAggregator {
 public:
  CxtAggregator(sim::Simulation& sim, AggregatorConfig config = {});

  /// Feeds one collected item. Returns the item to deliver to the client,
  /// or nullopt when it was absorbed (duplicate, or fused into a later
  /// delivery).
  [[nodiscard]] std::optional<CxtItem> Process(CxtItem item);

 private:
  [[nodiscard]] bool IsDuplicate(const std::string& id);
  [[nodiscard]] CxtItem Fuse(const CxtItem& latest);

  sim::Simulation& sim_;
  AggregatorConfig config_;
  std::unordered_set<std::string> seen_ids_;
  std::deque<std::string> seen_order_;
  std::deque<CxtItem> window_;
};

}  // namespace contory::core
