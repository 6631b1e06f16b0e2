#include "core/providers/aggregator.hpp"

namespace contory::core {

CxtAggregator::CxtAggregator(sim::Simulation& sim, AggregatorConfig config)
    : sim_(sim), config_(config) {}

bool CxtAggregator::IsDuplicate(const std::string& id) {
  if (seen_ids_.contains(id)) return true;
  seen_ids_.insert(id);
  seen_order_.push_back(id);
  while (seen_order_.size() > config_.dedup_capacity) {
    seen_ids_.erase(seen_order_.front());
    seen_order_.pop_front();
  }
  return false;
}

CxtItem CxtAggregator::Fuse(const CxtItem& latest) {
  // Accuracy-weighted mean over the fusion window; an item with error
  // bound e contributes weight 1/e (unset accuracy counts as 1.0).
  double weighted_sum = 0.0;
  double weight_total = 0.0;
  double best_accuracy = 1e300;
  for (const auto& item : window_) {
    const auto v = item.value.AsNumber();
    if (!v.ok()) continue;
    const double acc = item.metadata.accuracy.value_or(1.0);
    const double w = acc > 0 ? 1.0 / acc : 1.0;
    weighted_sum += *v * w;
    weight_total += w;
    best_accuracy = std::min(best_accuracy, acc);
  }
  CxtItem fused = latest;
  fused.id = sim_.ids().NextId("fused");
  if (weight_total > 0) fused.value = weighted_sum / weight_total;
  fused.source = {SourceKind::kApplication, "cxtAggregator"};
  if (best_accuracy < 1e300) fused.metadata.accuracy = best_accuracy;
  // Completeness improves with corroborating sources.
  fused.metadata.completeness =
      std::min(1.0, static_cast<double>(window_.size()) / 3.0);
  return fused;
}

std::optional<CxtItem> CxtAggregator::Process(CxtItem item) {
  if (IsDuplicate(item.id)) return std::nullopt;
  // Non-numeric values pass through untouched.
  if (!item.value.is_number()) return item;
  const SimTime now = sim_.Now();
  window_.push_back(item);
  while (!window_.empty() &&
         now - window_.front().timestamp > config_.fusion_window) {
    window_.pop_front();
  }
  return Fuse(item);
}

}  // namespace contory::core
