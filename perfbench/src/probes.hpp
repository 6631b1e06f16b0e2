// Readers of the program's public accessors and registry series, shared by
// the workloads: counts come from outside, never from hooks inside src/.
#pragma once

#include <cstdint>
#include <string>

#include "core/context_factory.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

/// Observations in a registry histogram (0 when it does not exist).
[[nodiscard]] std::uint64_t HistogramCount(const std::string& name,
                                           const contory::obs::Labels& labels = {});

/// WiFi frames sent so far (radio_frame_airtime_ms{radio=wifi} count).
[[nodiscard]] std::uint64_t WifiFrames();
/// Grid NodesWithin calls so far (medium_neighbor_queries_total).
[[nodiscard]] std::uint64_t NeighborQueries();

/// core.pipeline counts from the QueryTable and core.facade/core.router
/// counts from the facades and the DeliveryRouter.
void SetCoreLayerMetrics(contory::core::ContextFactory& factory,
                         MetricSet& layer);

/// Lifecycle invariants of the QueryTable: admitted == completed + live
/// and no refused state-machine edge.
void CheckLifecycle(const contory::core::ContextFactory& factory,
                    Outcome& out);

/// At quiescence no tracer span may be open or closed twice; also sets
/// obs.open_spans and obs.double_closes.
void CheckQuiescentSpans(Outcome& out);

}  // namespace perfbench
