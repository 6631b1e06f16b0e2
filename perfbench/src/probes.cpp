#include "probes.hpp"

#include "obs/observability.hpp"

namespace perfbench {

using namespace contory;

std::uint64_t HistogramCount(const std::string& name,
                             const obs::Labels& labels) {
  const obs::Histogram* h =
      obs::Observability::metrics().FindHistogram(name, labels);
  return h != nullptr ? h->count() : 0;
}

// The per-step readers resolve their series once: registry handles stay
// valid for the process lifetime, across ResetForTest().
std::uint64_t WifiFrames() {
  static const obs::Counter& frames = obs::Observability::metrics().GetCounter(
      "radio_tx_frames_total", {{"radio", "wifi"}});
  return frames.value();
}

std::uint64_t NeighborQueries() {
  static const obs::Counter& queries =
      obs::Observability::metrics().GetCounter(
          "medium_neighbor_queries_total", {{"backend", "grid"}});
  return queries.value();
}

void SetCoreLayerMetrics(core::ContextFactory& factory, MetricSet& layer) {
  const core::QueryTable& table = factory.queries();
  layer.Set("core.pipeline.live_queries",
            static_cast<double>(table.active_count()), 1);
  layer.Set("core.pipeline.admitted",
            static_cast<double>(table.total_admitted()), 1);
  layer.Set("core.pipeline.completed",
            static_cast<double>(table.total_completed()), 1);

  double created = 0.0;
  double originals = 0.0;
  double providers = 0.0;
  for (const query::SourceSel kind :
       {query::SourceSel::kIntSensor, query::SourceSel::kExtInfra,
        query::SourceSel::kAdHocNetwork}) {
    const core::Facade& facade = factory.facade(kind);
    created += static_cast<double>(facade.providers_created());
    originals += static_cast<double>(facade.active_original_count());
    providers += static_cast<double>(facade.active_provider_count());
  }
  layer.Set("core.facade.providers_created", created, 3);
  layer.Set("core.facade.queries_per_provider",
            providers > 0.0 ? originals / providers : 0.0,
            static_cast<std::uint64_t>(providers));
  layer.Set("core.router.items_routed",
            static_cast<double>(factory.router().items_routed()), 1);
}

void CheckLifecycle(const core::ContextFactory& factory, Outcome& out) {
  const core::QueryTable& table = factory.queries();
  out.Check(table.total_admitted() ==
                table.total_completed() + table.active_count(),
            "admitted " + std::to_string(table.total_admitted()) +
                " != completed " + std::to_string(table.total_completed()) +
                " + live " + std::to_string(table.active_count()));
  out.Check(table.invalid_transitions() == 0,
            std::to_string(table.invalid_transitions()) +
                " invalid lifecycle transitions");
}

void CheckQuiescentSpans(Outcome& out) {
  const obs::QueryTracer& tracer = obs::Observability::tracer();
  out.per_layer.Set("obs.open_spans",
                    static_cast<double>(tracer.open_count()), 1);
  out.per_layer.Set("obs.double_closes",
                    static_cast<double>(tracer.double_closes()), 1);
  out.Check(tracer.open_count() == 0,
            std::to_string(tracer.open_count()) +
                " tracer spans open at quiescence");
  out.Check(tracer.double_closes() == 0,
            std::to_string(tracer.double_closes()) +
                " tracer spans closed twice");
}

}  // namespace perfbench
