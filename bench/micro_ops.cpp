// Google-benchmark microbenchmarks for the hot local operations of the
// library: context item construction/serialization, query parsing,
// predicate evaluation, and query merging. These are the operations a
// 220 MHz phone would run per item/query; regressions here matter for any
// real port.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "net/medium.hpp"
#include "core/contory.hpp"
#include "core/pipeline/query_table.hpp"
#include "obs/observability.hpp"

using namespace contory;
using namespace std::chrono_literals;

namespace {

CxtItem MakeItem() {
  CxtItem item;
  item.id = "bench-item";
  item.type = vocab::kLight;
  item.value = 5200.0;
  item.metadata.accuracy = 50.0;
  item.metadata.trust = TrustLevel::kTrusted;
  return item;
}

void BM_CreateCxtItem(benchmark::State& state) {
  for (auto _ : state) {
    CxtItem item = MakeItem();
    benchmark::DoNotOptimize(item);
  }
}
BENCHMARK(BM_CreateCxtItem);

void BM_SerializeCxtItem(benchmark::State& state) {
  const CxtItem item = MakeItem();
  for (auto _ : state) {
    auto wire = item.Serialize();
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_SerializeCxtItem);

void BM_DeserializeCxtItem(benchmark::State& state) {
  const auto wire = MakeItem().Serialize();
  for (auto _ : state) {
    auto item = CxtItem::Deserialize(wire);
    benchmark::DoNotOptimize(item);
  }
}
BENCHMARK(BM_DeserializeCxtItem);

void BM_ParseQuery(benchmark::State& state) {
  for (auto _ : state) {
    auto q = query::ParseQuery(
        "SELECT temperature FROM adHocNetwork(10,3) WHERE accuracy=0.2 "
        "FRESHNESS 30 sec DURATION 1 hour EVENT AVG(temperature)>25");
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_ParseQuery);

void BM_SerializeQuery(benchmark::State& state) {
  auto q = query::ParseQuery(
      "SELECT temperature FROM adHocNetwork(10,3) WHERE accuracy=0.2 "
      "FRESHNESS 30 sec DURATION 1 hour EVENT AVG(temperature)>25");
  q->id = "q-bench";
  for (auto _ : state) {
    auto wire = q->Serialize();
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_SerializeQuery);

void BM_EvalWhere(benchmark::State& state) {
  const auto p = query::ParsePredicate(
      "accuracy<=0.5 AND (trust=trusted OR correctness>=0.9) AND value>100");
  const CxtItem item = MakeItem();
  for (auto _ : state) {
    auto r = query::EvalWhere(*p, item);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EvalWhere);

void BM_EvalEventAggregate(benchmark::State& state) {
  const auto p = query::ParsePredicate("AVG(light)>5000");
  std::vector<CxtItem> window(static_cast<std::size_t>(state.range(0)),
                              MakeItem());
  for (auto _ : state) {
    auto r = query::EvalEvent(*p, window);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EvalEventAggregate)->Arg(8)->Arg(32);

void BM_MergeQueries(benchmark::State& state) {
  auto q1 = query::ParseQuery(
      "SELECT temperature FROM adHocNetwork(all,3) FRESHNESS 10sec "
      "DURATION 1hour EVERY 15sec");
  auto q2 = query::ParseQuery(
      "SELECT temperature FROM adHocNetwork(all,1) FRESHNESS 20sec "
      "DURATION 2hour EVERY 30sec");
  q1->id = "q1";
  q2->id = "q2";
  for (auto _ : state) {
    auto merged = query::Merge(*q1, *q2);
    benchmark::DoNotOptimize(merged);
  }
}
BENCHMARK(BM_MergeQueries);

void BM_PostExtract(benchmark::State& state) {
  auto q = query::ParseQuery(
      "SELECT light WHERE accuracy<=100 FRESHNESS 1 hour DURATION 1 hour");
  q->id = "q";
  const CxtItem item = MakeItem();
  for (auto _ : state) {
    bool match = query::PostExtract(*q, item, kSimEpoch + 1s);
    benchmark::DoNotOptimize(match);
  }
}
BENCHMARK(BM_PostExtract);

void BM_NmeaBuildParse(benchmark::State& state) {
  sensors::GpsFix fix;
  fix.position = {60.152, 24.909};
  fix.speed_knots = 6.5;
  fix.time = kSimEpoch + 3725s;
  for (auto _ : state) {
    const auto burst = sensors::BuildNmeaBurst(fix);
    auto parsed = sensors::ParseNmeaBurst(burst);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_NmeaBuildParse);

// --- Observability hot-path costs (the per-submit instrumentation) ----

void BM_ObsSpanLifecycle(benchmark::State& state) {
  // One query's worth of tracer work on the submit/finish path: root +
  // provision span opened, both closed. Capacity 0 keeps the finished
  // deque from growing across iterations.
  auto& tracer = obs::Observability::tracer();
  tracer.Reset();
  tracer.SetCapacity(0);
  const std::string query_id = "q-bench";
  double fake_energy = 0.0;
  for (auto _ : state) {
    const auto root = tracer.BeginQuery(query_id, kSimEpoch,
                                        [&] { return fake_energy; });
    const auto stage =
        tracer.BeginStage(root, "provision", "adHocNetwork", kSimEpoch);
    tracer.EndStage(stage, kSimEpoch + 1s, "ok");
    tracer.EndQuery(root, kSimEpoch + 1s, "ACTIVE");
  }
  tracer.Reset();
  tracer.SetCapacity(8192);
}
BENCHMARK(BM_ObsSpanLifecycle);

void BM_ObsCounterCachedInc(benchmark::State& state) {
  obs::Observability::metrics().Reset();
  obs::Counter& counter = obs::Observability::metrics().GetCounter(
      "bench_counter", {{"mechanism", "adHocNetwork"}});
  for (auto _ : state) {
    counter.Inc();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_ObsCounterCachedInc);

void BM_ObsCounterLookupInc(benchmark::State& state) {
  // The anti-pattern the cached handles avoid: per-call name+label
  // resolution.
  obs::Observability::metrics().Reset();
  for (auto _ : state) {
    obs::Observability::metrics()
        .GetCounter("bench_counter", {{"mechanism", "adHocNetwork"}})
        .Inc();
  }
}
BENCHMARK(BM_ObsCounterLookupInc);

// --- Query-table hot path ----------------------------------------------

void BM_QueryTableFindById(benchmark::State& state) {
  // Record lookup by id at a 64k-query population: one hash probe.
  sim::Simulation sim{1};
  core::QueryTable table(sim, /*completion_log_capacity=*/16);
  obs::Observability::Enable(false);
  core::CollectingClient client;
  std::vector<core::QueryId> qids;
  for (int i = 0; i < 65536; ++i) {
    auto q = query::ParseQuery("SELECT temperature DURATION 1 hour");
    q->id = "q-" + std::to_string(i);
    auto admitted = table.Admit(*std::move(q), client);
    qids.push_back(*admitted);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    core::QueryRecord* record = table.FindById(qids[i & 65535]);
    benchmark::DoNotOptimize(record);
    ++i;
  }
  obs::Observability::Enable(true);
}
BENCHMARK(BM_QueryTableFindById);

// Uniform scatter at constant density (side = 100 * sqrt(n), the city
// default), WiFi-range cell size — the layout the city sweep queries.
void ScatterCity(net::Medium& medium, std::int64_t n,
                 std::vector<net::NodeId>& ids) {
  Rng rng{7};
  const double side = 100.0 * std::sqrt(static_cast<double>(n));
  ids.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    ids.push_back(medium.Register(
        "b", {rng.Uniform(0.0, side), rng.Uniform(0.0, side)}));
  }
  medium.NoteRadioRange(100.0);
}

void BM_MediumNodesWithin(benchmark::State& state) {
  net::Medium medium;
  std::vector<net::NodeId> ids;
  ScatterCity(medium, state.range(0), ids);
  medium.set_use_grid(state.range(1) != 0);
  std::size_t i = 0;
  for (auto _ : state) {
    auto hits = medium.NodesWithin(ids[i], 100.0);
    benchmark::DoNotOptimize(hits);
    i = (i + 8191) % ids.size();  // coprime stride: spread cache misses
  }
}
BENCHMARK(BM_MediumNodesWithin)
    ->ArgNames({"nodes", "grid"})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({100000, 0})
    ->Args({100000, 1});

void BM_MediumSetPositionSameCell(benchmark::State& state) {
  // The mobility common case: a sub-cell nudge, no migration.
  net::Medium medium;
  std::vector<net::NodeId> ids;
  ScatterCity(medium, 10000, ids);
  double dx = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(medium.SetPosition(ids[42], {500.0 + dx, 500.0}));
    dx = -dx;
  }
}
BENCHMARK(BM_MediumSetPositionSameCell);

void BM_MediumSetPositionMigrate(benchmark::State& state) {
  // Cross-cell move: swap-remove from one cell, append to another.
  net::Medium medium;
  std::vector<net::NodeId> ids;
  ScatterCity(medium, 10000, ids);
  bool flip = false;
  for (auto _ : state) {
    const double x = flip ? 100.0 : 900.0;  // several cells apart
    benchmark::DoNotOptimize(medium.SetPosition(ids[42], {x, 500.0}));
    flip = !flip;
  }
}
BENCHMARK(BM_MediumSetPositionMigrate);

}  // namespace

BENCHMARK_MAIN();
