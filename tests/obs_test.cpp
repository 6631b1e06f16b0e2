// Observability tests: the MetricsRegistry and QueryTracer in isolation,
// the obs::Clock installation semantics, and the span-lifecycle
// invariants of the instrumented pipeline — every admitted query yields
// exactly one root span with a terminal status, failover/degradation
// produce nested stage spans, and a client cancelling from inside its
// own delivery callback closes the span tree exactly once.
//
// The whole suite runs twice in CI: once with hooks live and once with
// CONTORY_OBS_MODE=off in the environment (runtime disable). Scenario
// tests branch on the active mode, so the "off" run asserts the
// zero-footprint contract instead of skipping.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/contory.hpp"
#include "fault/fault_injector.hpp"
#include "obs/clock.hpp"
#include "obs/observability.hpp"
#include "testbed/testbed.hpp"

namespace contory {
namespace {

using namespace std::chrono_literals;
using testbed::NewQuery;

// --- MetricsRegistry --------------------------------------------------------

TEST(ObsMetricsTest, EncodeKeySortsLabels) {
  EXPECT_EQ(obs::MetricsRegistry::EncodeKey("m", {{"b", "2"}, {"a", "1"}}),
            "m{a=\"1\",b=\"2\"}");
  EXPECT_EQ(obs::MetricsRegistry::EncodeKey("m", {}), "m");
}

TEST(ObsMetricsTest, LabelOrderDoesNotSplitMetrics) {
  obs::MetricsRegistry registry;
  obs::Counter& a =
      registry.GetCounter("m", {{"a", "1"}, {"b", "2"}});
  obs::Counter& b =
      registry.GetCounter("m", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ObsMetricsTest, KindMismatchThrows) {
  obs::MetricsRegistry registry;
  registry.GetCounter("x");
  EXPECT_THROW(registry.GetGauge("x"), std::logic_error);
  EXPECT_THROW(registry.GetHistogram("x"), std::logic_error);
}

TEST(ObsMetricsTest, HandlesSurviveReset) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.GetCounter("c");
  obs::Gauge& g = registry.GetGauge("g");
  c.Inc(5);
  g.Set(3.0);
  registry.Reset();
  // Values are zeroed but the handles (and lookups) stay valid.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  c.Inc();
  EXPECT_EQ(&registry.GetCounter("c"), &c);
  ASSERT_NE(registry.FindCounter("c"), nullptr);
  EXPECT_EQ(registry.FindCounter("c")->value(), 1u);
}

TEST(ObsMetricsTest, HistogramPercentilesAndCell) {
  obs::Histogram h{{1.0, 10.0, 100.0}};
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 0.0);

  h.Observe(0.5);
  h.Observe(5.0);
  h.Observe(50.0);
  h.Observe(500.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.stats().mean(), 138.875);
  // Percentiles interpolate within the bucket; the overflow bucket
  // reports the true observed maximum.
  EXPECT_LE(h.Percentile(50.0), 10.0);
  EXPECT_GT(h.Percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 500.0);
  // The paper's "Avg [90% CI]" cell.
  EXPECT_NE(h.ToCell().find("138.875 ["), std::string::npos);

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(ObsMetricsTest, ExportersRenderAllKinds) {
  obs::MetricsRegistry registry;
  registry.GetCounter("requests_total", {{"mechanism", "intSensor"}}).Inc(3);
  registry.GetGauge("live").Set(2.0);
  registry.GetHistogram("lat_ms", {}, {1.0, 10.0}).Observe(4.0);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("requests_total{mechanism=\"intSensor\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"count\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);

  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE live gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE lat_ms histogram"), std::string::npos);
  EXPECT_NE(prom.find("lat_ms_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("lat_ms_count 1"), std::string::npos);
  EXPECT_NE(prom.find("lat_ms_sum 4"), std::string::npos);
}

TEST(ObsMetricsTest, SeriesCapRedirectsToOverflowSeries) {
  obs::MetricsRegistry registry;
  registry.SetSeriesCap(2);
  obs::Counter& c1 = registry.GetCounter("m_total", {{"c", "1"}});
  obs::Counter& c2 = registry.GetCounter("m_total", {{"c", "2"}});
  EXPECT_NE(&c1, &c2);

  // The third distinct label set lands in the "other" overflow series.
  obs::Counter& c3 = registry.GetCounter("m_total", {{"c", "3"}});
  EXPECT_EQ(&c3, &registry.GetCounter("m_total", {{"c", "other"}}));
  c3.Inc(7);
  // Every redirected lookup is counted — the counter measures how often
  // callers hit the cap, not just how many series were refused.
  const obs::Counter* capped =
      registry.FindCounter("metrics_series_capped_total");
  ASSERT_NE(capped, nullptr);
  EXPECT_GE(capped->value(), 1u);
  const std::uint64_t before = capped->value();
  registry.GetCounter("m_total", {{"c", "4"}}).Inc();
  EXPECT_GT(capped->value(), before);
  EXPECT_EQ(registry.FindCounter("m_total", {{"c", "other"}})->value(), 8u);

  // Existing series keep resolving directly, the cap only stops new ones.
  EXPECT_EQ(&registry.GetCounter("m_total", {{"c", "1"}}), &c1);
  // Unlabeled series and other metric names are never capped.
  registry.GetCounter("unlabeled_total").Inc();
  obs::Gauge& g3 = registry.GetGauge("g", {{"c", "3"}});
  EXPECT_NE(&g3, &registry.GetGauge("g", {{"c", "1"}}));

  // SetSeriesCap(0) disables the guard for fresh names.
  registry.SetSeriesCap(0);
  obs::Counter& u3 = registry.GetCounter("uncapped_total", {{"c", "3"}});
  EXPECT_NE(&u3, &registry.GetCounter("uncapped_total", {{"c", "other"}}));
}

TEST(ObsMetricsTest, PrometheusExpositionLints) {
  obs::MetricsRegistry registry;
  registry.SetSeriesCap(2);
  registry.GetCounter("lint_total", {{"z", "9"}, {"a", "1"}}).Inc(3);
  registry.GetCounter("lint_total", {{"a", "2"}, {"z", "8"}}).Inc();
  registry.GetCounter("lint_total", {{"a", "3"}, {"z", "7"}}).Inc();  // other
  registry.GetGauge("lint_live").Set(2.0);
  registry.GetHistogram("lint_ms", {}, {1.0, 10.0}).Observe(0.5);

  const auto is_name = [](const std::string& s) {
    if (s.empty()) return false;
    for (const char ch : s) {
      if (std::isalnum(static_cast<unsigned char>(ch)) == 0 && ch != '_' &&
          ch != ':') {
        return false;
      }
    }
    return std::isdigit(static_cast<unsigned char>(s[0])) == 0;
  };
  // Histogram series render under derived names; TYPE covers the base.
  const auto base_of = [](std::string name) {
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s{suffix};
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        return name.substr(0, name.size() - s.size());
      }
    }
    return name;
  };

  std::set<std::string> typed;
  std::istringstream lines(registry.ToPrometheusText());
  std::string line;
  std::size_t series_seen = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t space = rest.find(' ');
      ASSERT_NE(space, std::string::npos) << line;
      EXPECT_TRUE(is_name(rest.substr(0, space))) << line;
      const std::string kind = rest.substr(space + 1);
      EXPECT_TRUE(kind == "counter" || kind == "gauge" ||
                  kind == "histogram")
          << line;
      typed.insert(rest.substr(0, space));
      continue;
    }
    ++series_seen;
    // `name{labels} value` — name valid, labels sorted, value numeric.
    std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    const std::string name = line.substr(0, name_end);
    EXPECT_TRUE(is_name(name)) << line;
    EXPECT_TRUE(typed.count(base_of(name)) == 1 || typed.count(name) == 1)
        << "series before its # TYPE: " << line;
    std::size_t value_at = name_end;
    if (line[name_end] == '{') {
      const std::size_t close = line.find('}', name_end);
      ASSERT_NE(close, std::string::npos) << line;
      std::string previous_key;
      std::size_t at = name_end + 1;
      while (at < close) {
        const std::size_t eq = line.find('=', at);
        ASSERT_NE(eq, std::string::npos) << line;
        const std::string key = line.substr(at, eq - at);
        EXPECT_TRUE(is_name(key)) << line;
        EXPECT_LT(previous_key, key) << "labels not sorted: " << line;
        previous_key = key;
        ASSERT_EQ(line[eq + 1], '"') << line;
        const std::size_t end_quote = line.find('"', eq + 2);
        ASSERT_NE(end_quote, std::string::npos) << line;
        at = end_quote + 1;
        if (line[at] == ',') ++at;
      }
      value_at = close + 1;
    }
    ASSERT_EQ(line[value_at], ' ') << line;
    const std::string value = line.substr(value_at + 1);
    ASSERT_FALSE(value.empty()) << line;
    if (value != "+Inf" && value != "-Inf" && value != "NaN") {
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      EXPECT_EQ(*end, '\0') << "unparsable value in: " << line;
    }
  }
  // counter + gauge + histogram bases all declared, series all present.
  EXPECT_GE(typed.size(), 4u);  // lint_total, lint_live, lint_ms, capped
  EXPECT_GE(series_seen, 9u);   // 3 counters + capped + gauge + hist(4+)
}

// --- QueryTracer ------------------------------------------------------------

TEST(ObsTracerTest, RootAndStageLifecycle) {
  obs::QueryTracer tracer;
  const auto root = tracer.BeginQuery("q-1", kSimEpoch);
  ASSERT_NE(root, 0u);
  const auto stage =
      tracer.BeginStage(root, "provision", "intSensor", kSimEpoch + 1s);
  ASSERT_NE(stage, 0u);
  EXPECT_EQ(tracer.open_count(), 2u);
  EXPECT_EQ(tracer.spans_started(), 2u);

  tracer.AddItems(root, 2);
  tracer.AddItems(stage);
  tracer.AddNote(stage, "switch imminent");

  const obs::Span* s = tracer.EndStage(stage, kSimEpoch + 5s, "ok");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->parent, root);
  EXPECT_EQ(s->query_id, "q-1");
  EXPECT_EQ(s->name, "provision");
  EXPECT_EQ(s->mechanism, "intSensor");
  EXPECT_EQ(s->status, "ok");
  EXPECT_EQ(s->duration(), 4s);
  EXPECT_EQ(s->items, 1u);
  ASSERT_EQ(s->notes.size(), 1u);
  EXPECT_EQ(s->notes[0], "switch imminent");
  EXPECT_FALSE(s->open);

  const obs::Span* r = tracer.EndQuery(root, kSimEpoch + 9s, "DONE");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->parent, 0u);
  EXPECT_EQ(r->items, 2u);
  EXPECT_EQ(tracer.open_count(), 0u);

  const auto all = tracer.FinishedFor("q-1");
  ASSERT_EQ(all.size(), 2u);  // completion order: stage first, then root
  EXPECT_EQ(all[0].name, "provision");
  EXPECT_EQ(all[1].name, "query");
}

TEST(ObsTracerTest, UnknownRootYieldsNoopHandle) {
  obs::QueryTracer tracer;
  EXPECT_EQ(tracer.BeginStage(42, "provision", "extInfra", kSimEpoch), 0u);
  EXPECT_EQ(tracer.EndStage(0, kSimEpoch, "ok"), nullptr);
  tracer.AddItems(0);
  tracer.AddNote(0, "nope");
  EXPECT_EQ(tracer.spans_started(), 0u);
  EXPECT_EQ(tracer.double_closes(), 0u);
}

TEST(ObsTracerTest, DoubleCloseIsCounted) {
  obs::QueryTracer tracer;
  const auto root = tracer.BeginQuery("q-1", kSimEpoch);
  ASSERT_NE(tracer.EndQuery(root, kSimEpoch + 1s, "DONE"), nullptr);
  // A second close of a once-valid handle is an instrumentation bug and
  // is counted; a handle that was never issued is ignored.
  EXPECT_EQ(tracer.EndQuery(root, kSimEpoch + 2s, "DONE"), nullptr);
  EXPECT_EQ(tracer.double_closes(), 1u);
  EXPECT_EQ(tracer.EndStage(999, kSimEpoch + 2s, "ok"), nullptr);
  EXPECT_EQ(tracer.double_closes(), 1u);
}

TEST(ObsTracerTest, StaleHandleMissesTheSpanReusingItsSlot) {
  obs::QueryTracer tracer;
  const auto root = tracer.BeginQuery("q-1", kSimEpoch);
  const auto a = tracer.BeginStage(root, "provision", "intSensor", kSimEpoch);
  ASSERT_NE(tracer.EndStage(a, kSimEpoch + 1s, "ok"), nullptr);
  // B opens in A's freed slot under the next generation.
  const auto b = tracer.BeginStage(root, "failover", nullptr, kSimEpoch + 2s);
  ASSERT_NE(b, 0u);
  ASSERT_NE(b, a);
  EXPECT_EQ(tracer.slot_count(), 2u);

  // Every use of the stale handle A misses B.
  EXPECT_EQ(tracer.FindOpen(a), nullptr);
  EXPECT_EQ(tracer.BeginStage(a, "provision", "intSensor", kSimEpoch), 0u);
  EXPECT_EQ(tracer.BeginHop(a, "hop:1", kSimEpoch), 0u);
  tracer.AddItems(a, 5);
  tracer.AddNote(a, "stale");
  const obs::Span* open_b = tracer.FindOpen(b);
  ASSERT_NE(open_b, nullptr);
  EXPECT_EQ(open_b->items, 0u);
  EXPECT_TRUE(open_b->notes.empty());
  EXPECT_EQ(tracer.spans_started(), 3u);

  // Closing A again is a double close, not a close of B.
  EXPECT_EQ(tracer.EndStage(a, kSimEpoch + 3s, "ok"), nullptr);
  EXPECT_EQ(tracer.double_closes(), 1u);
  EXPECT_EQ(tracer.open_count(), 2u);

  const obs::Span* closed_b = tracer.EndStage(b, kSimEpoch + 4s, "switched");
  ASSERT_NE(closed_b, nullptr);
  EXPECT_EQ(closed_b->id, b);
  EXPECT_EQ(closed_b->name, "failover");
  EXPECT_EQ(closed_b->status, "switched");
  ASSERT_NE(tracer.EndQuery(root, kSimEpoch + 5s, "DONE"), nullptr);
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(tracer.double_closes(), 1u);
}

TEST(ObsTracerTest, EnergyProbeSampledAtBoundaries) {
  double energy = 1.5;
  obs::QueryTracer tracer;
  const auto root =
      tracer.BeginQuery("q-1", kSimEpoch, [&] { return energy; });
  const auto stage =
      tracer.BeginStage(root, "provision", "intSensor", kSimEpoch + 1s);

  energy = 3.0;
  const obs::Span* s = tracer.EndStage(stage, kSimEpoch + 2s, "ok");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->energy_start_j, 1.5);
  EXPECT_DOUBLE_EQ(s->energy_end_j, 3.0);
  EXPECT_DOUBLE_EQ(s->energy_joules(), 1.5);

  energy = 5.0;
  const obs::Span* r = tracer.EndQuery(root, kSimEpoch + 3s, "DONE");
  ASSERT_NE(r, nullptr);
  EXPECT_DOUBLE_EQ(r->energy_start_j, 1.5);
  EXPECT_DOUBLE_EQ(r->energy_joules(), 3.5);
}

TEST(ObsTracerTest, CapacityBoundsFinishedSpans) {
  obs::QueryTracer tracer;
  tracer.SetCapacity(2);
  for (int i = 0; i < 3; ++i) {
    const std::string id = "q-" + std::to_string(i);
    tracer.EndQuery(tracer.BeginQuery(id, kSimEpoch), kSimEpoch + 1s, "DONE");
  }
  EXPECT_EQ(tracer.finished().size(), 2u);
  EXPECT_EQ(tracer.spans_dropped(), 1u);
  EXPECT_EQ(tracer.finished().front().query_id, "q-1");  // oldest dropped

  // Capacity 0 still keeps the most recent span so the pointer returned
  // by the closing call stays valid.
  tracer.SetCapacity(0);
  const obs::Span* last = tracer.EndQuery(
      tracer.BeginQuery("q-last", kSimEpoch), kSimEpoch + 1s, "DONE");
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->query_id, "q-last");
  EXPECT_EQ(tracer.finished().size(), 1u);
}

TEST(ObsTracerTest, NoteOpenRootsAnnotatesOnlyRoots) {
  obs::QueryTracer tracer;
  const auto root_a = tracer.BeginQuery("q-a", kSimEpoch);
  const auto root_b = tracer.BeginQuery("q-b", kSimEpoch);
  const auto stage =
      tracer.BeginStage(root_a, "provision", "intSensor", kSimEpoch);
  tracer.NoteOpenRoots("fault:bt.fail:phone:on");

  const obs::Span* sa = tracer.FindOpen(root_a);
  const obs::Span* sb = tracer.FindOpen(root_b);
  const obs::Span* ss = tracer.FindOpen(stage);
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);
  ASSERT_NE(ss, nullptr);
  ASSERT_EQ(sa->notes.size(), 1u);
  EXPECT_EQ(sa->notes[0], "fault:bt.fail:phone:on");
  EXPECT_EQ(sb->notes.size(), 1u);
  EXPECT_TRUE(ss->notes.empty());
}

// --- obs::Clock -------------------------------------------------------------

TEST(ObsClockTest, TokenGuardedInstallation) {
  ASSERT_FALSE(obs::Clock::installed());
  EXPECT_EQ(obs::Clock::Now(), kSimEpoch);  // fallback with no source

  const auto t1 = obs::Clock::Install([] { return kSimEpoch + 5s; });
  const auto t2 = obs::Clock::Install([] { return kSimEpoch + 9s; });
  EXPECT_EQ(obs::Clock::Now(), kSimEpoch + 9s);

  // A stale token cannot strand the newer installation.
  obs::Clock::Uninstall(t1);
  EXPECT_TRUE(obs::Clock::installed());
  EXPECT_EQ(obs::Clock::Now(), kSimEpoch + 9s);

  obs::Clock::Uninstall(t2);
  EXPECT_FALSE(obs::Clock::installed());
  EXPECT_EQ(obs::Clock::Now(), kSimEpoch);
}

TEST(ObsClockTest, WorldInstallsItsSimulation) {
  ASSERT_FALSE(obs::Clock::installed());
  {
    testbed::World world{7};
    world.RunFor(42s);
    // One installation point: the tracer, op-latency metrics and log
    // prefix all read the same simulated clock.
    EXPECT_TRUE(obs::Clock::installed());
    EXPECT_EQ(obs::Clock::Now(), world.Now());
    EXPECT_EQ(obs::Clock::Now(), kSimEpoch + 42s);
  }
  EXPECT_FALSE(obs::Clock::installed());
}

// --- Instrumented-pipeline scenarios ----------------------------------------

/// Runs every scenario in the mode CI selected: hooks live (default) or
/// runtime-disabled (CONTORY_OBS_MODE=off). A CONTORY_OBS=OFF compile
/// behaves like the disabled mode.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Observability::ResetForTest();
    const char* mode = std::getenv("CONTORY_OBS_MODE");
    if (mode != nullptr && std::string(mode) == "off") {
      obs::Observability::Enable(false);
    }
  }
  void TearDown() override { obs::Observability::ResetForTest(); }

  /// True when instrumentation is active for this run (compiled in and
  /// runtime-enabled); scenario tests assert the zero-footprint contract
  /// otherwise.
  static bool HooksLive() { return COBS_ON(); }

  static obs::MetricsRegistry& metrics() {
    return obs::Observability::metrics();
  }
  static obs::QueryTracer& tracer() { return obs::Observability::tracer(); }

  static std::uint64_t CounterValue(const std::string& name,
                                    const obs::Labels& labels = {}) {
    const obs::Counter* c = metrics().FindCounter(name, labels);
    return c == nullptr ? 0 : c->value();
  }
  static double GaugeValue(const std::string& name) {
    const obs::Gauge* g = metrics().FindGauge(name);
    return g == nullptr ? 0.0 : g->value();
  }
};

TEST_F(ObsTest, PeriodicQueryYieldsOneRootSpanWithTerminalStatus) {
  testbed::World world{91};
  testbed::DeviceOptions opts;
  opts.with_bt = false;
  opts.with_cellular = false;
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);

  core::CollectingClient client;
  auto q = NewQuery(
               world.sim(),
               "SELECT temperature FROM intSensor DURATION 30 sec EVERY 5 sec");
  const std::string id = q.id;
  ASSERT_TRUE(device.contory().ProcessCxtQuery(std::move(q), client).ok());
  world.RunFor(40s);

  ASSERT_FALSE(client.items.empty());
  EXPECT_EQ(device.contory().queries().active_count(), 0u);

  if (!HooksLive()) {
    EXPECT_EQ(tracer().spans_started(), 0u);
    EXPECT_EQ(metrics().FindCounter("queries_admitted_total"), nullptr);
    return;
  }

  EXPECT_EQ(tracer().open_count(), 0u);
  EXPECT_EQ(tracer().double_closes(), 0u);

  const auto spans = tracer().FinishedFor(id);
  std::size_t roots = 0;
  const obs::Span* root = nullptr;
  const obs::Span* provision = nullptr;
  for (const obs::Span& s : spans) {
    if (s.name == "query") {
      ++roots;
      root = &s;
    }
    if (s.name == "provision") provision = &s;
  }
  EXPECT_EQ(roots, 1u);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->status, "ACTIVE");  // finished from ACTIVE at expiry
  EXPECT_EQ(root->items, client.items.size());
  EXPECT_GE(root->duration(), 30s);
  // The energy probe attributed the device's consumption to the query.
  EXPECT_GT(root->energy_joules(), 0.0);
  ASSERT_NE(provision, nullptr);
  EXPECT_EQ(provision->mechanism, "intSensor");
  // The facade reported a clean duration expiry before the table's
  // terminal close cascade ran, so the stage closed with its own status.
  EXPECT_EQ(provision->status, "ok");
  EXPECT_EQ(provision->items, client.items.size());

  EXPECT_EQ(CounterValue("queries_admitted_total"), 1u);
  EXPECT_DOUBLE_EQ(GaugeValue("queries_live"), 0.0);
  EXPECT_EQ(CounterValue("items_delivered_total",
                         {{"mechanism", "intSensor"}}),
            client.items.size());
  EXPECT_EQ(CounterValue("queries_completed_total", {{"state", "ACTIVE"}}),
            1u);
  EXPECT_EQ(CounterValue("providers_created_total",
                         {{"mechanism", "intSensor"}}),
            1u);
  const obs::Histogram* first = metrics().FindHistogram(
      "first_delivery_latency_ms", {{"mechanism", "intSensor"}});
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->count(), 1u);
}

/// Records the sim time of its first item.
class FirstArrivalClient : public core::CollectingClient {
 public:
  explicit FirstArrivalClient(const sim::Simulation& sim) : sim_(sim) {}
  void ReceiveCxtItem(const CxtItem& item) override {
    if (items.empty()) first_at = sim_.Now();
    CollectingClient::ReceiveCxtItem(item);
  }

  SimTime first_at{};

 private:
  const sim::Simulation& sim_;
};

TEST_F(ObsTest, ProvisionSpanOpensAtFacadeAssignment) {
  // An extInfra query's first item needs the cellular round trip to the
  // context server, so it lands well after the facade assignment. The
  // provision window still starts at the assignment and samples the
  // energy ledger there.
  testbed::World world{93};
  testbed::DeviceOptions opts;
  opts.infra_address = "infra.fi";
  auto& device = world.AddDevice(opts);
  infra::ContextServer& server = world.AddContextServer("infra.fi");
  CxtItem reading;
  reading.id = "remote-temperature";
  reading.type = vocab::kTemperature;
  reading.value = 21.0;
  server.StoreDirect({reading, "remote", std::nullopt});
  world.RunFor(5s);

  FirstArrivalClient client(world.sim());
  auto q = NewQuery(world.sim(),
                    "SELECT temperature FROM extInfra DURATION 1 min "
                    "EVERY 20 sec");
  const std::string id = q.id;
  const SimTime assigned_at = world.sim().Now();
  const double energy_at_assignment =
      device.phone().energy().TotalEnergyJoules();
  ASSERT_GT(energy_at_assignment, 0.0);
  ASSERT_TRUE(device.contory().ProcessCxtQuery(std::move(q), client).ok());
  world.RunFor(2min);

  ASSERT_FALSE(client.items.empty());
  EXPECT_GT(client.first_at, assigned_at);
  if (!HooksLive()) {
    EXPECT_EQ(tracer().spans_started(), 0u);
    return;
  }
  const obs::Span* root = nullptr;
  const obs::Span* provision = nullptr;
  const auto spans = tracer().FinishedFor(id);
  for (const obs::Span& s : spans) {
    if (s.name == "query") root = &s;
    if (s.name == "provision") provision = &s;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(provision, nullptr);
  EXPECT_EQ(provision->mechanism, "extInfra");
  EXPECT_EQ(provision->start, root->start);
  EXPECT_EQ(provision->start, assigned_at);
  EXPECT_DOUBLE_EQ(provision->energy_start_j, energy_at_assignment);
  EXPECT_EQ(provision->items, client.items.size());
  EXPECT_EQ(tracer().open_count(), 0u);
  EXPECT_EQ(tracer().double_closes(), 0u);
}

TEST_F(ObsTest, RuntimeDisableSuppressesEveryHook) {
  obs::Observability::Enable(false);
  {
    testbed::World world{42};
    testbed::DeviceOptions opts;
    opts.with_bt = false;
    opts.with_cellular = false;
    opts.internal_sensors = {vocab::kTemperature};
    auto& device = world.AddDevice(opts);

    core::CollectingClient client;
    ASSERT_TRUE(
        device.contory()
            .ProcessCxtQuery(
                NewQuery(world.sim(),
                         "SELECT temperature FROM intSensor DURATION 1 min"),
                client)
            .ok());
    world.RunFor(30s);
    // The pipeline itself is unaffected by the disabled instrumentation.
    EXPECT_EQ(client.items.size(), 1u);
    EXPECT_EQ(device.contory().queries().active_count(), 0u);
  }
  EXPECT_EQ(tracer().spans_started(), 0u);
  const obs::Counter* admitted =
      metrics().FindCounter("queries_admitted_total");
  if (admitted != nullptr) {
    EXPECT_EQ(admitted->value(), 0u);
  }
}

/// Cancels its own query from inside the delivery callback — the
/// reentrancy trap: CancelCxtQuery erases the QueryRecord while an
/// OnFacadeDelivery frame still holds a reference to it.
class CancelingClient : public core::Client {
 public:
  void ReceiveCxtItem(const CxtItem& item) override {
    items.push_back(item);
    if (items.size() == 1 && factory != nullptr) {
      factory->CancelCxtQuery(query_id);
    }
  }
  void InformError(const std::string& msg) override {
    errors.push_back(msg);
  }
  bool MakeDecision(const std::string&) override { return true; }

  core::ContextFactory* factory = nullptr;
  std::string query_id;
  std::vector<CxtItem> items;
  std::vector<std::string> errors;
};

TEST_F(ObsTest, ReentrantCancelClosesSpansExactlyOnce) {
  testbed::World world{92};
  testbed::DeviceOptions opts;
  opts.with_bt = false;
  opts.with_cellular = false;
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);

  CancelingClient client;
  auto q = NewQuery(
               world.sim(),
               "SELECT temperature FROM intSensor DURATION 5 min EVERY 5 sec");
  client.factory = &device.contory();
  client.query_id = q.id;
  const std::string id = q.id;
  ASSERT_TRUE(device.contory().ProcessCxtQuery(std::move(q), client).ok());
  world.RunFor(60s);

  // The cancel took effect at the first delivery and the lifecycle
  // terminated exactly once.
  EXPECT_EQ(client.items.size(), 1u);
  const core::QueryTable& table = device.contory().queries();
  EXPECT_EQ(table.active_count(), 0u);
  EXPECT_EQ(table.invalid_transitions(), 0u);
  int done = 0;
  for (const auto& completion : table.completions()) {
    if (completion.id == id) ++done;
  }
  EXPECT_EQ(done, 1);

  if (!HooksLive()) {
    EXPECT_EQ(tracer().spans_started(), 0u);
    return;
  }

  EXPECT_EQ(tracer().open_count(), 0u);
  EXPECT_EQ(tracer().double_closes(), 0u);
  EXPECT_EQ(CounterValue("queries_cancelled_total"), 1u);
  EXPECT_DOUBLE_EQ(GaugeValue("queries_live"), 0.0);

  std::size_t roots = 0;
  bool cancelled_note = false;
  for (const obs::Span& s : tracer().FinishedFor(id)) {
    if (s.name != "query") continue;
    ++roots;
    for (const std::string& note : s.notes) {
      if (note == "cancelled") cancelled_note = true;
    }
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_TRUE(cancelled_note);
}

TEST_F(ObsTest, RefusedTransitionSurfacesInRegistry) {
  testbed::World world{93};
  testbed::DeviceOptions opts;
  opts.with_bt = false;
  opts.with_cellular = false;
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);

  core::CollectingClient client;
  auto q = NewQuery(
               world.sim(),
               "SELECT temperature FROM intSensor DURATION 5 min EVERY 5 sec");
  const std::string id = q.id;
  ASSERT_TRUE(device.contory().ProcessCxtQuery(std::move(q), client).ok());
  world.RunFor(1s);

  core::QueryRecord* record = device.contory().queries().Find(id);
  ASSERT_NE(record, nullptr);
  ASSERT_EQ(record->state, core::QueryState::kActive);
  // ACTIVE -> ADMITTED is not an edge of the lifecycle state machine.
  EXPECT_FALSE(device.contory().queries().Transition(
      *record, core::QueryState::kAdmitted));
  EXPECT_EQ(record->state, core::QueryState::kActive);  // unchanged
  EXPECT_EQ(device.contory().queries().invalid_transitions(), 1u);

  if (HooksLive()) {
    EXPECT_EQ(CounterValue("query_invalid_transitions_total"), 1u);
  } else {
    EXPECT_EQ(metrics().FindCounter("query_invalid_transitions_total"),
              nullptr);
  }
  device.contory().CancelCxtQuery(id);
}

TEST_F(ObsTest, DegradedLifecycleProducesNestedStageSpans) {
  // The DegradedModeTest acceptance scenario, re-examined through the
  // tracer: healthy GPS provisioning, total mechanism loss, stale-served
  // degraded window, recovery once the radios return.
  testbed::World world{321};
  testbed::DeviceOptions opts;
  opts.name = "phone-A";
  core::ContextFactoryConfig cfg;
  cfg.failover.recovery_probe_period = 15s;
  opts.factory_config = cfg;
  auto& device = world.AddDevice(opts);
  world.AddGps("gps-1", {3, 0});

  core::CollectingClient client;
  auto q = NewQuery(world.sim(), "SELECT location DURATION 20 min EVERY 5 sec");
  const std::string id = q.id;
  ASSERT_TRUE(device.contory().ProcessCxtQuery(std::move(q), client).ok());
  world.RunFor(60s);
  ASSERT_FALSE(client.items.empty());

  ASSERT_TRUE(world.injector()
                  .ExecuteText(
                      "at=60s gps.off gps-1 for=180s\n"
                      "at=80s bt.fail phone-A for=160s\n")
                  .ok());
  world.RunFor(90s);  // t=150s: mid-outage, degraded

  ASSERT_TRUE(device.contory().IsDegraded(id));
  if (HooksLive()) {
    EXPECT_DOUBLE_EQ(GaugeValue("queries_degraded"), 1.0);
    // The 60-80 s window (GPS off, BT still up) lets the recovery probe
    // flap once onto the GPS-less BT stack, so degrade can count twice.
    EXPECT_GE(CounterValue("queries_degraded_total"), 1u);
    EXPECT_GE(CounterValue("provider_failures_total",
                           {{"mechanism", "intSensor"}}),
              1u);
    // The open root recorded the fault windows it lived through.
    const core::QueryRecord* record = device.contory().queries().Find(id);
    ASSERT_NE(record, nullptr);
    const obs::Span* root = tracer().FindOpen(record->obs.root);
    ASSERT_NE(root, nullptr);
    bool saw_gps_fault = false;
    for (const std::string& note : root->notes) {
      if (note == "fault:gps.off:gps-1:on") saw_gps_fault = true;
    }
    EXPECT_TRUE(saw_gps_fault);
  }

  world.RunFor(160s);  // t=310s: recovered
  ASSERT_FALSE(device.contory().IsDegraded(id));

  if (!HooksLive()) {
    EXPECT_EQ(tracer().spans_started(), 0u);
    return;
  }

  EXPECT_DOUBLE_EQ(GaugeValue("queries_degraded"), 0.0);
  EXPECT_GE(CounterValue("degraded_recoveries_total"), 1u);
  EXPECT_EQ(CounterValue("degraded_recoveries_total"),
            CounterValue("queries_degraded_total"));  // every degrade ended
  EXPECT_GE(CounterValue("degraded_deliveries_total"), 1u);

  // The stage spans closed along the way tell the whole story: the
  // intSensor window that died, the failover that found nothing and
  // degraded, and the degraded window that ended in recovery.
  bool provision_failed = false;
  bool failover_degraded = false;
  bool degraded_recovered = false;
  for (const obs::Span& s : tracer().FinishedFor(id)) {
    if (s.name == "provision" && s.mechanism == "intSensor" &&
        s.status.rfind("failed", 0) == 0) {
      provision_failed = true;
    }
    if (s.name == "failover" && s.status == "degraded") {
      failover_degraded = true;
    }
    if (s.name == "degraded" && s.status.rfind("recovered:", 0) == 0) {
      EXPECT_GT(s.items, 0u);  // the stale deliveries landed on this span
      degraded_recovered = true;
    }
  }
  EXPECT_TRUE(provision_failed);
  EXPECT_TRUE(failover_degraded);
  EXPECT_TRUE(degraded_recovered);

  device.contory().CancelCxtQuery(id);
  EXPECT_EQ(tracer().open_count(), 0u);
  EXPECT_EQ(tracer().double_closes(), 0u);
  std::size_t roots = 0;
  for (const obs::Span& s : tracer().FinishedFor(id)) {
    if (s.name == "query") ++roots;
  }
  EXPECT_EQ(roots, 1u);
}

TEST_F(ObsTest, ChaosFaultWindowsLandInMetrics) {
  // The wifi_route_chaos topology: three WiFi-only communicators in a
  // line, remote temperature published on the far one. A warm-up phase
  // fills the querier's repository; then the publisher's radio drops
  // every frame for a while, and finally the querier's own radio fails
  // outright, forcing the subscription into degraded mode.
  testbed::World world{205};
  std::vector<testbed::Device*> devices;
  for (int i = 0; i < 3; ++i) {
    testbed::DeviceOptions opts;
    opts.name = "comm-" + std::to_string(i);
    opts.profile = phone::Nokia9500();
    opts.position = {i * 80.0, 0};
    opts.with_bt = false;
    opts.with_wifi = true;
    opts.with_cellular = false;
    devices.push_back(&world.AddDevice(opts));
  }
  core::CollectingClient pub_client;
  ASSERT_TRUE(devices[2]->contory().RegisterCxtServer(pub_client).ok());
  CxtItem item;
  item.id = "remote-1";
  item.type = vocab::kTemperature;
  item.value = 19.5;
  item.timestamp = world.Now();
  item.metadata.accuracy = 0.2;
  ASSERT_TRUE(devices[2]->contory().PublishCxtItem(item, true).ok());

  core::CollectingClient app;
  auto q = NewQuery(world.sim(),
                    "SELECT temperature FROM adHocNetwork(1,2) "
                    "DURATION 3 min EVERY 15 sec");
  const std::string id = q.id;
  ASSERT_TRUE(devices[0]->contory().ProcessCxtQuery(std::move(q), app).ok());
  world.RunFor(25s);
  ASSERT_FALSE(app.items.empty());  // repository warm before the chaos

  ASSERT_TRUE(world.injector()
                  .ExecuteText(
                      "at=30s wifi.loss comm-2 rate=1.0 for=20s\n"
                      "at=60s wifi.fail comm-0 for=10min\n")
                  .ok());
  world.RunFor(175s);  // t=200s: past the 3 min duration

  const core::QueryTable& table = devices[0]->contory().queries();
  EXPECT_EQ(table.active_count(), 0u);
  EXPECT_EQ(table.invalid_transitions(), 0u);
  EXPECT_GT(devices[0]->contory().degraded_deliveries(), 0u);

  if (!HooksLive()) {
    EXPECT_EQ(tracer().spans_started(), 0u);
    EXPECT_EQ(metrics().FindCounter("faults_injected_total",
                                    {{"kind", "wifi.fail"},
                                     {"phase", "enter"}}),
              nullptr);
    return;
  }

  // Fault windows are visible end to end: injected faults, frames the
  // loss window ate, the provider failure they caused, and the degraded
  // window the query died in.
  EXPECT_EQ(CounterValue("faults_injected_total",
                         {{"kind", "wifi.loss"}, {"phase", "enter"}}),
            1u);
  EXPECT_EQ(CounterValue("faults_injected_total",
                         {{"kind", "wifi.fail"}, {"phase", "enter"}}),
            1u);
  EXPECT_GE(CounterValue("radio_frames_lost_total", {{"radio", "wifi"}}),
            1u);
  EXPECT_GE(CounterValue("radio_tx_frames_total", {{"radio", "wifi"}}), 1u);
  EXPECT_GE(CounterValue("provider_failures_total",
                         {{"mechanism", "adHocNetwork"}}),
            1u);
  EXPECT_EQ(CounterValue("queries_degraded_total"), 1u);
  EXPECT_GE(CounterValue("degraded_deliveries_total"), 1u);
  EXPECT_EQ(CounterValue("queries_completed_total", {{"state", "DEGRADED"}}),
            1u);
  EXPECT_DOUBLE_EQ(GaugeValue("queries_degraded"), 0.0);
  EXPECT_DOUBLE_EQ(GaugeValue("queries_live"), 0.0);
  EXPECT_GE(CounterValue("items_delivered_total",
                         {{"mechanism", "adHocNetwork"}}),
            app.items.size() > 0 ? 1u : 0u);

  // publishCxtItem on the ad hoc transport was timed via obs::Clock.
  const obs::Histogram* publish = metrics().FindHistogram(
      "op_latency_ms", {{"op", "publishCxtItem"},
                        {"mechanism", "adHocNetwork"},
                        {"transport", "wifi"}});
  ASSERT_NE(publish, nullptr);
  EXPECT_GE(publish->count(), 1u);

  EXPECT_EQ(tracer().open_count(), 0u);
  EXPECT_EQ(tracer().double_closes(), 0u);
  std::size_t roots = 0;
  bool degraded_window = false;
  for (const obs::Span& s : tracer().FinishedFor(id)) {
    if (s.name == "query") {
      ++roots;
      EXPECT_EQ(s.status, "DEGRADED");
    }
    if (s.name == "degraded") degraded_window = true;
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_TRUE(degraded_window);
}

TEST_F(ObsTest, ResetForTestLeavesNoRetainedSpansOrFrames) {
  // Tracer calls below go straight at the singleton (no COBS gate), so
  // this holds in the disabled run too: reset must drain every piece of
  // retained observability state — the open-span slot table, the
  // finished deque, and the recorder ring.
  auto& tr = tracer();
  const std::uint64_t root = tr.BeginQuery("q-reset", kSimEpoch);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t stage =
        tr.BeginStage(root, "provision", "intSensor", kSimEpoch);
    ASSERT_NE(tr.EndStage(stage, kSimEpoch, "ok"), nullptr);
  }
  EXPECT_EQ(tr.slot_count(), 2u);
  EXPECT_EQ(tr.open_count(), 1u);

  obs::RecorderConfig config;
  config.capacity = 4;
  obs::Observability::recorder().Configure(std::move(config));
  metrics().GetCounter("reset_probe_total").Inc();
  obs::Observability::recorder().Sample(kSimEpoch + 1s);
  ASSERT_FALSE(obs::Observability::recorder().frames().empty());

  obs::Observability::ResetForTest();
  EXPECT_EQ(tr.open_count(), 0u);
  EXPECT_EQ(tr.slot_count(), 0u);
  EXPECT_TRUE(tr.finished().empty());
  EXPECT_EQ(tr.spans_started(), 0u);
  EXPECT_EQ(tr.spans_dropped(), 0u);
  EXPECT_TRUE(obs::Observability::recorder().frames().empty());
  EXPECT_EQ(obs::Observability::recorder().samples_total(), 0u);
  // The stale pre-reset handle is a no-op, not a double close.
  EXPECT_EQ(tr.FindOpen(root), nullptr);
  tr.AddNote(root, "late");
  EXPECT_EQ(tr.EndQuery(root, kSimEpoch + 2s, "late"), nullptr);
  EXPECT_EQ(tr.double_closes(), 0u);
}

// --- Span item counts ------------------------------------------------------
// The router counts items in the query's record, and each span gets its
// count when it closes. These scenarios check every closed span's count
// against what the client received (the root counts every item handed
// over, each provision or degraded span the items delivered while it was
// open) and pin the whole list: the same lists came out when the router
// still added each item to its open spans as it went.

/// One closed span of a query, as the count checks compare it.
struct SpanCount {
  std::string name;
  std::string mechanism;
  std::string status;
  std::uint64_t items = 0;

  friend bool operator==(const SpanCount&, const SpanCount&) = default;
};

void PrintTo(const SpanCount& s, std::ostream* os) {
  *os << "{" << s.name << ", " << s.mechanism << ", \"" << s.status << "\", "
      << s.items << "}";
}

class SpanItemCountTest : public ObsTest {
 protected:
  /// The query's closed spans, in closing order.
  static std::vector<SpanCount> Counts(const std::string& id) {
    std::vector<SpanCount> out;
    for (const obs::Span& s : tracer().FinishedFor(id)) {
      out.push_back(SpanCount{s.name, s.mechanism, s.status, s.items});
    }
    return out;
  }

  /// Items received per source kind; stale ones under "degraded".
  static std::map<std::string, std::uint64_t> ReceivedBySource(
      const core::CollectingClient& client) {
    std::map<std::string, std::uint64_t> out;
    for (const CxtItem& item : client.items) {
      ++out[item.metadata.staleness_seconds.has_value()
                ? std::string("degraded")
                : std::string(SourceKindName(item.source.kind))];
    }
    return out;
  }

  /// The root counts every item the client received; the stage spans
  /// split the same items among themselves.
  static void ExpectRootAndStagesAgree(const std::vector<SpanCount>& counts,
                                       const core::CollectingClient& client) {
    std::uint64_t stages = 0;
    std::size_t roots = 0;
    for (const SpanCount& s : counts) {
      if (s.name == "query") {
        ++roots;
        EXPECT_EQ(s.items, client.items.size());
      } else {
        stages += s.items;
      }
    }
    EXPECT_EQ(roots, 1u);
    EXPECT_EQ(stages, client.items.size());
    EXPECT_EQ(tracer().open_count(), 0u);
    EXPECT_EQ(tracer().double_closes(), 0u);
  }

  /// Sum of the items of the spans named `name` for `mechanism`.
  static std::uint64_t Items(const std::vector<SpanCount>& counts,
                             const std::string& name,
                             const std::string& mechanism) {
    std::uint64_t n = 0;
    for (const SpanCount& s : counts) {
      if (s.name == name && s.mechanism == mechanism) n += s.items;
    }
    return n;
  }
};

CxtItem SharedTemperature(testbed::World& world, const std::string& id,
                          double value) {
  CxtItem item;
  item.id = id;
  item.type = vocab::kTemperature;
  item.value = value;
  item.timestamp = world.Now();
  return item;
}

TEST_F(SpanItemCountTest, MultiSourceQueryCountsEachItemOnce) {
  // The same reading reaches the query over BT from a neighbor and from
  // the infrastructure: the second copy is dropped by the cross-mechanism
  // dedup and counted nowhere.
  testbed::World world{207};
  testbed::DeviceOptions opts;
  opts.name = "requester";
  opts.infra_address = "infra.dynamos.fi";
  auto& device = world.AddDevice(opts);
  auto& server = world.AddContextServer("infra.dynamos.fi");
  const CxtItem shared = SharedTemperature(world, "shared-1", 14.0);
  server.StoreDirect({shared, "neighbor", std::nullopt});
  server.StoreDirect(
      {SharedTemperature(world, "infra-only", 21.0), "boat-2", std::nullopt});
  testbed::DeviceOptions pub_opts;
  pub_opts.name = "neighbor";
  pub_opts.position = {5, 0};
  auto& neighbor = world.AddDevice(pub_opts);
  core::CollectingClient pub_client;
  ASSERT_TRUE(neighbor.contory().RegisterCxtServer(pub_client).ok());
  ASSERT_TRUE(neighbor.contory().PublishCxtItem(shared, true).ok());

  core::CollectingClient client;
  auto q = NewQuery(world.sim(),
                    "SELECT temperature FROM adHocNetwork, extInfra "
                    "DURATION 2 min EVERY 20 sec");
  const std::string id = q.id;
  ASSERT_TRUE(device.contory().ProcessCxtQuery(std::move(q), client).ok());
  world.RunFor(3min);

  std::size_t shared_copies = 0;
  for (const CxtItem& item : client.items) {
    if (item.id == "shared-1") ++shared_copies;
  }
  EXPECT_EQ(shared_copies, 1u);
  ASSERT_GE(client.items.size(), 2u);
  if (!HooksLive()) {
    EXPECT_EQ(tracer().spans_started(), 0u);
    return;
  }
  const auto counts = Counts(id);
  ExpectRootAndStagesAgree(counts, client);
  auto received = ReceivedBySource(client);
  EXPECT_EQ(Items(counts, "provision", "adHocNetwork"),
            received["adHocNetwork"]);
  EXPECT_EQ(Items(counts, "provision", "extInfra"), received["extInfra"]);
  EXPECT_EQ(counts, (std::vector<SpanCount>{
                        {"provision", "extInfra", "ok", 1},
                        {"provision", "adHocNetwork", "ok", 1},
                        {"query", "", "ACTIVE", 2},
                    }));
}

TEST_F(SpanItemCountTest, FailoverSplitsItemsBetweenProvisionSpans) {
  // The internal temperature sensor fails; the query moves to the
  // infrastructure, and each mechanism's span counts its own items.
  testbed::World world{511};
  testbed::DeviceOptions opts;
  opts.name = "phone-A";
  opts.with_bt = false;
  opts.infra_address = "infra.fi";
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);
  auto& server = world.AddContextServer("infra.fi");
  server.StoreDirect(
      {SharedTemperature(world, "remote-1", 19.0), "remote", std::nullopt});
  world.RunFor(5s);

  core::CollectingClient client;
  auto q = NewQuery(world.sim(),
                    "SELECT temperature DURATION 4 min EVERY 10 sec");
  const std::string id = q.id;
  ASSERT_TRUE(device.contory().ProcessCxtQuery(std::move(q), client).ok());
  ASSERT_TRUE(world.injector()
                  .ExecuteText("at=60s sensor.fail temperature@phone-A\n")
                  .ok());
  world.RunFor(5min);

  auto received = ReceivedBySource(client);
  ASSERT_GT(received["intSensor"], 0u);
  ASSERT_GT(received["extInfra"], 0u);
  if (!HooksLive()) {
    EXPECT_EQ(tracer().spans_started(), 0u);
    return;
  }
  const auto counts = Counts(id);
  ExpectRootAndStagesAgree(counts, client);
  EXPECT_EQ(Items(counts, "provision", "intSensor"), received["intSensor"]);
  EXPECT_EQ(Items(counts, "provision", "extInfra"), received["extInfra"]);
  const std::string sensor_failed =
      "failed: UNAVAILABLE: sensor 'env:temperature@phone-A' failed";
  std::vector<SpanCount> expected = {
      {"provision", "intSensor", sensor_failed, 6},
      {"failover", "intSensor", "switched:extInfra", 0}};
  // The switch-back probe finds the sensor present and closes the
  // extInfra window; the sensor fails again, and extInfra opens a new
  // one.
  for (int i = 0; i < 5; ++i) {
    expected.push_back({"provision", "extInfra", "switched-back:intSensor", 2});
    expected.push_back({"provision", "intSensor", sensor_failed, 0});
    expected.push_back({"failover", "intSensor", "switched:extInfra", 0});
  }
  expected.push_back({"provision", "extInfra", "ok", 2});
  expected.push_back({"query", "", "ACTIVE", 18});
  EXPECT_EQ(counts, expected);
}

TEST_F(SpanItemCountTest, DegradedEpisodeCountsStaleItems) {
  // GPS provisioning, then every mechanism lost: stale repository items
  // land on the degraded span until the radios return.
  testbed::World world{321};
  testbed::DeviceOptions opts;
  opts.name = "phone-A";
  core::ContextFactoryConfig cfg;
  cfg.failover.recovery_probe_period = 15s;
  opts.factory_config = cfg;
  auto& device = world.AddDevice(opts);
  world.AddGps("gps-1", {3, 0});

  core::CollectingClient client;
  auto q = NewQuery(world.sim(), "SELECT location DURATION 8 min EVERY 5 sec");
  const std::string id = q.id;
  ASSERT_TRUE(device.contory().ProcessCxtQuery(std::move(q), client).ok());
  world.RunFor(60s);
  ASSERT_TRUE(world.injector()
                  .ExecuteText("at=60s gps.off gps-1 for=180s\n"
                               "at=80s bt.fail phone-A for=160s\n")
                  .ok());
  world.RunFor(8min);

  auto received = ReceivedBySource(client);
  ASSERT_GT(received["degraded"], 0u);
  if (!HooksLive()) {
    EXPECT_EQ(tracer().spans_started(), 0u);
    return;
  }
  const auto counts = Counts(id);
  ExpectRootAndStagesAgree(counts, client);
  EXPECT_EQ(Items(counts, "degraded", ""), received["degraded"]);
  EXPECT_EQ(
      counts,
      (std::vector<SpanCount>{
          {"provision", "intSensor",
           "failed: UNAVAILABLE: BT-GPS 'gps-1' disconnected", 9},
          {"failover", "intSensor", "switched:adHocNetwork", 0},
          {"provision", "adHocNetwork",
           "failed: NOT_FOUND: no BT peers publish 'location'", 0},
          {"failover", "adHocNetwork", "degraded", 0},
          {"degraded", "", "recovered:intSensor", 3},
          {"provision", "intSensor",
           "failed: UNAVAILABLE: bluetooth radio switched off during inquiry",
           0},
          {"failover", "intSensor", "degraded", 0},
          {"degraded", "", "recovered:intSensor", 33},
          {"provision", "intSensor", "ok", 42},
          {"query", "", "ACTIVE", 87},
      }));
}

TEST_F(SpanItemCountTest, NotAssignedSpanClosesEmpty) {
  // The query's provider fails at the very instant its window ends
  // (the failure event was scheduled first): failover hands the next
  // mechanism a zero DURATION, which the facade refuses, so its
  // provision span closes "not-assigned"; the query degrades and
  // finishes at its deadline.
  testbed::World world{733};
  testbed::DeviceOptions opts;
  opts.name = "phone-A";
  opts.infra_address = "infra.fi";
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);
  world.AddContextServer("infra.fi");
  core::ContextFactory& factory = device.contory();

  core::CollectingClient client;
  auto q = NewQuery(world.sim(),
                    "SELECT temperature FROM intSensor DURATION 1 min "
                    "EVERY 10 sec");
  const std::string id = q.id;
  world.sim().ScheduleAfter(1min, [&factory] {
    factory.facade(query::SourceSel::kIntSensor)
        .StopAll(Unavailable("sensor lost"));
  });
  ASSERT_TRUE(factory.ProcessCxtQuery(std::move(q), client).ok());
  world.RunFor(2min);

  EXPECT_EQ(factory.queries().active_count(), 0u);
  auto received = ReceivedBySource(client);
  ASSERT_GT(received["intSensor"], 0u);
  if (!HooksLive()) {
    EXPECT_EQ(tracer().spans_started(), 0u);
    return;
  }
  const auto counts = Counts(id);
  ExpectRootAndStagesAgree(counts, client);
  bool not_assigned = false;
  for (const SpanCount& s : counts) {
    if (s.status == "not-assigned") {
      not_assigned = true;
      EXPECT_EQ(s.items, 0u);
    }
  }
  EXPECT_TRUE(not_assigned);
  EXPECT_EQ(counts,
            (std::vector<SpanCount>{
                {"provision", "intSensor", "failed: UNAVAILABLE: sensor lost",
                 6},
                {"provision", "adHocNetwork", "not-assigned", 0},
                {"provision", "extInfra", "not-assigned", 0},
                {"failover", "intSensor", "degraded", 0},
                {"degraded", "", "closed-at-finish", 1},
                {"query", "", "DEGRADED", 7},
            }));
}

TEST_F(SpanItemCountTest, FusedQueryCountsOnlyFusedProducts) {
  // A fused extInfra query polls an unchanged reading: the router counts
  // each poll as a delivery, but the fusion window absorbs every repeat,
  // so the spans count only what reached the client.
  testbed::World world{902};
  testbed::DeviceOptions opts;
  opts.name = "requester";
  opts.with_bt = false;
  opts.infra_address = "infra.fi";
  auto& device = world.AddDevice(opts);
  auto& server = world.AddContextServer("infra.fi");
  server.StoreDirect(
      {SharedTemperature(world, "remote-1", 19.0), "remote", std::nullopt});

  core::CollectingClient client;
  auto q = NewQuery(world.sim(),
                    "SELECT temperature FROM extInfra DURATION 3 min "
                    "EVERY 20 sec");
  const std::string id = q.id;
  ASSERT_TRUE(device.contory().ProcessCxtQuery(std::move(q), client).ok());
  ASSERT_TRUE(device.contory().EnableFusion(id).ok());
  world.RunFor(2min);
  // The repeats passed the router's dedup (one mechanism re-delivering
  // is a new round) and were absorbed by the fusion window.
  const core::QueryRecord* record = device.contory().queries().Find(id);
  ASSERT_NE(record, nullptr);
  EXPECT_GT(record->items_delivered, client.items.size());
  world.RunFor(2min);

  ASSERT_FALSE(client.items.empty());
  if (!HooksLive()) {
    EXPECT_EQ(tracer().spans_started(), 0u);
    return;
  }
  const auto counts = Counts(id);
  ExpectRootAndStagesAgree(counts, client);
  EXPECT_EQ(Items(counts, "provision", "extInfra"), client.items.size());
  EXPECT_EQ(counts, (std::vector<SpanCount>{
                        {"provision", "extInfra", "ok", 1},
                        {"query", "", "ACTIVE", 1},
                    }));
}

}  // namespace
}  // namespace contory
