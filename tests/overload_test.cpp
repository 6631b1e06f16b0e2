// OverloadGovernor tests: the admission-side overload-protection tier.
// Per-client token buckets (sim-clock deterministic), 3-level priority
// shedding, the stale-answer fast path into degraded mode, and 100k
// submits under shedding with a coherent lifecycle ledger. Watermark
// hysteresis and the reduceLoad rule hook are the
// overload_shed_then_retry and reduce_load_policy .scn cases.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/contory.hpp"
#include "obs/observability.hpp"
#include "testbed/testbed.hpp"

namespace contory {
namespace {

using namespace std::chrono_literals;

/// A temperature query of the given class; periodic unless on_demand.
query::CxtQuery TempQuery(sim::Simulation& sim, query::QueryPriority cls,
                          bool on_demand = false) {
  auto builder = query::QueryBuilder(vocab::kTemperature);
  builder.FromIntSensor().For(60min).Priority(cls);
  if (!on_demand) builder.Every(1min);
  auto q = builder.Build();
  q.id = sim.ids().NextId("q");
  return q;
}

testbed::DeviceOptions GovernedOptions() {
  testbed::DeviceOptions opts;
  opts.with_bt = false;
  opts.with_cellular = false;
  opts.internal_sensors = {vocab::kTemperature};
  // These tests count occupancy query-by-query; merged records would
  // fold identical SELECTs into one.
  opts.factory_config.enable_query_merging = false;
  return opts;
}

CxtItem WarmItem(sim::Simulation& sim, const std::string& type) {
  CxtItem item;
  item.id = sim.ids().NextId("seed");
  item.type = type;
  item.value = CxtValue(21.5);
  item.timestamp = sim.Now();
  item.source = {SourceKind::kIntSensor, "seed"};
  return item;
}

class OverloadWorldTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::Observability::ResetForTest(); }
  void TearDown() override { obs::Observability::ResetForTest(); }
};

// --- Query-language surface -------------------------------------------------

TEST(OverloadQueryTest, PriorityClauseParsesPrintsAndSerializes) {
  auto q = query::ParseQuery(
      "SELECT temperature FROM intSensor DURATION 5 min EVERY 1 min "
      "PRIORITY interactive");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->priority, query::QueryPriority::kInteractive);

  // Unannotated queries default to standard, and standard stays silent
  // in the textual form (old round-trips unchanged).
  auto plain = query::ParseQuery(
      "SELECT temperature FROM intSensor DURATION 5 min EVERY 1 min");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->priority, query::QueryPriority::kStandard);
  EXPECT_EQ(plain->ToString().find("PRIORITY"), std::string::npos);

  // ToString round-trip keeps the class.
  const std::string text = q->ToString();
  EXPECT_NE(text.find("PRIORITY interactive"), std::string::npos);
  auto reparsed = query::ParseQuery(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->priority, query::QueryPriority::kInteractive);

  // Wire round-trip keeps the class.
  q->id = "q-1";
  auto wire = q->Serialize();
  auto decoded = query::CxtQuery::Deserialize(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->priority, query::QueryPriority::kInteractive);

  EXPECT_FALSE(query::ParseQuery(
                   "SELECT temperature FROM intSensor DURATION 5 min "
                   "EVERY 1 min PRIORITY urgent")
                   .ok());
}

TEST(OverloadQueryTest, BuilderSetsPriority) {
  const auto q = query::QueryBuilder(vocab::kTemperature)
                     .FromIntSensor()
                     .For(5min)
                     .Every(1min)
                     .Priority(query::QueryPriority::kBackground)
                     .Build();
  EXPECT_EQ(q.priority, query::QueryPriority::kBackground);
}

// --- Token buckets ----------------------------------------------------------

TEST_F(OverloadWorldTest, TokenBucketRefillIsDeterministicAcrossSeeds) {
  std::vector<double> hints;
  for (const unsigned seed : {41u, 4242u}) {
    testbed::World world{seed};
    testbed::DeviceOptions opts = GovernedOptions();
    opts.factory_config.overload.admit_rate_per_s = 1.0;
    opts.factory_config.overload.admit_burst = 2.0;
    auto& device = world.AddDevice(opts);
    core::CollectingClient client;

    // Burst of two admits, then the bucket is dry.
    ASSERT_TRUE(device.contory()
                    .ProcessCxtQuery(
                        TempQuery(world.sim(),
                                  query::QueryPriority::kStandard),
                        client)
                    .ok());
    ASSERT_TRUE(device.contory()
                    .ProcessCxtQuery(
                        TempQuery(world.sim(),
                                  query::QueryPriority::kStandard),
                        client)
                    .ok());
    const auto refused = device.contory().ProcessCxtQuery(
        TempQuery(world.sim(), query::QueryPriority::kStandard), client);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kOverloaded);
    const double hint = core::OverloadGovernor::ParseRetryAfterSeconds(
        refused.status().message());
    EXPECT_GT(hint, 0.0);
    hints.push_back(hint);
    EXPECT_LT(device.contory().overload().TokensFor(client), 1.0);

    // Sim time is the only refill source: waiting out the hint restores
    // exactly enough budget for one more admission.
    world.RunFor(std::chrono::duration_cast<SimDuration>(
        std::chrono::duration<double>(hint)));
    EXPECT_TRUE(device.contory()
                    .ProcessCxtQuery(
                        TempQuery(world.sim(),
                                  query::QueryPriority::kStandard),
                        client)
                    .ok());
  }
  ASSERT_EQ(hints.size(), 2u);
  EXPECT_DOUBLE_EQ(hints[0], hints[1]);  // seed-independent
}

TEST_F(OverloadWorldTest, RateLimitedClientDoesNotStarveOthers) {
  testbed::World world{42};
  testbed::DeviceOptions opts = GovernedOptions();
  opts.factory_config.overload.admit_rate_per_s = 1.0;
  opts.factory_config.overload.admit_burst = 1.0;
  auto& device = world.AddDevice(opts);
  core::CollectingClient noisy;
  core::CollectingClient quiet;

  ASSERT_TRUE(device.contory()
                  .ProcessCxtQuery(
                      TempQuery(world.sim(),
                                query::QueryPriority::kStandard),
                      noisy)
                  .ok());
  const auto refused = device.contory().ProcessCxtQuery(
      TempQuery(world.sim(), query::QueryPriority::kStandard), noisy);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kOverloaded);
  EXPECT_NE(refused.status().message().find("budget exhausted"),
            std::string::npos);

  // The noisy client drained only its own bucket.
  EXPECT_TRUE(device.contory()
                  .ProcessCxtQuery(
                      TempQuery(world.sim(),
                                query::QueryPriority::kStandard),
                      quiet)
                  .ok());
}

// --- Watermark shedding -----------------------------------------------------

TEST_F(OverloadWorldTest, WatermarksShedBackgroundThenStandardNeverInteractive) {
  testbed::World world{43};
  testbed::DeviceOptions opts = GovernedOptions();
  opts.factory_config.overload.shed_high_watermark = 4;
  opts.factory_config.overload.shed_standard_watermark = 8;
  opts.factory_config.overload.stale_fast_path = false;
  auto& device = world.AddDevice(opts);
  core::CollectingClient client;
  auto& factory = device.contory();

  const auto submit = [&](query::QueryPriority cls) {
    return factory.ProcessCxtQuery(TempQuery(world.sim(), cls), client);
  };

  // Below the high watermark everything admits.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(submit(query::QueryPriority::kBackground).ok());
  }
  // Occupancy 4 >= high: background sheds, standard and interactive pass.
  const auto bg = submit(query::QueryPriority::kBackground);
  ASSERT_FALSE(bg.ok());
  EXPECT_EQ(bg.status().code(), StatusCode::kOverloaded);
  EXPECT_NE(bg.status().message().find("background"), std::string::npos);
  EXPECT_NE(bg.status().message().find("retry after"), std::string::npos);
  EXPECT_TRUE(submit(query::QueryPriority::kStandard).ok());
  EXPECT_TRUE(submit(query::QueryPriority::kInteractive).ok());

  // Grow occupancy to the standard watermark: standard sheds too.
  while (factory.queries().active_count() < 8) {
    ASSERT_TRUE(submit(query::QueryPriority::kStandard).ok());
  }
  const auto std_refused = submit(query::QueryPriority::kStandard);
  ASSERT_FALSE(std_refused.ok());
  EXPECT_EQ(std_refused.status().code(), StatusCode::kOverloaded);
  // Interactive always admits.
  EXPECT_TRUE(submit(query::QueryPriority::kInteractive).ok());

  if (COBS_ON()) {
    auto& metrics = obs::Observability::metrics();
    EXPECT_GE(metrics
                  .GetCounter("admission_shed_total",
                              {{"class", "background"}})
                  .value(),
              1u);
    EXPECT_GE(metrics
                  .GetCounter("admission_shed_total", {{"class", "standard"}})
                  .value(),
              1u);
    EXPECT_EQ(metrics
                  .GetCounter("admission_shed_total",
                              {{"class", "interactive"}})
                  .value(),
              0u);
  }
}

// --- Stale-answer fast path -------------------------------------------------

TEST_F(OverloadWorldTest, StaleFastPathServesWarmRepositoryWithStaleness) {
  testbed::World world{46};
  testbed::DeviceOptions opts = GovernedOptions();
  opts.factory_config.overload.shed_high_watermark = 1;
  auto& device = world.AddDevice(opts);
  core::CollectingClient client;
  auto& factory = device.contory();

  factory.repository().Store(WarmItem(world.sim(), vocab::kTemperature));
  ASSERT_TRUE(factory
                  .ProcessCxtQuery(TempQuery(world.sim(),
                                             query::QueryPriority::
                                                 kStandard),
                                   client)
                  .ok());
  world.RunFor(10s);  // age the repository entry (still < 30 s max age)

  // A shed on-demand background query with a warm repository entry is
  // answered stale-first instead of refused: one delivery, staleness
  // metadata set, record finished on the spot.
  const std::size_t live_before = factory.queries().active_count();
  const std::size_t items_before = client.items.size();
  const auto id = factory.ProcessCxtQuery(
      TempQuery(world.sim(), query::QueryPriority::kBackground,
                /*on_demand=*/true),
      client);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(factory.queries().active_count(), live_before);
  ASSERT_GT(client.items.size(), items_before);
  const CxtItem& answer = client.items.back();
  EXPECT_EQ(answer.type, vocab::kTemperature);
  ASSERT_TRUE(answer.metadata.staleness_seconds.has_value());
  EXPECT_GT(*answer.metadata.staleness_seconds, 0.0);
  EXPECT_GE(factory.degraded_deliveries(), 1u);

  if (COBS_ON()) {
    auto& metrics = obs::Observability::metrics();
    EXPECT_EQ(
        metrics.GetCounter("admission_stale_fastpath_total").value(), 1u);
    // The root span carries the shed-decision annotation.
    bool noted = false;
    for (const auto& span :
         obs::Observability::tracer().FinishedFor(*id)) {
      for (const auto& note : span.notes) {
        if (note == "shed:stale-fastpath") noted = true;
      }
    }
    EXPECT_TRUE(noted);
  }
}

TEST_F(OverloadWorldTest, StaleFastPathKeepsPeriodicQueriesDegraded) {
  testbed::World world{47};
  testbed::DeviceOptions opts = GovernedOptions();
  opts.factory_config.overload.shed_high_watermark = 1;
  auto& device = world.AddDevice(opts);
  core::CollectingClient client;
  auto& factory = device.contory();

  factory.repository().Store(WarmItem(world.sim(), vocab::kTemperature));
  ASSERT_TRUE(factory
                  .ProcessCxtQuery(TempQuery(world.sim(),
                                             query::QueryPriority::
                                                 kStandard),
                                   client)
                  .ok());

  const auto id = factory.ProcessCxtQuery(
      TempQuery(world.sim(), query::QueryPriority::kBackground), client);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(factory.IsDegraded(*id));
  EXPECT_GE(factory.degraded_deliveries(), 1u);

  // The record entered through the degraded door but the sensor is
  // live, so the standard recovery probe pulls it back to real
  // provisioning — degraded-at-admission is a full failover citizen.
  const std::size_t items_before = client.items.size();
  world.RunFor(3min);
  EXPECT_FALSE(factory.IsDegraded(*id));
  EXPECT_GT(client.items.size(), items_before);
  factory.CancelCxtQuery(*id);
}

TEST_F(OverloadWorldTest, ColdTypesAreRefusedNotDegraded) {
  testbed::World world{48};
  testbed::DeviceOptions opts = GovernedOptions();
  opts.factory_config.overload.shed_high_watermark = 1;
  auto& device = world.AddDevice(opts);
  core::CollectingClient client;
  auto& factory = device.contory();

  ASSERT_TRUE(factory
                  .ProcessCxtQuery(TempQuery(world.sim(),
                                             query::QueryPriority::
                                                 kStandard),
                                   client)
                  .ok());
  // "humidity" has no repository entry (only the temperature sensor is
  // warming the cache), so this shed must stay a refusal.
  auto cold = query::QueryBuilder("humidity")
                  .FromIntSensor()
                  .For(60min)
                  .Every(1min)
                  .Priority(query::QueryPriority::kBackground)
                  .Build();
  cold.id = world.sim().ids().NextId("q");
  const auto refused = factory.ProcessCxtQuery(std::move(cold), client);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kOverloaded);
  EXPECT_EQ(factory.degraded_deliveries(), 0u);
}

// --- Submit storm -----------------------------------------------------------

std::vector<query::CxtQuery> MixedQueries(sim::Simulation& sim, int n) {
  std::vector<query::CxtQuery> batch;
  batch.reserve(n);
  for (int i = 0; i < n; ++i) {
    const auto cls = static_cast<query::QueryPriority>(
        i % 5 == 0 ? 0 : (i % 5 <= 2 ? 1 : 2));
    // Every tenth query is an on-demand background query.
    const bool warm = i % 10 == 3;
    batch.push_back(TempQuery(sim, warm ? query::QueryPriority::kBackground
                                        : cls,
                              /*on_demand=*/warm));
  }
  return batch;
}

// The acceptance-scale run: 100k mixed-priority submits against armed
// watermarks — the lifecycle ledger must stay coherent and no span may
// leak.
TEST_F(OverloadWorldTest, HundredKSubmitsUnderSheddingStayCoherent) {
  constexpr int kN = 100'000;
  testbed::World world{909};
  testbed::DeviceOptions opts = GovernedOptions();
  opts.factory_config.overload.shed_high_watermark = 20'000;
  opts.factory_config.overload.shed_standard_watermark = 50'000;
  // Refusals, not degrades: with the live sensor warming the repository
  // the fast path would admit everything and shed nothing.
  opts.factory_config.overload.stale_fast_path = false;
  auto& device = world.AddDevice(opts);
  core::CollectingClient client;
  auto& factory = device.contory();

  std::vector<query::CxtQuery> queries = MixedQueries(world.sim(), kN);
  std::vector<std::string> ids;
  std::size_t shed = 0;
  for (int i = 0; i < kN; ++i) {
    const auto r = factory.ProcessCxtQuery(std::move(queries[i]), client);
    if (r.ok()) {
      ids.push_back(*r);
    } else {
      ASSERT_EQ(r.status().code(), StatusCode::kOverloaded)
          << r.status().ToString();
      // Interactive (every 5th index, unless warm-overridden) never
      // sheds.
      ASSERT_NE(i % 5, 0) << "interactive query shed at index " << i;
      ++shed;
    }
  }
  EXPECT_GT(shed, 0u);

  const core::QueryTable& table = factory.queries();
  EXPECT_EQ(table.invalid_transitions(), 0u);
  EXPECT_EQ(table.total_admitted(),
            table.total_completed() + table.active_count());

  for (const auto& id : ids) factory.CancelCxtQuery(id);
  EXPECT_EQ(table.active_count(), 0u);
  EXPECT_EQ(table.invalid_transitions(), 0u);
  EXPECT_EQ(table.total_admitted(), table.total_completed());
  if (COBS_ON()) {
    EXPECT_EQ(obs::Observability::tracer().open_count(), 0u);
    EXPECT_EQ(obs::Observability::tracer().double_closes(), 0u);
  }
}

}  // namespace
}  // namespace contory
