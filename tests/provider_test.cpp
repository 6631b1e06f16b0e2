// Unit tests for the CxtProvider base machinery (filtering, event
// windowing, sample counting) via a scripted fake provider, plus
// LocalCxtProvider against the testbed.
#include <gtest/gtest.h>

#include "core/model/vocabulary.hpp"
#include "core/providers/local_provider.hpp"
#include "core/providers/provider.hpp"
#include "core/query/parser.hpp"
#include "testbed/testbed.hpp"

namespace contory::core {
namespace {

using namespace std::chrono_literals;
using testbed::NewQuery;

/// Provider whose transport is the test body: items are pushed in
/// manually with Push().
class FakeProvider final : public CxtProvider {
 public:
  using CxtProvider::CxtProvider;
  query::SourceSel kind() const noexcept override {
    return query::SourceSel::kIntSensor;
  }
  const char* transport() const noexcept override { return "fake"; }
  void Push(CxtItem item) { Offer(std::move(item)); }
  void PushPreEvaluated(CxtItem item) { OfferPreEvaluated(std::move(item)); }
  void ForceFail(Status s) { Fail(std::move(s)); }
  void ForceComplete() { CompleteOk(); }

 protected:
  void DoStart() override {}
  void DoStop() override {}
};

CxtItem Item(sim::Simulation& sim, const std::string& type, double value,
             double accuracy = 0.2) {
  CxtItem item;
  item.id = sim.ids().NextId("item");
  item.type = type;
  item.value = value;
  item.timestamp = sim.Now();
  item.metadata.accuracy = accuracy;
  return item;
}

struct Harness {
  explicit Harness(sim::Simulation& sim, const std::string& query_text)
      : sim(sim) {
    CxtProvider::Callbacks callbacks;
    callbacks.deliver = [this](const CxtItem& item) {
      delivered.push_back(item);
    };
    callbacks.finished = [this](Status s) {
      finished = true;
      final_status = std::move(s);
    };
    provider = std::make_unique<FakeProvider>(sim, NewQuery(sim, query_text),
                                              std::move(callbacks));
  }
  sim::Simulation& sim;
  std::unique_ptr<FakeProvider> provider;
  std::vector<CxtItem> delivered;
  bool finished = false;
  Status final_status;
};

TEST(ProviderBaseTest, DeliversMatchingItems) {
  sim::Simulation sim;
  Harness h{sim, "SELECT temperature DURATION 1 hour EVERY 10 sec"};
  h.provider->Start();
  h.provider->Push(Item(sim, "temperature", 14.0));
  EXPECT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.provider->items_delivered(), 1u);
}

TEST(ProviderBaseTest, FiltersWrongType) {
  sim::Simulation sim;
  Harness h{sim, "SELECT temperature DURATION 1 hour EVERY 10 sec"};
  h.provider->Start();
  h.provider->Push(Item(sim, "wind", 5.0));
  EXPECT_TRUE(h.delivered.empty());
  EXPECT_EQ(h.provider->items_offered(), 1u);
}

TEST(ProviderBaseTest, AppliesWhere) {
  sim::Simulation sim;
  Harness h{sim,
            "SELECT temperature WHERE accuracy<=0.3 DURATION 1 hour "
            "EVERY 10 sec"};
  h.provider->Start();
  h.provider->Push(Item(sim, "temperature", 14.0, 0.2));
  h.provider->Push(Item(sim, "temperature", 15.0, 0.9));
  EXPECT_EQ(h.delivered.size(), 1u);
}

TEST(ProviderBaseTest, AppliesFreshness) {
  sim::Simulation sim;
  Harness h{sim,
            "SELECT temperature FRESHNESS 10 sec DURATION 1 hour "
            "EVERY 10 sec"};
  h.provider->Start();
  auto stale = Item(sim, "temperature", 14.0);
  sim.RunFor(30s);
  h.provider->Push(stale);
  EXPECT_TRUE(h.delivered.empty());
  h.provider->Push(Item(sim, "temperature", 15.0));
  EXPECT_EQ(h.delivered.size(), 1u);
}

TEST(ProviderBaseTest, TimeDurationIsLeftToTheQueryRecord) {
  // A provider serves a cluster, not a query: each original expires on
  // its own record's clock, so the provider runs until it is stopped.
  sim::Simulation sim;
  Harness h{sim, "SELECT temperature DURATION 1 min EVERY 10 sec"};
  h.provider->Start();
  sim.RunFor(2min);
  EXPECT_FALSE(h.finished);
  h.provider->Push(Item(sim, "temperature", 1.0));
  EXPECT_EQ(h.delivered.size(), 1u);
}

TEST(ProviderBaseTest, DurationSamplesCompletes) {
  sim::Simulation sim;
  Harness h{sim, "SELECT temperature DURATION 3 samples EVERY 10 sec"};
  h.provider->Start();
  for (int i = 0; i < 5; ++i) {
    h.provider->Push(Item(sim, "temperature", i));
  }
  EXPECT_TRUE(h.finished);
  EXPECT_TRUE(h.final_status.ok());
  EXPECT_EQ(h.delivered.size(), 3u);  // stops exactly at the target
}

TEST(ProviderBaseTest, EventGatesDelivery) {
  sim::Simulation sim;
  Harness h{sim,
            "SELECT temperature DURATION 1 hour "
            "EVENT AVG(temperature)>25"};
  h.provider->Start();
  h.provider->Push(Item(sim, "temperature", 20.0));
  h.provider->Push(Item(sim, "temperature", 24.0));
  EXPECT_TRUE(h.delivered.empty());  // avg 22
  h.provider->Push(Item(sim, "temperature", 40.0));
  EXPECT_EQ(h.delivered.size(), 1u);  // avg 28 fires
  EXPECT_DOUBLE_EQ(h.delivered[0].value.AsNumber().value(), 40.0);
}

TEST(ProviderBaseTest, PreEvaluatedBypassesEventWindow) {
  sim::Simulation sim;
  Harness h{sim,
            "SELECT temperature DURATION 1 hour "
            "EVENT AVG(temperature)>25"};
  h.provider->Start();
  h.provider->PushPreEvaluated(Item(sim, "temperature", 5.0));
  EXPECT_EQ(h.delivered.size(), 1u);  // server already decided
}

TEST(ProviderBaseTest, FailureReportsOnce) {
  sim::Simulation sim;
  Harness h{sim, "SELECT temperature DURATION 1 hour EVERY 10 sec"};
  h.provider->Start();
  h.provider->ForceFail(Unavailable("radio died"));
  EXPECT_TRUE(h.finished);
  EXPECT_EQ(h.final_status.code(), StatusCode::kUnavailable);
  // A second failure must not re-report.
  h.finished = false;
  h.provider->ForceFail(Unavailable("again"));
  sim.RunFor(2h);
  EXPECT_FALSE(h.finished);
}

TEST(ProviderBaseTest, StopIsSilent) {
  sim::Simulation sim;
  Harness h{sim, "SELECT temperature DURATION 1 min EVERY 10 sec"};
  h.provider->Start();
  h.provider->Stop();
  sim.RunFor(5min);
  EXPECT_FALSE(h.finished);
  h.provider->Push(Item(sim, "temperature", 1.0));
  EXPECT_TRUE(h.delivered.empty());  // stopped providers drop items
}

TEST(ProviderBaseTest, DefaultPollPeriodTracksClauses) {
  sim::Simulation sim;
  Harness every{sim, "SELECT t DURATION 1 hour EVERY 42 sec"};
  EXPECT_EQ(every.provider->query().every, 42s);

  CxtProvider::Callbacks cb;
  cb.deliver = [](const CxtItem&) {};
  cb.finished = [](Status) {};
  FakeProvider fresh{
      sim, NewQuery(sim, "SELECT t FRESHNESS 30 sec DURATION 1 hour"),
      std::move(cb)};
  (void)fresh;
}

// --- LocalCxtProvider against the testbed ---------------------------------

TEST(LocalProviderTest, SamplesInternalSensorPeriodically) {
  testbed::World world{77};
  testbed::DeviceOptions opts;
  opts.name = "phone-A";
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);

  CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(), "SELECT temperature FROM intSensor "
                     "DURATION 1 min EVERY 10 sec"),
      client);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  world.RunFor(1min + 1s);
  // Immediate first sample + 6 periodic ones (the last at t=60 may race
  // the duration timer, hence the tolerance).
  EXPECT_GE(client.items.size(), 6u);
  EXPECT_LE(client.items.size(), 8u);
  EXPECT_EQ(client.items[0].type, vocab::kTemperature);
  EXPECT_EQ(client.items[0].source.kind, SourceKind::kIntSensor);
}

TEST(LocalProviderTest, OnDemandSamplesOnceAndCompletes) {
  testbed::World world{78};
  testbed::DeviceOptions opts;
  opts.internal_sensors = {vocab::kWind};
  auto& device = world.AddDevice(opts);
  CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(), "SELECT wind FROM intSensor DURATION 1 min"),
      client);
  ASSERT_TRUE(id.ok());
  world.RunFor(5s);
  EXPECT_EQ(client.items.size(), 1u);
  // Query completed: no longer tracked.
  EXPECT_EQ(device.contory().queries().active_count(), 0u);
}

TEST(LocalProviderTest, GpsStreamYieldsLocationItems) {
  testbed::World world{79};
  testbed::DeviceOptions opts;
  opts.name = "phone-A";
  auto& device = world.AddDevice(opts);
  world.AddGps("gps-1", {3, 0});

  CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(), "SELECT location FROM intSensor "
                     "DURATION 2 min EVERY 5 sec"),
      client);
  ASSERT_TRUE(id.ok());
  // Discovery (13 s) + SDP (1.1 s) + connect, then 5 s cadence.
  world.RunFor(2min);
  EXPECT_GE(client.items.size(), 15u);
  EXPECT_TRUE(client.items[0].value.is_geo());
  EXPECT_EQ(client.items[0].source.address, "bt:gps-1");
  // Positions should be near the anchor (device at origin).
  const auto geo = client.items[0].value.AsGeo().value();
  EXPECT_NEAR(geo.lat, sensors::kMapAnchor.lat, 0.01);
}

TEST(LocalProviderTest, NoSensorNoGpsFailsQuery) {
  testbed::World world{80};
  testbed::DeviceOptions opts;
  opts.with_bt = false;  // no GPS path either
  auto& device = world.AddDevice(opts);
  CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(), "SELECT humidity FROM intSensor DURATION 1 min"),
      client);
  // With an explicit FROM intSensor and nothing local, submission still
  // succeeds (the facade accepts) but the provider fails fast and the
  // client hears about it.
  world.RunFor(10s);
  if (id.ok()) {
    EXPECT_FALSE(client.errors.empty());
    EXPECT_TRUE(client.items.empty());
  }
}

}  // namespace
}  // namespace contory::core
