// Query-lifecycle invariants over the pipeline's QueryTable.
//
// Every query must end in exactly one terminal completion — no leaked
// records, no double-finishes, no invalid state transitions — even when
// the lifecycle is perturbed at its most awkward moments: cancellation
// from inside a delivery callback (also followed by a resubmission under
// the same id, or aimed at a merged peer in the middle of one item's
// fan-out), and a failover target that fails while the failover is in
// flight. A query a client submits from inside its delivery callback
// gets its synchronous first item after that callback returns, never
// through a reentrant one, and cancelling it there purges that item. A
// finished query, cancelled or expired while degraded, must
// leave no timer scheduled behind. A facade-wide StopAll while a query is
// already degraded is the stopall_during_degraded.scn case.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/contory.hpp"
#include "fault/fault_injector.hpp"
#include "obs/observability.hpp"
#include "testbed/testbed.hpp"

namespace contory {
namespace {

using namespace std::chrono_literals;
using testbed::NewQuery;

int CompletionsFor(const core::QueryTable& table, const std::string& id) {
  int n = 0;
  for (const auto& completion : table.completions()) {
    if (completion.id == id) ++n;
  }
  return n;
}

// A client that cancels its own query from inside the delivery callback —
// the reentrant path through router -> client -> factory -> facade.
class CancelOnFirstItemClient : public core::Client {
 public:
  void ReceiveCxtItem(const CxtItem& item) override {
    items.push_back(item);
    // The very first sample can arrive synchronously, before the caller
    // has learned the query id — cancel on the first delivery after that.
    if (factory != nullptr && !query_id.empty() && !cancelled) {
      cancelled = true;
      items_at_cancel = items.size();
      factory->CancelCxtQuery(query_id);
    }
  }
  void InformError(const std::string& msg) override {
    errors.push_back(msg);
  }
  bool MakeDecision(const std::string&) override { return true; }

  core::ContextFactory* factory = nullptr;
  std::string query_id;
  bool cancelled = false;
  std::size_t items_at_cancel = 0;
  std::vector<CxtItem> items;
  std::vector<std::string> errors;
};

TEST(LifecycleInvariantTest, CancelDuringDeliveryIsSingleTerminal) {
  testbed::World world{501};
  testbed::DeviceOptions opts;
  opts.with_bt = false;
  opts.with_cellular = false;
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);

  CancelOnFirstItemClient client;
  client.factory = &device.contory();
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM intSensor DURATION 2 min EVERY 5 sec"),
      client);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  client.query_id = *id;

  world.RunFor(1min);

  // The delivery callback cancelled the query reentrantly: nothing was
  // delivered afterwards, exactly one terminal completion was logged, and
  // the state machine saw no invalid edges.
  EXPECT_TRUE(client.cancelled);
  EXPECT_EQ(client.items.size(), client.items_at_cancel);
  const core::QueryTable& table = device.contory().queries();
  EXPECT_EQ(table.active_count(), 0u);
  EXPECT_EQ(table.invalid_transitions(), 0u);
  EXPECT_EQ(CompletionsFor(table, *id), 1);
}

// A client that, on its very first delivery, cancels its query and
// submits a new one under the same id string — both from inside the
// synchronous delivery of the first activation's first facade.
class CancelAndResubmitClient : public core::Client {
 public:
  void ReceiveCxtItem(const CxtItem& item) override {
    items.push_back(item);
    if (acted) return;
    acted = true;
    cancelled_qid = factory->queries().Find(query_id)->qid;
    factory->CancelCxtQuery(query_id);
    resubmit = factory->ProcessCxtQuery(query, *this);
  }
  void InformError(const std::string& msg) override {
    errors.push_back(msg);
  }
  bool MakeDecision(const std::string&) override { return true; }

  core::ContextFactory* factory = nullptr;
  query::CxtQuery query;  // resubmitted verbatim, id included
  std::string query_id;
  bool acted = false;
  core::QueryId cancelled_qid = core::kInvalidQueryId;
  std::optional<Result<std::string>> resubmit;
  std::vector<CxtItem> items;
  std::vector<std::string> errors;
};

TEST(LifecycleInvariantTest, StaleIdMissesAfterCancelAndResubmitInDelivery) {
  obs::Observability::ResetForTest();
  testbed::World world{503};
  testbed::DeviceOptions opts;
  opts.name = "requester";
  opts.infra_address = "infra.fi";
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);
  world.AddContextServer("infra.fi");
  core::ContextFactory& factory = device.contory();

  // Two sources: after intSensor delivers synchronously, the first
  // activation still has extInfra to assign — through the stale id.
  CancelAndResubmitClient client;
  client.factory = &factory;
  client.query = NewQuery(world.sim(),
                          "SELECT temperature FROM intSensor, extInfra "
                          "DURATION 5 min EVERY 30 sec");
  client.query_id = client.query.id;
  const auto first = factory.ProcessCxtQuery(client.query, client);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(client.resubmit.has_value());
  ASSERT_TRUE(client.resubmit->ok()) << client.resubmit->status().ToString();
  EXPECT_EQ(**client.resubmit, client.query_id);

  // The first activation stopped at the stale id: extInfra serves the
  // resubmitted query alone, and only that query is live.
  const core::QueryTable& table = factory.queries();
  EXPECT_EQ(table.active_count(), 1u);
  const core::QueryRecord* live = table.Find(client.query_id);
  ASSERT_NE(live, nullptr);
  EXPECT_NE(live->qid, client.cancelled_qid);
  EXPECT_EQ(live->assigned,
            (query::MechanismSet{query::SourceSel::kIntSensor,
                                 query::SourceSel::kExtInfra}));
  EXPECT_EQ(factory.facade(query::SourceSel::kExtInfra)
                .active_original_count(),
            1u);
  EXPECT_EQ(table.total_admitted(),
            table.total_completed() + table.active_count());
  EXPECT_EQ(table.invalid_transitions(), 0u);
  EXPECT_EQ(CompletionsFor(table, client.query_id), 1);

  world.RunFor(1min);
  factory.CancelCxtQuery(client.query_id);
  world.RunFor(1s);
  EXPECT_EQ(table.active_count(), 0u);
  EXPECT_EQ(table.total_admitted(), 2u);
  EXPECT_EQ(table.total_completed(), 2u);
  EXPECT_EQ(table.invalid_transitions(), 0u);
  for (const query::SourceSel kind :
       {query::SourceSel::kIntSensor, query::SourceSel::kExtInfra}) {
    EXPECT_EQ(factory.facade(kind).active_original_count(), 0u)
        << query::SourceSelName(kind);
  }
  if (COBS_ON()) {
    EXPECT_EQ(obs::Observability::tracer().open_count(), 0u);
    EXPECT_EQ(obs::Observability::tracer().double_closes(), 0u);
  }
  obs::Observability::ResetForTest();
}

// A client that, once armed, cancels another client's query from inside
// its own delivery — the next qid in the same fan-out span.
class CancelPeerClient : public core::CollectingClient {
 public:
  void ReceiveCxtItem(const CxtItem& item) override {
    CollectingClient::ReceiveCxtItem(item);
    if (factory == nullptr || peer_id.empty()) return;
    factory->CancelCxtQuery(peer_id);
    peer_id.clear();
  }

  core::ContextFactory* factory = nullptr;
  std::string peer_id;
};

TEST(LifecycleInvariantTest, PeerCancelledMidFanOutIsSkipped) {
  testbed::World world{505};
  testbed::DeviceOptions opts;
  opts.with_bt = false;
  opts.with_cellular = false;
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);
  core::ContextFactory& factory = device.contory();

  CancelPeerClient first;
  core::CollectingClient peer;
  const auto first_id = factory.ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM intSensor DURATION 5 min EVERY 10 sec"),
      first);
  const auto peer_id = factory.ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM intSensor DURATION 5 min EVERY 10 sec"),
      peer);
  ASSERT_TRUE(first_id.ok());
  ASSERT_TRUE(peer_id.ok());
  ASSERT_EQ(factory.facade(query::SourceSel::kIntSensor)
                .active_provider_count(),
            1u);  // merged: one provider item fans out to both
  const std::size_t peer_items = peer.items.size();
  first.factory = &factory;
  first.peer_id = *peer_id;

  // The next round matches both; delivering it to the first query
  // cancels the peer, whose qid then misses in the same fan-out.
  world.RunFor(1min);
  EXPECT_TRUE(first.peer_id.empty());
  EXPECT_EQ(peer.items.size(), peer_items);
  EXPECT_GT(first.items.size(), 1u);
  const core::QueryTable& table = factory.queries();
  EXPECT_EQ(table.Find(*peer_id), nullptr);
  EXPECT_EQ(CompletionsFor(table, *peer_id), 1);
  EXPECT_EQ(table.invalid_transitions(), 0u);
}

// A client that, on its first item, submits a second query whose first
// sample is delivered synchronously inside that Submit, and optionally
// cancels it straight away. It records the callback depth it sees.
class NestedSubmitClient : public core::Client {
 public:
  void ReceiveCxtItem(const CxtItem& item) override {
    max_depth = std::max(max_depth, ++depth);
    types.push_back(item.type);
    if (factory != nullptr && !nested.has_value()) {
      nested = factory->ProcessCxtQuery(nested_query, *this);
      items_after_submit = types.size();
      if (cancel_nested && nested->ok()) factory->CancelCxtQuery(**nested);
    }
    --depth;
  }
  void InformError(const std::string&) override {}
  bool MakeDecision(const std::string&) override { return true; }

  core::ContextFactory* factory = nullptr;
  query::CxtQuery nested_query;
  bool cancel_nested = false;
  std::optional<Result<std::string>> nested;
  std::size_t items_after_submit = 0;
  int depth = 0;
  int max_depth = 0;
  std::vector<std::string> types;
};

class NestedDeliveryTest : public ::testing::Test {
 protected:
  NestedDeliveryTest() : world_(506) {
    testbed::DeviceOptions opts;
    opts.with_bt = false;
    opts.with_cellular = false;
    opts.internal_sensors = {vocab::kTemperature, vocab::kLight};
    device_ = &world_.AddDevice(opts);
    client_.nested_query =
        NewQuery(world_.sim(),
                 "SELECT light FROM intSensor DURATION 5 min EVERY 10 sec");
  }

  /// Submits the outer query; its first item arrives synchronously, and
  /// the client acts on it before this returns.
  void SubmitOuter() {
    client_.factory = &device_->contory();
    const auto id = device_->contory().ProcessCxtQuery(
        NewQuery(world_.sim(),
                 "SELECT temperature FROM intSensor DURATION 5 min "
                 "EVERY 10 sec"),
        client_);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(client_.nested.has_value());
    ASSERT_TRUE(client_.nested->ok()) << client_.nested->status().ToString();
  }

  testbed::World world_;
  testbed::Device* device_ = nullptr;
  NestedSubmitClient client_;
};

TEST_F(NestedDeliveryTest, NestedItemFollowsTheCurrentOne) {
  SubmitOuter();
  // The nested query's first sample was queued, not handed over inside
  // the callback that submitted it; it followed once that returned.
  EXPECT_EQ(client_.items_after_submit, 1u);
  EXPECT_EQ(client_.types,
            (std::vector<std::string>{vocab::kTemperature, vocab::kLight}));
  world_.RunFor(1min);
  EXPECT_EQ(client_.max_depth, 1);
  EXPECT_GT(std::count(client_.types.begin(), client_.types.end(),
                       vocab::kLight),
            1);
}

TEST_F(NestedDeliveryTest, NestedCancelPurgesQueuedItems) {
  client_.cancel_nested = true;
  SubmitOuter();
  world_.RunFor(1min);
  // The nested query's synchronous first sample was still queued when
  // the client cancelled it: purged, never delivered.
  EXPECT_EQ(std::count(client_.types.begin(), client_.types.end(),
                       vocab::kLight),
            0);
  EXPECT_GT(client_.types.size(), 1u);  // the outer query keeps going
  EXPECT_EQ(client_.max_depth, 1);
  const core::QueryTable& table = device_->contory().queries();
  EXPECT_EQ(table.Find(**client_.nested), nullptr);
  EXPECT_EQ(CompletionsFor(table, **client_.nested), 1);
}

class GpsWorldTest : public ::testing::Test {
 protected:
  GpsWorldTest() : world_(502) {
    testbed::DeviceOptions opts;
    opts.name = "phone-A";
    core::ContextFactoryConfig cfg;
    cfg.failover.recovery_probe_period = 15s;
    opts.factory_config = cfg;
    device_ = &world_.AddDevice(opts);
    world_.AddGps("gps-1", {3, 0});
  }

  testbed::World world_;
  testbed::Device* device_ = nullptr;
};

TEST_F(GpsWorldTest, FailDuringFailoverIsSingleTerminal) {
  core::CollectingClient client;
  const auto id = device_->contory().ProcessCxtQuery(
      NewQuery(world_.sim(), "SELECT location DURATION 2 min EVERY 5 sec"),
      client);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Healthy provisioning warms the repository, then the GPS and the local
  // BT radio fail in the same instant: the failover target dies while the
  // failover itself is in flight, leaving only degraded mode.
  world_.RunFor(55s);
  ASSERT_FALSE(client.items.empty());
  ASSERT_TRUE(world_.injector()
                  .ExecuteText(
                      "at=60s gps.off gps-1 for=180s\n"
                      "at=60s bt.fail phone-A for=180s\n")
                  .ok());
  world_.RunFor(2min);  // past the 2 min DURATION

  const core::QueryTable& table = device_->contory().queries();
  EXPECT_EQ(table.active_count(), 0u);
  EXPECT_EQ(table.invalid_transitions(), 0u);
  EXPECT_EQ(CompletionsFor(table, *id), 1);
}

TEST(LifecycleInvariantTest, FinishedQueriesLeaveNothingScheduled) {
  // A query's failover timers and fusion window live in its record, so
  // finishing it — by cancel or by DURATION expiry — must leave no event
  // behind. Both queries degrade when the only sensor fails with the
  // repository warm; the first, with fusion enabled, is cancelled, the
  // second expires while degraded.
  testbed::World world{504};
  testbed::DeviceOptions opts;
  opts.name = "phone-A";
  opts.with_bt = false;
  opts.with_wifi = false;
  opts.with_cellular = false;
  opts.internal_sensors = {vocab::kTemperature};
  core::ContextFactoryConfig cfg;
  cfg.failover.recovery_probe_period = 10min;  // stays degraded once there
  opts.factory_config = cfg;
  auto& device = world.AddDevice(opts);
  core::ContextFactory& factory = device.contory();
  sim::Simulation& sim = world.sim();

  const std::size_t pending_before = sim.pending();
  core::CollectingClient cancelled_client;
  core::CollectingClient expired_client;
  const auto cancelled = factory.ProcessCxtQuery(
      NewQuery(sim, "SELECT temperature FROM intSensor DURATION 20 min "
                    "EVERY 5 sec"),
      cancelled_client);
  const auto expired = factory.ProcessCxtQuery(
      NewQuery(sim, "SELECT temperature FROM intSensor DURATION 2 min "
                    "EVERY 5 sec"),
      expired_client);
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  ASSERT_TRUE(factory.EnableFusion(*cancelled).ok());
  ASSERT_TRUE(world.injector()
                  .ExecuteText("at=30s sensor.fail temperature@phone-A\n")
                  .ok());
  world.RunFor(1min);

  // Degraded, with every per-query timer armed in the record.
  const core::QueryTable& table = factory.queries();
  for (const std::string& id : {*cancelled, *expired}) {
    ASSERT_TRUE(factory.IsDegraded(id)) << id;
    const core::QueryRecord* record = table.Find(id);
    ASSERT_NE(record, nullptr) << id;
    EXPECT_NE(record->recovery_probe, nullptr) << id;
    EXPECT_NE(record->degraded_task, nullptr) << id;
  }
  EXPECT_NE(table.Find(*cancelled)->fusion, nullptr);

  factory.CancelCxtQuery(*cancelled);
  const std::size_t cancelled_items = cancelled_client.items.size();
  const std::size_t cancelled_errors = cancelled_client.errors.size();
  world.RunFor(1min);  // past the 2 min DURATION, plus the facade reap
  ASSERT_EQ(table.Find(*expired), nullptr);
  EXPECT_EQ(table.active_count(), 0u);
  EXPECT_EQ(CompletionsFor(table, *cancelled), 1);
  EXPECT_EQ(CompletionsFor(table, *expired), 1);
  EXPECT_EQ(table.invalid_transitions(), 0u);
  EXPECT_EQ(sim.pending(), pending_before);

  // Nothing reaches either client afterwards, past the probe period too.
  const std::size_t expired_items = expired_client.items.size();
  const std::size_t expired_errors = expired_client.errors.size();
  world.RunFor(15min);
  EXPECT_EQ(cancelled_client.items.size(), cancelled_items);
  EXPECT_EQ(cancelled_client.errors.size(), cancelled_errors);
  EXPECT_EQ(expired_client.items.size(), expired_items);
  EXPECT_EQ(expired_client.errors.size(), expired_errors);
  EXPECT_EQ(sim.pending(), pending_before);
}

}  // namespace
}  // namespace contory
