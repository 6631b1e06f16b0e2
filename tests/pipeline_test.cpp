// QueryTable tests: duplicate refusal, id/string lookup, stale-id
// misses, the bounded completion log and the state-machine guard; then
// the DeliveryRouter's cross-mechanism dedup; then lifecycle races and
// the batch submit path over the full middleware —
// including the obs-consistency invariant (admitted == completed + live,
// zero invalid transitions, no leaked open spans) at 100k-query scale.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/contory.hpp"
#include "fault/fault_injector.hpp"
#include "obs/observability.hpp"
#include "testbed/testbed.hpp"

namespace contory {
namespace {

using namespace std::chrono_literals;
using testbed::NewQuery;

// --- QueryTable -------------------------------------------------------------

class QueryTableTest : public ::testing::Test {
 protected:
  QueryTableTest() : table_(sim_, /*completion_log_capacity=*/0) {}

  query::CxtQuery MakeQuery(const std::string& id) {
    auto q = query::ParseQuery(
        "SELECT temperature FROM intSensor DURATION 1 min EVERY 30 sec");
    EXPECT_TRUE(q.ok());
    q->id = id;
    return *std::move(q);
  }

  sim::Simulation sim_{11};
  core::CollectingClient client_;
  core::QueryTable table_;
};

TEST_F(QueryTableTest, DuplicateAdmitIsRefused) {
  ASSERT_TRUE(table_.Admit(MakeQuery("q-dup"), client_).ok());
  const auto r = table_.Admit(MakeQuery("q-dup"), client_);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(table_.active_count(), 1u);
  EXPECT_EQ(table_.total_admitted(), 1u);
}

TEST_F(QueryTableTest, FindByIdAndByStringAgree) {
  const auto r = table_.Admit(MakeQuery("q-find"), client_);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(table_.Admit(MakeQuery("q-another"), client_).ok());
  core::QueryRecord* by_id = table_.FindById(*r);
  core::QueryRecord* by_name = table_.Find("q-find");
  ASSERT_NE(by_id, nullptr);
  EXPECT_EQ(by_id, by_name);
  EXPECT_EQ(by_id->qid, *r);
  EXPECT_EQ(table_.FindById(9999), nullptr);
  EXPECT_EQ(table_.FindById(core::kInvalidQueryId), nullptr);
  EXPECT_EQ(table_.Find("q-missing"), nullptr);
  EXPECT_EQ(table_.ActiveIds(),
            (std::vector<std::string>{"q-another", "q-find"}));
}

TEST_F(QueryTableTest, StaleIdMisses) {
  const auto a = table_.Admit(MakeQuery("q-a"), client_);
  const auto b = table_.Admit(MakeQuery("q-b"), client_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, core::kInvalidQueryId);
  EXPECT_NE(*b, core::kInvalidQueryId);
  EXPECT_NE(*a, *b);

  table_.FinishById(*a);
  EXPECT_EQ(table_.FindById(*a), nullptr);
  EXPECT_EQ(table_.Find("q-a"), nullptr);

  // Resubmitting under the same id string gets a fresh id (ids are
  // never reused, though the record may take the freed slot); the old
  // one keeps missing, so a caller holding it cannot touch the new
  // record.
  const auto a2 = table_.Admit(MakeQuery("q-a"), client_);
  ASSERT_TRUE(a2.ok());
  EXPECT_NE(*a2, *a);
  EXPECT_NE(*a2, *b);
  EXPECT_EQ(table_.FindById(*a), nullptr);
  EXPECT_EQ(table_.Find("q-a"), table_.FindById(*a2));
  table_.FinishById(*a);  // stale finish: harmless no-op
  EXPECT_NE(table_.FindById(*a2), nullptr);
  EXPECT_EQ(table_.total_completed(), 1u);
}

TEST_F(QueryTableTest, CompletionLogIsBounded) {
  core::QueryTable table(sim_, /*completion_log_capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    const std::string id = "q-" + std::to_string(i);
    const auto qid = table.Admit(MakeQuery(id), client_);
    ASSERT_TRUE(qid.ok());
    table.FinishById(*qid);
  }
  EXPECT_EQ(table.completions().size(), 8u);
  EXPECT_EQ(table.completions_dropped(), 12u);
  EXPECT_EQ(table.total_completed(), 20u);
  EXPECT_EQ(table.total_admitted(), 20u);
  EXPECT_EQ(table.active_count(), 0u);
  EXPECT_TRUE(table.ActiveIds().empty());
  // The bounded log keeps the newest completions.
  EXPECT_EQ(table.completions().front().id, "q-12");
  EXPECT_EQ(table.completions().back().id, "q-19");
}

TEST_F(QueryTableTest, InvalidTransitionIsRefusedAndCounted) {
  const auto r = table_.Admit(MakeQuery("q-bad"), client_);
  ASSERT_TRUE(r.ok());
  core::QueryRecord* record = table_.FindById(*r);
  ASSERT_NE(record, nullptr);
  // ADMITTED -> FAILING_OVER: failover only leaves ACTIVE, so the edge
  // is illegal (ADMITTED -> DEGRADED, by contrast, is the overload
  // governor's stale fast path).
  EXPECT_FALSE(table_.Transition(*record, core::QueryState::kFailingOver));
  EXPECT_EQ(record->state, core::QueryState::kAdmitted);
  EXPECT_EQ(table_.invalid_transitions(), 1u);
  EXPECT_TRUE(table_.Transition(*record, core::QueryState::kActive));
}

TEST_F(QueryTableTest, FinishTwiceIsSingleCompletion) {
  const auto qid = table_.Admit(MakeQuery("q-once"), client_);
  ASSERT_TRUE(qid.ok());
  table_.FinishById(*qid);
  table_.FinishById(*qid);  // cancel racing an expiry: harmless no-op
  EXPECT_EQ(table_.completions().size(), 1u);
  EXPECT_EQ(table_.total_completed(), 1u);
}

TEST_F(QueryTableTest, IdsStayUniqueAcrossSlotReuse) {
  // Finished records free their slot for the next admission, but every
  // id issued stays distinct, and each finished one keeps missing.
  std::unordered_set<core::QueryId> issued;
  std::vector<core::QueryId> finished;
  const auto live = table_.Admit(MakeQuery("q-live"), client_);
  ASSERT_TRUE(live.ok());
  issued.insert(*live);
  for (int i = 0; i < 50; ++i) {
    const auto qid = table_.Admit(MakeQuery("q-" + std::to_string(i)), client_);
    ASSERT_TRUE(qid.ok());
    EXPECT_TRUE(issued.insert(*qid).second) << "id reused: " << *qid;
    table_.FinishById(*qid);
    finished.push_back(*qid);
  }
  for (const core::QueryId qid : finished) {
    EXPECT_EQ(table_.FindById(qid), nullptr);
  }
  EXPECT_EQ(table_.FindById(*live), table_.Find("q-live"));
  EXPECT_EQ(table_.active_count(), 1u);
  EXPECT_EQ(table_.total_admitted(), 51u);
  EXPECT_EQ(table_.total_completed(), 50u);
}

// --- DeliveryRouter ---------------------------------------------------------

class DeliveryRouterTest : public QueryTableTest {
 protected:
  DeliveryRouterTest()
      : repository_(sim_), router_(sim_, table_, repository_) {}

  /// Admits a query as if the planner chose `initial` and the facades in
  /// `assigned` serve it now.
  core::QueryRecord& AdmitPlanned(const std::string& id,
                                  query::MechanismSet initial,
                                  query::MechanismSet assigned) {
    const auto qid = table_.Admit(MakeQuery(id), client_);
    EXPECT_TRUE(qid.ok());
    core::QueryRecord& record = *table_.FindById(*qid);
    record.plan.initial = initial;
    record.assigned = assigned;
    return record;
  }

  void Deliver(const core::QueryRecord& record, const std::string& item_id,
               query::SourceSel mechanism) {
    CxtItem item;
    item.id = item_id;
    item.type = vocab::kTemperature;
    item.value = 20.0;
    item.timestamp = sim_.Now();
    const core::QueryId qid = record.qid;
    router_.OnFacadeDelivery({&qid, 1}, item, mechanism);
  }

  std::vector<std::string> ReceivedIds() const {
    std::vector<std::string> ids;
    for (const CxtItem& item : client_.items) ids.push_back(item.id);
    return ids;
  }

  core::CxtRepository repository_;
  core::DeliveryRouter router_;
};

TEST_F(DeliveryRouterTest, CrossMechanismDuplicateIsDeliveredOnce) {
  using query::SourceSel;
  core::QueryRecord& record =
      AdmitPlanned("q-two", {SourceSel::kIntSensor, SourceSel::kExtInfra},
                   {SourceSel::kIntSensor});
  // intSensor delivers synchronously inside its own Submit, before
  // extInfra is assigned: the window must already remember the item.
  Deliver(record, "x", SourceSel::kIntSensor);
  record.assigned.insert(SourceSel::kExtInfra);
  Deliver(record, "x", SourceSel::kExtInfra);
  Deliver(record, "y", SourceSel::kExtInfra);
  Deliver(record, "y", SourceSel::kIntSensor);
  EXPECT_EQ(ReceivedIds(), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(record.items_delivered, 2u);

  // Down to one mechanism, an unchanged observation is a new round.
  record.assigned.erase(SourceSel::kExtInfra);
  Deliver(record, "y", SourceSel::kIntSensor);
  EXPECT_EQ(ReceivedIds(), (std::vector<std::string>{"x", "y", "y"}));
  EXPECT_EQ(record.items_delivered, 3u);
}

TEST_F(DeliveryRouterTest, DedupWindowEvictsOldestId) {
  // The window remembers the newest 128 ids: after 130 distinct ones,
  // the two oldest are forgotten and deliverable again.
  using query::SourceSel;
  core::QueryRecord& record = AdmitPlanned(
      "q-two", {SourceSel::kIntSensor, SourceSel::kExtInfra},
      {SourceSel::kIntSensor, SourceSel::kExtInfra});
  constexpr int kDistinct = 130;
  for (int i = 0; i < kDistinct; ++i) {
    Deliver(record, "i" + std::to_string(i),
            i % 2 == 0 ? SourceSel::kIntSensor : SourceSel::kExtInfra);
  }
  ASSERT_EQ(client_.items.size(), static_cast<std::size_t>(kDistinct));

  Deliver(record, "i0", SourceSel::kExtInfra);    // evicted: delivered
  Deliver(record, "i129", SourceSel::kIntSensor);  // newest: dropped
  ASSERT_EQ(client_.items.size(), static_cast<std::size_t>(kDistinct + 1));
  EXPECT_EQ(client_.items.back().id, "i0");
  EXPECT_EQ(record.items_delivered, static_cast<std::uint32_t>(kDistinct + 1));
}

TEST_F(DeliveryRouterTest, SingleSourceRedeliveryIsCounted) {
  // A periodic single-source query re-delivered an unchanged
  // observation gets it every round.
  core::QueryRecord& record = AdmitPlanned(
      "q-one", {query::SourceSel::kIntSensor}, {query::SourceSel::kIntSensor});
  for (int round = 0; round < 3; ++round) {
    Deliver(record, "x", query::SourceSel::kIntSensor);
  }
  EXPECT_EQ(ReceivedIds(), (std::vector<std::string>{"x", "x", "x"}));
  EXPECT_EQ(record.items_delivered, 3u);
  EXPECT_EQ(router_.items_routed(), 3u);
}

// --- Lifecycle races over the full middleware ------------------------------

class PipelineWorldTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::Observability::ResetForTest(); }
  void TearDown() override { obs::Observability::ResetForTest(); }
};

TEST_F(PipelineWorldTest, CancelRacingDurationExpiryIsSingleTerminal) {
  // Both orders of the same-instant race: expiry event before the
  // cancel, and cancel before the expiry event.
  for (const bool cancel_first : {false, true}) {
    testbed::World world{601};
    testbed::DeviceOptions opts;
    opts.with_bt = false;
    opts.with_cellular = false;
    opts.internal_sensors = {vocab::kTemperature};
    auto& device = world.AddDevice(opts);

    core::CollectingClient client;
    std::string id;
    const auto submit = [&] {
      const auto r = device.contory().ProcessCxtQuery(
          NewQuery(
              world.sim(),
              "SELECT temperature FROM intSensor DURATION 30 sec EVERY 5 sec"),
          client);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      id = *r;
    };
    if (cancel_first) {
      // Scheduled before the submit, so at t=30s the cancel runs before
      // the provider's duration-expiry event.
      world.sim().ScheduleAfter(30s, [&] {
        device.contory().CancelCxtQuery(id);
      });
      submit();
    } else {
      submit();
      world.sim().ScheduleAfter(30s, [&] {
        device.contory().CancelCxtQuery(id);
      });
    }
    world.RunFor(1min);

    const core::QueryTable& table = device.contory().queries();
    EXPECT_EQ(table.active_count(), 0u) << "cancel_first=" << cancel_first;
    EXPECT_EQ(table.invalid_transitions(), 0u);
    EXPECT_EQ(table.total_admitted(), table.total_completed());
    int completions = 0;
    for (const auto& completion : table.completions()) {
      if (completion.id == id) ++completions;
    }
    EXPECT_EQ(completions, 1) << "cancel_first=" << cancel_first;
  }
}

TEST_F(PipelineWorldTest, StopAllAcrossShardsIsSingleTerminalPerQuery) {
  testbed::World world{602};
  testbed::DeviceOptions opts;
  opts.with_bt = false;
  opts.with_cellular = false;
  opts.internal_sensors = {vocab::kTemperature};
  // Many queries: StopAll must walk every record through the facade
  // finish path without double-finishing any.
  core::ContextFactoryConfig cfg;
  cfg.enable_degraded_mode = false;
  opts.factory_config = cfg;
  auto& device = world.AddDevice(opts);

  core::CollectingClient client;
  std::vector<std::string> ids;
  for (int i = 0; i < 24; ++i) {
    const auto r = device.contory().ProcessCxtQuery(
        NewQuery(
            world.sim(),
            "SELECT temperature FROM intSensor DURATION 10 min EVERY 30 sec"),
        client);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ids.push_back(*r);
  }
  world.RunFor(10s);
  ASSERT_EQ(device.contory().queries().active_count(), 24u);

  device.contory().facade(query::SourceSel::kIntSensor)
      .StopAll(ResourceExhausted("policy suspended the query"));
  world.RunFor(30s);

  const core::QueryTable& table = device.contory().queries();
  EXPECT_EQ(table.active_count(), 0u);
  EXPECT_EQ(table.invalid_transitions(), 0u);
  EXPECT_EQ(table.total_completed(), 24u);
  for (const auto& id : ids) {
    int completions = 0;
    for (const auto& completion : table.completions()) {
      if (completion.id == id) ++completions;
    }
    EXPECT_EQ(completions, 1) << id;
  }
}

// --- 100k submits -----------------------------------------------------------

std::vector<query::CxtQuery> MakeQueries(sim::Simulation& sim, int n) {
  std::vector<query::CxtQuery> queries;
  queries.reserve(n);
  for (int i = 0; i < n; ++i) {
    queries.push_back(NewQuery(
        sim, "SELECT temperature FROM intSensor DURATION 5 min EVERY 1 min"));
  }
  return queries;
}

testbed::DeviceOptions SensorDeviceOptions() {
  testbed::DeviceOptions opts;
  opts.with_bt = false;
  opts.with_cellular = false;
  opts.internal_sensors = {vocab::kTemperature};
  return opts;
}

// The acceptance-scale invariant: at 100k concurrent queries, the obs
// counters and span population stay coherent — admitted ==
// completed + live, no invalid transitions, and once everything is
// cancelled there are no leaked open spans.
TEST_F(PipelineWorldTest, ObsStaysConsistentAcrossShardsAt100k) {
  constexpr int kN = 100'000;
  testbed::World world{606};
  testbed::DeviceOptions opts = SensorDeviceOptions();
  core::ContextFactoryConfig cfg;
  // 100k *distinct* real-world queries would not merge; merged
  // mega-clusters also make per-query cancel quadratic (re-merge of the
  // surviving originals), which is not what this test measures.
  cfg.enable_query_merging = false;
  opts.factory_config = cfg;
  auto& device = world.AddDevice(opts);
  core::CollectingClient client;

  std::vector<std::string> ids;
  ids.reserve(kN);
  for (auto& q : MakeQueries(world.sim(), kN)) {
    const auto r = device.contory().ProcessCxtQuery(std::move(q), client);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ids.push_back(*r);
  }

  const core::QueryTable& table = device.contory().queries();
  EXPECT_EQ(table.active_count(), static_cast<std::size_t>(kN));
  EXPECT_EQ(table.total_admitted(),
            table.total_completed() + table.active_count());
  EXPECT_EQ(table.invalid_transitions(), 0u);

  // Compile-time and runtime gate together: a CONTORY_OBS=OFF build
  // never updates the counters this block reads.
  const bool obs_on = COBS_ON();
  if (obs_on) {
    auto& metrics = obs::Observability::metrics();
    EXPECT_DOUBLE_EQ(metrics.GetGauge("queries_live").value(),
                     static_cast<double>(kN));
    EXPECT_EQ(metrics.GetCounter("queries_admitted_total").value(),
              static_cast<std::uint64_t>(kN));
  }

  // Tear every query down and re-check the ledger from the other side.
  for (const auto& id : ids) device.contory().CancelCxtQuery(id);
  EXPECT_EQ(table.active_count(), 0u);
  EXPECT_EQ(table.total_completed(), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(table.total_admitted(), table.total_completed());
  EXPECT_EQ(table.invalid_transitions(), 0u);
  if (obs_on) {
    auto& metrics = obs::Observability::metrics();
    EXPECT_DOUBLE_EQ(metrics.GetGauge("queries_live").value(), 0.0);
    // No leaked open spans: every root and stage span closed exactly once.
    EXPECT_EQ(obs::Observability::tracer().open_count(), 0u);
    EXPECT_EQ(obs::Observability::tracer().double_closes(), 0u);
  }
}

}  // namespace
}  // namespace contory
