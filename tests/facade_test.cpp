// Unit tests for the Facade: query merging on submission, post-extraction
// on delivery, cancellation re-merging, and failure propagation.
#include <gtest/gtest.h>

#include <map>
#include <span>

#include "core/facade.hpp"
#include "sim/simulation.hpp"
#include "testbed/testbed.hpp"

namespace contory::core {
namespace {

using namespace std::chrono_literals;
using testbed::NewQuery;

/// Transportless provider the facade drives; the test injects items.
class ScriptedProvider final : public CxtProvider {
 public:
  ScriptedProvider(sim::Simulation& sim, query::CxtQuery q,
                   Callbacks callbacks,
                   std::vector<ScriptedProvider*>& registry)
      : CxtProvider(sim, std::move(q), std::move(callbacks)),
        registry_(registry) {
    registry_.push_back(this);
  }
  ~ScriptedProvider() override { std::erase(registry_, this); }

  query::SourceSel kind() const noexcept override {
    return query::SourceSel::kAdHocNetwork;
  }
  const char* transport() const noexcept override { return "scripted"; }
  void Push(CxtItem item) { Offer(std::move(item)); }
  void ForceFail(Status s) { Fail(std::move(s)); }

 protected:
  void DoStart() override {}
  void DoStop() override {}

 private:
  std::vector<ScriptedProvider*>& registry_;
};

struct FacadeHarness {
  explicit FacadeHarness(std::uint64_t seed = 3) : sim(seed) {
    facade = std::make_unique<Facade>(
        sim, query::SourceSel::kAdHocNetwork,
        [this](QueryId, query::CxtQuery q, CxtProvider::Callbacks callbacks) {
          return std::make_unique<ScriptedProvider>(
              sim, std::move(q), std::move(callbacks), providers);
        });
    facade->SetDelivery(
        [this](std::span<const QueryId> matched, const CxtItem& item) {
          ++delivery_calls;
          for (const QueryId qid : matched) deliveries[qid].push_back(item);
        });
    facade->SetFinished([this](QueryId qid, const Status& s) {
      finished[qid] = s;
      finish_order.push_back(qid);
    });
  }

  /// Submits `q` under the next QueryId (readable as last_qid) and keeps
  /// the cluster handle Cancel needs.
  Status Submit(query::CxtQuery q) {
    const Result<ClusterRef> ref = facade->Submit(++last_qid, std::move(q));
    if (ref.ok()) refs[last_qid] = *ref;
    return ref.status();
  }

  void Cancel(QueryId qid) { facade->Cancel(qid, refs[qid]); }

  CxtItem Item(const std::string& type, double value,
               double accuracy = 0.2) {
    CxtItem item;
    item.id = sim.ids().NextId("item");
    item.type = type;
    item.value = value;
    item.timestamp = sim.Now();
    item.metadata.accuracy = accuracy;
    return item;
  }

  sim::Simulation sim;
  std::vector<ScriptedProvider*> providers;
  std::unique_ptr<Facade> facade;
  QueryId last_qid = kInvalidQueryId;
  std::map<QueryId, ClusterRef> refs;
  int delivery_calls = 0;
  std::map<QueryId, std::vector<CxtItem>> deliveries;
  std::map<QueryId, Status> finished;
  std::vector<QueryId> finish_order;
};

TEST(FacadeTest, FirstQueryCreatesProvider) {
  FacadeHarness h;
  ASSERT_TRUE(h.Submit(NewQuery(h.sim, "SELECT temperature DURATION 1 hour "
                                       "EVERY 10 sec"))
                  .ok());
  EXPECT_EQ(h.facade->active_provider_count(), 1u);
  EXPECT_EQ(h.providers.size(), 1u);
}

TEST(FacadeTest, SameSelectMergesIntoOneProvider) {
  // The paper's headline merging behaviour: two temperature queries, one
  // provider with the widened parameters.
  FacadeHarness h;
  ASSERT_TRUE(h.Submit(NewQuery(h.sim,
                                "SELECT temperature FROM adHocNetwork(all,3) "
                                "FRESHNESS 10sec DURATION 1hour EVERY 15sec"))
                  .ok());
  ASSERT_TRUE(h.Submit(NewQuery(h.sim,
                                "SELECT temperature FROM adHocNetwork(all,1) "
                                "FRESHNESS 20sec DURATION 2hour EVERY 30sec"))
                  .ok());
  EXPECT_EQ(h.facade->active_provider_count(), 1u);
  EXPECT_EQ(h.facade->active_original_count(), 2u);
  ASSERT_EQ(h.providers.size(), 1u);
  const auto& merged = h.providers[0]->query();
  EXPECT_EQ(merged.freshness, SimDuration{20s});
  EXPECT_EQ(merged.every, SimDuration{15s});
  EXPECT_EQ(merged.duration.time, SimDuration{2h});
}

TEST(FacadeTest, DifferentSelectsGetSeparateProviders) {
  FacadeHarness h;
  ASSERT_TRUE(
      h.Submit(NewQuery(h.sim, "SELECT temperature DURATION 1 hour")).ok());
  ASSERT_TRUE(h.Submit(NewQuery(h.sim, "SELECT wind DURATION 1 hour")).ok());
  EXPECT_EQ(h.facade->active_provider_count(), 2u);
}

TEST(FacadeTest, PostExtractionSplitsResults) {
  FacadeHarness h;
  auto strict = NewQuery(h.sim,
                         "SELECT temperature WHERE accuracy<=0.2 "
                         "DURATION 1 hour EVERY 10 sec");
  auto loose = NewQuery(h.sim,
                        "SELECT temperature WHERE accuracy<=0.9 "
                        "DURATION 1 hour EVERY 10 sec");
  ASSERT_TRUE(h.Submit(std::move(strict)).ok());
  const QueryId strict_id = h.last_qid;
  ASSERT_TRUE(h.Submit(std::move(loose)).ok());
  const QueryId loose_id = h.last_qid;
  ASSERT_EQ(h.providers.size(), 1u);  // merged (WHERE dropped)

  h.providers[0]->Push(h.Item("temperature", 20.0, /*accuracy=*/0.5));
  // Only the loose query matches a 0.5-accuracy item.
  EXPECT_EQ(h.deliveries[strict_id].size(), 0u);
  EXPECT_EQ(h.deliveries[loose_id].size(), 1u);

  h.providers[0]->Push(h.Item("temperature", 21.0, /*accuracy=*/0.1));
  EXPECT_EQ(h.deliveries[strict_id].size(), 1u);
  EXPECT_EQ(h.deliveries[loose_id].size(), 2u);
  EXPECT_EQ(h.delivery_calls, 2);  // one call per provider item
}

TEST(FacadeTest, CancelLastOriginalStopsProvider) {
  FacadeHarness h;
  auto q = NewQuery(h.sim, "SELECT temperature DURATION 1 hour EVERY 10 sec");
  ASSERT_TRUE(h.Submit(std::move(q)).ok());
  const QueryId id = h.last_qid;
  h.Cancel(id);
  EXPECT_EQ(h.facade->active_provider_count(), 0u);
  h.sim.RunFor(1s);  // reap
  EXPECT_TRUE(h.providers.empty());  // destroyed
}

TEST(FacadeTest, CancelOneOfTwoNarrowsMergedQuery) {
  FacadeHarness h;
  auto fast = NewQuery(h.sim, "SELECT temperature DURATION 1hour EVERY 5sec");
  auto slow = NewQuery(h.sim, "SELECT temperature DURATION 1hour EVERY 60sec");
  ASSERT_TRUE(h.Submit(std::move(fast)).ok());
  const QueryId fast_id = h.last_qid;
  ASSERT_TRUE(h.Submit(std::move(slow)).ok());
  ASSERT_EQ(h.providers.size(), 1u);
  EXPECT_EQ(h.providers[0]->query().every, SimDuration{5s});

  h.Cancel(fast_id);
  EXPECT_EQ(h.facade->active_provider_count(), 1u);
  // Re-merged to the remaining original's rate.
  EXPECT_EQ(h.providers[0]->query().every, SimDuration{60s});
}

TEST(FacadeTest, ProviderFailureReportsEveryOriginal) {
  FacadeHarness h;
  auto a = NewQuery(h.sim, "SELECT temperature DURATION 1hour EVERY 10sec");
  auto b = NewQuery(h.sim, "SELECT temperature DURATION 1hour EVERY 20sec");
  ASSERT_TRUE(h.Submit(std::move(a)).ok());
  const QueryId a_id = h.last_qid;
  ASSERT_TRUE(h.Submit(std::move(b)).ok());
  const QueryId b_id = h.last_qid;
  h.providers[0]->ForceFail(Unavailable("radio died"));
  EXPECT_EQ(h.finished[a_id].code(), StatusCode::kUnavailable);
  EXPECT_EQ(h.finished[b_id].code(), StatusCode::kUnavailable);
  EXPECT_EQ(h.facade->active_provider_count(), 0u);
}

TEST(FacadeTest, StopAllSuspendsEverything) {
  FacadeHarness h;
  auto a = NewQuery(h.sim, "SELECT temperature DURATION 1hour");
  auto b = NewQuery(h.sim, "SELECT wind DURATION 1hour");
  ASSERT_TRUE(h.Submit(std::move(a)).ok());
  const QueryId a_id = h.last_qid;
  ASSERT_TRUE(h.Submit(std::move(b)).ok());
  const QueryId b_id = h.last_qid;
  h.facade->StopAll(ResourceExhausted("reducePower"));
  EXPECT_EQ(h.finished[a_id].code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(h.finished[b_id].code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(h.facade->active_provider_count(), 0u);
}

TEST(FacadeTest, StopAllReportsInCreationOrderAfterSlotReuse) {
  FacadeHarness h;
  ASSERT_TRUE(h.Submit(NewQuery(h.sim, "SELECT temperature DURATION 1hour"))
                  .ok());
  const QueryId a = h.last_qid;
  ASSERT_TRUE(h.Submit(NewQuery(h.sim, "SELECT wind DURATION 1hour")).ok());
  const QueryId b = h.last_qid;
  ASSERT_TRUE(h.Submit(NewQuery(h.sim, "SELECT light DURATION 1hour")).ok());
  const QueryId c = h.last_qid;
  h.Cancel(b);
  h.sim.RunFor(1s);  // reap: B's slot is free
  ASSERT_TRUE(h.Submit(NewQuery(h.sim, "SELECT noise DURATION 1hour")).ok());
  const QueryId d = h.last_qid;
  ASSERT_EQ(h.providers.size(), 3u);

  h.facade->StopAll(ResourceExhausted("reducePower"));
  EXPECT_EQ(h.finish_order, (std::vector<QueryId>{a, c, d}));
  EXPECT_FALSE(h.finished.contains(b));
}

TEST(FacadeTest, StaleClusterRefMisses) {
  // D's cluster takes B's freed slot under a new generation: B's ref no
  // longer names it, not even for D's own query id.
  FacadeHarness h;
  ASSERT_TRUE(h.Submit(NewQuery(h.sim, "SELECT wind DURATION 1hour")).ok());
  const QueryId b = h.last_qid;
  const ClusterRef b_ref = h.refs[b];
  h.Cancel(b);
  h.sim.RunFor(1s);
  ASSERT_TRUE(h.Submit(NewQuery(h.sim, "SELECT noise DURATION 1hour")).ok());
  const QueryId d = h.last_qid;
  ASSERT_NE(h.refs[d], b_ref);
  EXPECT_EQ(SlotTable<int>::SlotOf(h.refs[d]),
            SlotTable<int>::SlotOf(b_ref));  // same slot

  h.facade->Cancel(b, b_ref);
  h.facade->Cancel(d, b_ref);
  h.facade->Cancel(d, kInvalidClusterRef);
  EXPECT_EQ(h.facade->active_original_count(), 1u);
  h.Cancel(d);
  EXPECT_EQ(h.facade->active_original_count(), 0u);
}

TEST(FacadeTest, ProvidersCreatedCounterTracksMergeSavings) {
  FacadeHarness h;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(h.Submit(NewQuery(h.sim, "SELECT temperature DURATION 1hour "
                                         "EVERY 10sec"))
                    .ok());
  }
  EXPECT_EQ(h.facade->providers_created(), 1u);  // all merged
  EXPECT_EQ(h.facade->active_original_count(), 5u);
}

TEST(FacadeTest, MergingDisabledByPolicy) {
  FacadeHarness h;
  auto facade = std::make_unique<Facade>(
      h.sim, query::SourceSel::kAdHocNetwork,
      [&h](QueryId, query::CxtQuery q, CxtProvider::Callbacks callbacks) {
        return std::make_unique<ScriptedProvider>(
            h.sim, std::move(q), std::move(callbacks), h.providers);
      },
      /*merging=*/false);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(facade
                    ->Submit(static_cast<QueryId>(i + 1),
                             NewQuery(h.sim,
                                      "SELECT temperature DURATION 1hour "
                                      "EVERY 10sec"))
                    .ok());
  }
  EXPECT_EQ(facade->active_provider_count(), 3u);  // no merging
}

TEST(FacadeTest, InvalidQueryRejected) {
  FacadeHarness h;
  query::CxtQuery bad;
  bad.id = "bad";
  EXPECT_FALSE(h.Submit(bad).ok());
  EXPECT_EQ(h.facade->active_provider_count(), 0u);
}

}  // namespace
}  // namespace contory::core
