// Unit tests for query aggregation: the cluster rule, merging,
// post-extraction.
#include <gtest/gtest.h>

#include "core/model/vocabulary.hpp"
#include "core/query/merge.hpp"
#include "core/query/parser.hpp"

namespace contory::query {
namespace {

using namespace std::chrono_literals;

CxtQuery Q(const std::string& text, const std::string& id) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
  q->id = id;
  return *std::move(q);
}

TEST(MergeTest, PaperExampleMergesExactly) {
  // The q1/q2/q3 example from Sec. 4.3.
  const CxtQuery q1 = Q(
      "SELECT temperature FROM adHocNetwork(all,3) "
      "FRESHNESS 10sec DURATION 1hour EVERY 15sec",
      "q1");
  const CxtQuery q2 = Q(
      "SELECT temperature FROM adHocNetwork(all,1) "
      "FRESHNESS 20sec DURATION 2hour EVERY 30sec",
      "q2");
  const auto q3 = Merge(q1, q2);
  ASSERT_TRUE(q3.ok()) << q3.status().ToString();
  EXPECT_EQ(q3->select_type, "temperature");
  ASSERT_TRUE(q3->from.sources[0].scope.has_value());
  EXPECT_TRUE(q3->from.sources[0].scope->all_nodes());
  EXPECT_EQ(q3->from.sources[0].scope->num_hops, 3);   // max
  EXPECT_EQ(q3->freshness, SimDuration{20s});          // max
  EXPECT_EQ(q3->duration.time, SimDuration{2h});       // max
  EXPECT_EQ(q3->every, SimDuration{15s});              // min
  EXPECT_EQ(q3->id, "q1");  // the first original's id
}

TEST(MergeTest, DifferentSelectNeverMerges) {
  const CxtQuery a = Q("SELECT temperature DURATION 1hour", "a");
  const CxtQuery b = Q("SELECT wind DURATION 1hour", "b");
  EXPECT_FALSE(Mergeable(a, b));
  EXPECT_FALSE(Merge(a, b).ok());
}

TEST(MergeTest, DifferentModesDoNotMerge) {
  const CxtQuery periodic =
      Q("SELECT t DURATION 1hour EVERY 10sec", "p");
  const CxtQuery on_demand = Q("SELECT t DURATION 1hour", "o");
  EXPECT_FALSE(Mergeable(periodic, on_demand));
}

TEST(MergeTest, DifferentEventsDoNotMerge) {
  const CxtQuery a = Q("SELECT t DURATION 1hour EVENT AVG(t)>25", "a");
  const CxtQuery b = Q("SELECT t DURATION 1hour EVENT AVG(t)>30", "b");
  EXPECT_FALSE(Mergeable(a, b));
}

TEST(MergeTest, IdenticalEventsMerge) {
  const CxtQuery a =
      Q("SELECT t FRESHNESS 10sec DURATION 1hour EVENT AVG(t)>25", "a");
  const CxtQuery b =
      Q("SELECT t FRESHNESS 30sec DURATION 2hour EVENT AVG(t)>25", "b");
  const auto m = Merge(a, b);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->event, a.event);
  EXPECT_EQ(m->freshness, SimDuration{30s});
}

TEST(MergeTest, NumNodesWidensToMax) {
  const CxtQuery a =
      Q("SELECT t FROM adHocNetwork(5,2) DURATION 1hour EVERY 10sec", "a");
  const CxtQuery b =
      Q("SELECT t FROM adHocNetwork(10,1) DURATION 1hour EVERY 10sec", "b");
  const auto m = Merge(a, b);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->from.sources[0].scope->num_nodes, 10);
  EXPECT_EQ(m->from.sources[0].scope->num_hops, 2);
}

TEST(MergeTest, DifferentWhereIsDroppedForPostExtraction) {
  const CxtQuery a =
      Q("SELECT t WHERE accuracy<=0.2 DURATION 1hour EVERY 10sec", "a");
  const CxtQuery b =
      Q("SELECT t WHERE accuracy<=0.5 DURATION 1hour EVERY 10sec", "b");
  const auto m = Merge(a, b);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->where.has_value());
}

TEST(MergeTest, IdenticalWhereIsKept) {
  const CxtQuery a =
      Q("SELECT t WHERE accuracy<=0.2 DURATION 1hour EVERY 10sec", "a");
  const CxtQuery b =
      Q("SELECT t WHERE accuracy<=0.2 DURATION 2hour EVERY 20sec", "b");
  const auto m = Merge(a, b);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->where.has_value());
}

TEST(MergeTest, MissingFreshnessMeansUnconstrained) {
  const CxtQuery a = Q("SELECT t FRESHNESS 10sec DURATION 1hour", "a");
  const CxtQuery b = Q("SELECT t DURATION 1hour", "b");
  const auto m = Merge(a, b);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->freshness.has_value());
}

TEST(MergeTest, SampleDurationsTakeMax) {
  const CxtQuery a = Q("SELECT t DURATION 50 samples", "a");
  const CxtQuery b = Q("SELECT t DURATION 80 samples", "b");
  const auto m = Merge(a, b);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->duration.samples, 80);
}

TEST(MergeTest, DifferentRegionsDoNotMerge) {
  const CxtQuery a = Q(
      "SELECT wind FROM extInfra region(60.1,24.9,500) DURATION 1hour", "a");
  const CxtQuery b = Q(
      "SELECT wind FROM extInfra region(61.0,25.0,500) DURATION 1hour", "b");
  EXPECT_FALSE(Mergeable(a, b));
}

TEST(MergeTest, DistantClausesStillMerge) {
  // "we put in the same cluster queries with the same SELECT clause":
  // no clause distance keeps two compatible queries apart.
  const CxtQuery a = Q(
      "SELECT t FROM adHocNetwork(1,1) FRESHNESS 1sec DURATION 1min "
      "EVERY 1sec",
      "a");
  const CxtQuery b = Q(
      "SELECT t FROM adHocNetwork(all,5) DURATION 9hour EVERY 60sec", "b");
  EXPECT_TRUE(Mergeable(a, b));
  EXPECT_TRUE(Mergeable(b, a));
}

TEST(MergeTest, DifferentSourcesDoNotMerge) {
  const CxtQuery local = Q("SELECT t FROM intSensor DURATION 1hour", "a");
  const CxtQuery adhoc =
      Q("SELECT t FROM adHocNetwork(all,1) DURATION 1hour", "b");
  const CxtQuery any = Q("SELECT t DURATION 1hour", "c");
  EXPECT_FALSE(Mergeable(local, adhoc));
  EXPECT_FALSE(Mergeable(local, any));
}

TEST(PostExtractTest, AppliesOriginalWhere) {
  const CxtQuery strict =
      Q("SELECT temperature WHERE accuracy<=0.2 DURATION 1hour", "s");
  CxtItem precise;
  precise.type = "temperature";
  precise.value = 20.0;
  precise.timestamp = kSimEpoch;
  precise.metadata.accuracy = 0.1;
  CxtItem sloppy = precise;
  sloppy.metadata.accuracy = 0.4;
  EXPECT_TRUE(PostExtract(strict, precise, kSimEpoch));
  EXPECT_FALSE(PostExtract(strict, sloppy, kSimEpoch));
}

TEST(PostExtractTest, AppliesOriginalFreshness) {
  const CxtQuery q = Q("SELECT t FRESHNESS 10sec DURATION 1hour", "q");
  CxtItem item;
  item.type = "t";
  item.timestamp = kSimEpoch;
  EXPECT_TRUE(PostExtract(q, item, kSimEpoch + 5s));
  EXPECT_FALSE(PostExtract(q, item, kSimEpoch + 15s));
}

TEST(PostExtractTest, RejectsWrongTypeAndExpired) {
  const CxtQuery q = Q("SELECT t DURATION 1hour", "q");
  CxtItem wrong;
  wrong.type = "other";
  wrong.timestamp = kSimEpoch;
  EXPECT_FALSE(PostExtract(q, wrong, kSimEpoch));
  CxtItem expired;
  expired.type = "t";
  expired.timestamp = kSimEpoch;
  expired.lifetime = SimDuration{1s};
  EXPECT_FALSE(PostExtract(q, expired, kSimEpoch + 2s));
}

TEST(ClusterTest, MergeAllFoldsCluster) {
  const std::vector<CxtQuery> queries = {
      Q("SELECT t FRESHNESS 10sec DURATION 1hour EVERY 15sec", "a"),
      Q("SELECT t FRESHNESS 20sec DURATION 2hour EVERY 30sec", "b"),
      Q("SELECT t FRESHNESS 5sec DURATION 3hour EVERY 60sec", "c"),
  };
  const auto merged = MergeAll(queries);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->freshness, SimDuration{20s});
  EXPECT_EQ(merged->duration.time, SimDuration{3h});
  EXPECT_EQ(merged->every, SimDuration{15s});
  EXPECT_EQ(merged->id, "a");
}

TEST(ClusterTest, MergeAllEmptyFails) {
  EXPECT_FALSE(MergeAll({}).ok());
}

}  // namespace
}  // namespace contory::query
