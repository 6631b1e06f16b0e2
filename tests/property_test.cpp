// Property-style parameterized sweeps over the core invariants:
// serialization round-trips, parser idempotence, merge subsumption (pairs
// and seeded cancel re-merges on a Facade), the Facade's compiled
// post-extraction against query::PostExtract, predicate algebra,
// simulation determinism, energy-ledger math, SM routing against a naive
// BFS oracle, and wire truncation.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "core/contory.hpp"
#include "energy/energy_model.hpp"
#include "net/wifi.hpp"
#include "phone/phone_profiles.hpp"
#include "sensors/gps.hpp"
#include "sim/simulation.hpp"
#include "sm/sm_runtime.hpp"

namespace contory {
namespace {

using namespace std::chrono_literals;

// --- CxtItem serialization round-trip over generated items -----------------

class ItemRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

CxtItem GenerateItem(Rng& rng) {
  static const std::vector<std::string> kTypes = {
      vocab::kLocation, vocab::kTemperature, vocab::kWind, vocab::kLight,
      vocab::kActivity, vocab::kBatteryLevel, "customType"};
  CxtItem item;
  item.id = "item-" + std::to_string(rng.Next() % 1'000'000);
  item.type = kTypes[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(kTypes.size()) - 1))];
  if (item.type == vocab::kLocation) {
    item.value = GeoPoint{rng.Uniform(-90, 90), rng.Uniform(-180, 180)};
  } else if (item.type == vocab::kActivity) {
    item.value = rng.Bernoulli(0.5) ? "walking" : "sailing";
  } else {
    item.value = rng.Uniform(-1e6, 1e6);
  }
  item.timestamp = kSimEpoch + SimDuration{rng.UniformInt(0, 1'000'000'000)};
  if (rng.Bernoulli(0.5)) {
    item.lifetime = SimDuration{rng.UniformInt(1, 3'600'000'000)};
  }
  item.source.kind = static_cast<SourceKind>(rng.UniformInt(0, 4));
  item.source.address = "addr-" + std::to_string(rng.Next() % 100);
  if (rng.Bernoulli(0.5)) item.metadata.accuracy = rng.Uniform(0, 10);
  if (rng.Bernoulli(0.5)) item.metadata.correctness = rng.Uniform(0, 1);
  if (rng.Bernoulli(0.5)) item.metadata.precision = rng.Uniform(0, 5);
  if (rng.Bernoulli(0.3)) item.metadata.completeness = rng.Uniform(0, 1);
  item.metadata.trust = static_cast<TrustLevel>(rng.UniformInt(0, 2));
  item.metadata.privacy = static_cast<PrivacyLevel>(rng.UniformInt(0, 2));
  return item;
}

TEST_P(ItemRoundTripTest, SerializeDeserializeIsIdentity) {
  Rng rng{GetParam()};
  for (int i = 0; i < 50; ++i) {
    const CxtItem item = GenerateItem(rng);
    const auto back = CxtItem::Deserialize(item.Serialize());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->id, item.id);
    EXPECT_EQ(back->type, item.type);
    EXPECT_EQ(back->value, item.value);
    EXPECT_EQ(back->timestamp, item.timestamp);
    EXPECT_EQ(back->lifetime, item.lifetime);
    EXPECT_EQ(back->source, item.source);
    EXPECT_EQ(back->metadata, item.metadata);
  }
}

TEST_P(ItemRoundTripTest, KnownTypesHonorEnvelopeSizes) {
  Rng rng{GetParam()};
  for (int i = 0; i < 50; ++i) {
    const CxtItem item = GenerateItem(rng);
    const CxtTypeInfo* info = CxtVocabulary::Default().Find(item.type);
    if (info == nullptr) continue;
    EXPECT_GE(item.Serialize().size(), info->envelope_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ItemRoundTripTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Query parse/print idempotence -----------------------------------------

class QueryRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(QueryRoundTripTest, ParsePrintParseIsStable) {
  const auto q1 = query::ParseQuery(GetParam());
  ASSERT_TRUE(q1.ok()) << GetParam() << ": " << q1.status().ToString();
  const auto q2 = query::ParseQuery(q1->ToString());
  ASSERT_TRUE(q2.ok()) << q1->ToString();
  EXPECT_EQ(q1->select_type, q2->select_type);
  EXPECT_EQ(q1->from, q2->from);
  EXPECT_EQ(q1->where, q2->where);
  EXPECT_EQ(q1->freshness, q2->freshness);
  EXPECT_EQ(q1->duration, q2->duration);
  EXPECT_EQ(q1->every, q2->every);
  EXPECT_EQ(q1->event, q2->event);
  // And print is a fixed point after one round.
  EXPECT_EQ(q1->ToString(), q2->ToString());
}

TEST_P(QueryRoundTripTest, SerializeDeserializeIsIdentity) {
  auto q = query::ParseQuery(GetParam());
  ASSERT_TRUE(q.ok());
  q->id = "q-prop";
  const auto back = query::CxtQuery::Deserialize(q->Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, *q);
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, QueryRoundTripTest,
    ::testing::Values(
        "SELECT temperature DURATION 1 hour",
        "SELECT location FROM intSensor DURATION 10 min EVERY 5 sec",
        "SELECT wind FROM adHocNetwork(all,3) DURATION 50 samples",
        "SELECT temperature FROM adHocNetwork(10,3) WHERE accuracy=0.2 "
        "FRESHNESS 30 sec DURATION 1 hour EVENT AVG(temperature)>25",
        "SELECT light FROM extInfra(\"infra.fi\") region(60.1,24.9,500) "
        "DURATION 2 min",
        "SELECT location FROM extInfra entity(\"friend-7\") DURATION 1 min",
        "SELECT noise WHERE value>50 AND (trust=trusted OR "
        "correctness>=0.9) DURATION 1 hour EVERY 1 min",
        "SELECT humidity FROM adHocNetwork(5,2), extInfra DURATION 1 hour",
        "SELECT speed WHERE NOT activity=\"moored\" DURATION 30 sec",
        "SELECT pressure FRESHNESS 500 ms DURATION 2 hour "
        "EVENT MAX(pressure)>=1030"));

// --- Merge subsumption ------------------------------------------------------

struct MergePair {
  const char* name;
  const char* a;
  const char* b;
};

// Without this gtest prints the struct's raw bytes, i.e. the two string
// pointers, and the ctest case names would change with every build.
void PrintTo(const MergePair& pair, std::ostream* os) { *os << pair.name; }

class MergeSubsumptionTest : public ::testing::TestWithParam<MergePair> {};

TEST_P(MergeSubsumptionTest, MergedQuerySubsumesBoth) {
  auto a = query::ParseQuery(GetParam().a);
  auto b = query::ParseQuery(GetParam().b);
  ASSERT_TRUE(a.ok() && b.ok());
  a->id = "a";
  b->id = "b";
  const auto m = query::Merge(*a, *b);
  ASSERT_TRUE(m.ok()) << m.status().ToString();

  for (const auto* original : {&*a, &*b}) {
    // FRESHNESS: merged is no stricter than the original.
    if (m->freshness.has_value()) {
      ASSERT_TRUE(original->freshness.has_value());
      EXPECT_GE(*m->freshness, *original->freshness);
    }
    // EVERY: merged is at least as fast.
    if (original->every.has_value()) {
      ASSERT_TRUE(m->every.has_value());
      EXPECT_LE(*m->every, *original->every);
    }
    // DURATION: merged lives at least as long.
    if (m->duration.time.has_value() &&
        original->duration.time.has_value()) {
      EXPECT_GE(*m->duration.time, *original->duration.time);
    }
    // Scope: merged covers at least the original's hops.
    for (std::size_t i = 0; i < original->from.sources.size(); ++i) {
      const auto& orig_scope = original->from.sources[i].scope;
      const auto& merged_scope = m->from.sources[i].scope;
      if (!orig_scope.has_value()) continue;
      ASSERT_TRUE(merged_scope.has_value());
      EXPECT_GE(merged_scope->num_hops, orig_scope->num_hops);
      if (!merged_scope->all_nodes()) {
        ASSERT_FALSE(orig_scope->all_nodes());
        EXPECT_GE(merged_scope->num_nodes, orig_scope->num_nodes);
      }
    }
    // WHERE: merged keeps it only when identical.
    if (m->where.has_value()) {
      EXPECT_EQ(m->where, original->where);
    }
  }
}

TEST_P(MergeSubsumptionTest, MergeIsSymmetricUpToId) {
  auto a = query::ParseQuery(GetParam().a);
  auto b = query::ParseQuery(GetParam().b);
  a->id = "a";
  b->id = "b";
  auto ab = query::Merge(*a, *b);
  auto ba = query::Merge(*b, *a);
  ASSERT_TRUE(ab.ok() && ba.ok());
  ab->id.clear();
  ba->id.clear();
  EXPECT_EQ(ab->freshness, ba->freshness);
  EXPECT_EQ(ab->every, ba->every);
  EXPECT_EQ(ab->duration, ba->duration);
  EXPECT_EQ(ab->where, ba->where);
  EXPECT_EQ(ab->from, ba->from);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, MergeSubsumptionTest,
    ::testing::Values(
        MergePair{"adhoc_all_nodes",
                  "SELECT t FROM adHocNetwork(all,3) FRESHNESS 10sec "
                  "DURATION 1hour EVERY 15sec",
                  "SELECT t FROM adHocNetwork(all,1) FRESHNESS 20sec "
                  "DURATION 2hour EVERY 30sec"},
        MergePair{"adhoc_counted_nodes",
                  "SELECT t FROM adHocNetwork(5,2) DURATION 1hour "
                  "EVERY 5sec",
                  "SELECT t FROM adHocNetwork(9,4) DURATION 3hour "
                  "EVERY 7sec"},
        MergePair{"where_differs",
                  "SELECT t WHERE accuracy<=0.2 DURATION 1hour EVERY 10sec",
                  "SELECT t WHERE accuracy<=0.5 DURATION 1hour EVERY 9sec"},
        MergePair{"where_equal",
                  "SELECT t WHERE accuracy<=0.2 DURATION 1hour EVERY 8sec",
                  "SELECT t WHERE accuracy<=0.2 DURATION 2hour EVERY 4sec"},
        MergePair{"sample_durations",
                  "SELECT t DURATION 30 samples",
                  "SELECT t DURATION 90 samples"},
        MergePair{"freshness_event",
                  "SELECT t FRESHNESS 5sec DURATION 1hour "
                  "EVENT AVG(t)>25",
                  "SELECT t FRESHNESS 50sec DURATION 4hour "
                  "EVENT AVG(t)>25"}));

// --- Cancel re-merge keeps subsumption ---------------------------------------
// Seeded submit/cancel sequences on one Facade: after every step, the one
// provider's query must subsume every original still in the cluster.

/// Transportless provider; the test only reads its (merged) query.
class ClusterProbeProvider final : public core::CxtProvider {
 public:
  ClusterProbeProvider(sim::Simulation& sim, query::CxtQuery q,
                       Callbacks callbacks,
                       std::vector<ClusterProbeProvider*>& live)
      : core::CxtProvider(sim, std::move(q), std::move(callbacks)),
        live_(live) {
    live_.push_back(this);
  }
  ~ClusterProbeProvider() override { std::erase(live_, this); }

  query::SourceSel kind() const noexcept override {
    return query::SourceSel::kAdHocNetwork;
  }
  const char* transport() const noexcept override { return "probe"; }

 protected:
  void DoStart() override {}
  void DoStop() override {}

 private:
  std::vector<ClusterProbeProvider*>& live_;
};

/// One mergeable query with seeded scope, WHERE, FRESHNESS and EVERY.
query::CxtQuery GenerateClusterQuery(Rng& rng, const std::string& id) {
  const std::int64_t nodes = rng.UniformInt(0, 10);
  std::string text = "SELECT temperature FROM adHocNetwork(" +
                     (nodes == 0 ? std::string("all")
                                 : std::to_string(nodes)) +
                     "," + std::to_string(rng.UniformInt(1, 4)) + ")";
  switch (rng.UniformInt(0, 2)) {
    case 0: text += " WHERE accuracy<=0.2"; break;
    case 1: text += " WHERE accuracy<=0.5"; break;
    default: break;
  }
  if (rng.Bernoulli(0.7)) {
    text += " FRESHNESS " + std::to_string(rng.UniformInt(1, 60)) + " sec";
  }
  text += " DURATION 1 hour EVERY " + std::to_string(rng.UniformInt(1, 60)) +
          " sec";
  auto q = query::ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text;
  q->id = id;
  return *std::move(q);
}

void ExpectSubsumes(const query::CxtQuery& m, const query::CxtQuery& q) {
  const auto& merged_scope = m.from.sources[0].scope;
  const auto& scope = q.from.sources[0].scope;
  ASSERT_TRUE(merged_scope.has_value() && scope.has_value());
  EXPECT_GE(merged_scope->num_hops, scope->num_hops) << q.id;
  if (!merged_scope->all_nodes()) {
    EXPECT_FALSE(scope->all_nodes()) << q.id;
    EXPECT_GE(merged_scope->num_nodes, scope->num_nodes) << q.id;
  }
  if (m.freshness.has_value()) {
    ASSERT_TRUE(q.freshness.has_value()) << q.id;
    EXPECT_GE(*m.freshness, *q.freshness) << q.id;
  }
  ASSERT_TRUE(m.every.has_value() && q.every.has_value());
  EXPECT_LE(*m.every, *q.every) << q.id;
  if (m.where.has_value()) {
    EXPECT_EQ(m.where, q.where) << q.id;
  }
}

/// Often one of three fixed clause sets, so a cancelled original repeats
/// another's bounds exactly (the facade's no-fold path); more often each
/// clause from two or three values, so two queries also differ in just
/// one clause; now and then a random query. Now and then the FROM has no
/// scope; the priority is any.
query::CxtQuery GenerateDuplicateClusterQuery(Rng& rng, const std::string& id) {
  static const char* const kClauses[] = {
      " FROM adHocNetwork(3,2) WHERE accuracy<=0.2 FRESHNESS 10 sec"
      " DURATION 1 hour EVERY 10 sec",
      " FROM adHocNetwork(all,1) FRESHNESS 30 sec DURATION 2 hours"
      " EVERY 5 sec",
      " FROM adHocNetwork(5,3) WHERE accuracy<=0.5 DURATION 20 samples"
      " EVERY 30 sec",
  };
  const auto pick = [&rng](std::initializer_list<const char*> options) {
    return std::string(options.begin()[rng.UniformInt(
        0, static_cast<std::int64_t>(options.size()) - 1)]);
  };
  query::CxtQuery q;
  const std::int64_t kind = rng.UniformInt(0, 9);
  if (kind < 9) {
    const std::string text =
        kind < 2 ? std::string("SELECT temperature") +
                       kClauses[rng.UniformInt(0, 2)]
                 : "SELECT temperature FROM adHocNetwork" +
                       pick({"(3,2)", "(all,1)"}) +
                       pick({"", " WHERE accuracy<=0.2",
                             " WHERE accuracy<=0.2"}) +
                       pick({"", " FRESHNESS 10 sec"}) + " DURATION" +
                       pick({" 1 hour", " 2 hours", " 20 samples"}) +
                       " EVERY" + pick({" 5 sec", " 10 sec"});
    auto parsed = query::ParseQuery(text);
    EXPECT_TRUE(parsed.ok()) << text;
    q = *std::move(parsed);
  } else {
    q = GenerateClusterQuery(rng, id);
  }
  if (rng.Bernoulli(0.1)) q.from.sources[0].scope.reset();
  q.priority = static_cast<query::QueryPriority>(rng.UniformInt(0, 2));
  q.id = id;
  return q;
}

/// Seeded submit/cancel steps on one facade. After each step the
/// provider's query must equal query::MergeAll of the live originals in
/// submission order, and subsume each of them. `duplicates` draws from
/// GenerateDuplicateClusterQuery and cancels the front original half the
/// time.
void CheckCancelRemerge(std::uint64_t seed, bool duplicates) {
  sim::Simulation sim{seed};
  Rng rng{seed};
  std::vector<ClusterProbeProvider*> providers;
  core::Facade facade(
      sim, query::SourceSel::kAdHocNetwork,
      [&](core::QueryId, query::CxtQuery q,
          core::CxtProvider::Callbacks callbacks) {
        return std::make_unique<ClusterProbeProvider>(
            sim, std::move(q), std::move(callbacks), providers);
      });
  struct Live {
    query::CxtQuery query;
    core::ClusterRef ref;
  };
  // Keyed by QueryId, which grows with submission: map order is
  // submission order.
  std::map<core::QueryId, Live> live;
  core::QueryId next = 1;
  int same_bounds_cancels = 0;
  int same_bounds_front_cancels = 0;
  // Fewer live originals make a leaving one more often the only holder
  // of a bound.
  const int steps = duplicates ? 1000 : 200;
  const std::size_t max_live = duplicates ? 6 : 12;
  for (int step = 0; step < steps; ++step) {
    if (live.empty() || (live.size() < max_live && rng.Bernoulli(0.55))) {
      const std::string id = "q" + std::to_string(next);
      query::CxtQuery q = duplicates ? GenerateDuplicateClusterQuery(rng, id)
                                     : GenerateClusterQuery(rng, id);
      const auto ref = facade.Submit(next, q);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      live.emplace(next++, Live{std::move(q), *ref});
    } else {
      auto victim = live.begin();
      if (!duplicates || rng.Bernoulli(0.5)) {
        std::advance(victim,
                     rng.UniformInt(
                         0, static_cast<std::int64_t>(live.size()) - 1));
      }
      for (const auto& [qid, other] : live) {
        if (qid != victim->first &&
            query::SameMergeBounds(victim->second.query, other.query)) {
          ++same_bounds_cancels;
          if (victim == live.begin()) ++same_bounds_front_cancels;
          break;
        }
      }
      facade.Cancel(victim->first, victim->second.ref);
      live.erase(victim);
    }
    sim.RunUntil(sim.Now());  // reap a stopped provider
    ASSERT_EQ(facade.active_original_count(), live.size());
    if (live.empty()) {
      EXPECT_TRUE(providers.empty()) << "step " << step;
      continue;
    }
    ASSERT_EQ(providers.size(), 1u) << "step " << step;
    const query::CxtQuery& merged = providers.front()->query();
    std::vector<query::CxtQuery> originals;
    for (const auto& [qid, original] : live) {
      if (!duplicates) ExpectSubsumes(merged, original.query);
      originals.push_back(original.query);
    }
    const auto oracle = query::MergeAll(originals);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(merged, *oracle) << "merged " << merged.ToString()
                               << "\noracle " << oracle->ToString();
    if (::testing::Test::HasFailure()) {
      FAIL() << "seed " << seed << " step " << step;
    }
  }
  if (duplicates) {
    EXPECT_GT(same_bounds_cancels, 20) << "seed " << seed;
    EXPECT_GT(same_bounds_front_cancels, 0) << "seed " << seed;
  }
}

class CancelRemergeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CancelRemergeTest, ProviderSubsumesEveryRemainingOriginal) {
  CheckCancelRemerge(GetParam(), /*duplicates=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CancelRemergeTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99991u));

class CancelRemergeDuplicateTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CancelRemergeDuplicateTest, MergedQueryEqualsMergeAllOfRemaining) {
  CheckCancelRemerge(GetParam(), /*duplicates=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CancelRemergeDuplicateTest,
                         ::testing::Values(3u, 11u, 2024u, 31337u, 777777u));

// --- Compiled post-extraction against query::PostExtract ---------------------
// Seeded originals join one facade cluster (and sometimes leave it), and
// seeded items go straight into the cluster's delivery callback. The
// QueryIds the facade hands over, in order, must equal a plain loop over
// query::PostExtract on the live originals in submission order.

/// A literal from a few thresholds (so items hit them exactly), NaN,
/// an infinity, a string or a bool.
CxtValue GenerateLiteral(Rng& rng) {
  static const double kThresholds[] = {-1.0, 0.0, 0.5, 1.0, 2.0};
  switch (rng.UniformInt(0, 9)) {
    case 0: return std::nan("");
    case 1: return std::numeric_limits<double>::infinity();
    case 2: return rng.Bernoulli(0.5) ? CxtValue{"trusted"} : CxtValue{"1"};
    case 3: return rng.Bernoulli(0.5);
    default: return kThresholds[rng.UniformInt(0, 4)];
  }
}

/// One comparison over `value`, the SELECT type, `type`, metadata fields,
/// another context type or an unknown name, under any operator.
query::Comparison GenerateWhereComparison(Rng& rng) {
  static const char* const kFields[] = {
      "value", "temperature", "value", "temperature", "type",
      "accuracy", "trust", "privacy", "light", "bogus"};
  query::Comparison c;
  c.field = kFields[rng.UniformInt(0, 9)];
  c.op = static_cast<query::CompareOp>(rng.UniformInt(0, 5));
  c.literal = GenerateLiteral(rng);
  return c;
}

query::Predicate GenerateWhere(Rng& rng, int depth) {
  if (depth == 0 || rng.Bernoulli(0.5)) {
    return query::Predicate::Leaf(GenerateWhereComparison(rng));
  }
  switch (rng.UniformInt(0, 2)) {
    case 0:
      return query::Predicate::And(
          {GenerateWhere(rng, depth - 1), GenerateWhere(rng, depth - 1)});
    case 1:
      return query::Predicate::Or(
          {GenerateWhere(rng, depth - 1), GenerateWhere(rng, depth - 1)});
    default:
      return query::Predicate::Not(GenerateWhere(rng, depth - 1));
  }
}

/// A periodic intSensor temperature query (all of them merge): a third
/// a plain threshold on value or temperature, the rest without a WHERE
/// or with a generated one; a quarter with a FRESHNESS.
query::CxtQuery GeneratePostExtractOriginal(Rng& rng) {
  auto q = query::ParseQuery(
      "SELECT temperature FROM intSensor DURATION 1 hour EVERY 5 sec");
  EXPECT_TRUE(q.ok());
  const std::int64_t shape = rng.UniformInt(0, 5);
  if (shape < 2) {
    query::Comparison c;
    c.field = rng.Bernoulli(0.5) ? "value" : "temperature";
    c.op = static_cast<query::CompareOp>(rng.UniformInt(2, 5));
    c.literal = GenerateLiteral(rng);
    q->where = query::Predicate::Leaf(std::move(c));
  } else if (shape < 5) {
    q->where = GenerateWhere(rng, 2);
  }
  if (rng.Bernoulli(0.25)) {
    q->freshness = std::chrono::seconds{rng.UniformInt(1, 30)};
  }
  return *std::move(q);
}

/// An item of the SELECT type or not, with a numeric value (thresholds,
/// NaN, infinities), a string, a bool or a point; expired and stale now
/// and then; metadata sometimes set.
CxtItem GeneratePostExtractItem(Rng& rng, SimTime now) {
  static const double kValues[] = {-1.0, 0.0, 0.5, 1.0, 2.0, 1.5};
  CxtItem item;
  item.id = "item";
  item.type = rng.Bernoulli(0.9) ? vocab::kTemperature : vocab::kLight;
  switch (rng.UniformInt(0, 11)) {
    case 0: item.value = std::nan(""); break;
    case 1: item.value = std::numeric_limits<double>::infinity(); break;
    case 2: item.value = -std::numeric_limits<double>::infinity(); break;
    case 3: item.value = rng.Bernoulli(0.5) ? "walking" : "1"; break;
    case 4: item.value = rng.Bernoulli(0.5); break;
    case 5: item.value = GeoPoint{60.0, 24.0}; break;
    default: item.value = kValues[rng.UniformInt(0, 5)]; break;
  }
  item.timestamp = now - std::chrono::seconds{rng.UniformInt(0, 40)};
  if (rng.Bernoulli(0.3)) {
    item.lifetime = std::chrono::seconds{rng.UniformInt(1, 60)};
  }
  if (rng.Bernoulli(0.5)) item.metadata.accuracy = rng.Uniform(0.0, 2.0);
  item.metadata.trust = static_cast<TrustLevel>(rng.UniformInt(0, 2));
  item.metadata.privacy = static_cast<PrivacyLevel>(rng.UniformInt(0, 2));
  return item;
}

class CompiledPostExtractTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledPostExtractTest, MatchesPlainPostExtractLoop) {
  const std::uint64_t seed = GetParam();
  sim::Simulation sim{seed};
  Rng rng{seed};
  std::vector<ClusterProbeProvider*> providers;
  std::function<void(const CxtItem&)> deliver;
  core::Facade facade(
      sim, query::SourceSel::kIntSensor,
      [&](core::QueryId, query::CxtQuery q,
          core::CxtProvider::Callbacks callbacks) {
        deliver = callbacks.deliver;
        return std::make_unique<ClusterProbeProvider>(
            sim, std::move(q), std::move(callbacks), providers);
      });
  std::vector<core::QueryId> matched;
  int deliveries = 0;
  facade.SetDelivery(
      [&](std::span<const core::QueryId> ids, const CxtItem&) {
        ++deliveries;
        matched.assign(ids.begin(), ids.end());
      });
  struct Live {
    query::CxtQuery query;
    core::ClusterRef ref;
  };
  // Keyed by QueryId, which grows with submission: map order is
  // submission order.
  std::map<core::QueryId, Live> live;
  core::QueryId next = 1;
  sim.RunFor(1min);
  std::size_t items = 0;
  std::size_t nonempty = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::int64_t dice = rng.UniformInt(0, 19);
    if (live.empty() || (dice == 0 && live.size() < 40)) {
      query::CxtQuery q = GeneratePostExtractOriginal(rng);
      q.id = "q" + std::to_string(next);
      const auto ref = facade.Submit(next, q);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      live.emplace(next++, Live{std::move(q), *ref});
      continue;
    }
    if (dice == 1 && live.size() > 1) {
      auto victim = live.begin();
      std::advance(victim, rng.UniformInt(
                               0, static_cast<std::int64_t>(live.size()) - 1));
      facade.Cancel(victim->first, victim->second.ref);
      live.erase(victim);
      continue;
    }
    sim.RunFor(std::chrono::milliseconds{rng.UniformInt(0, 3000)});
    const CxtItem item = GeneratePostExtractItem(rng, sim.Now());
    std::vector<core::QueryId> expected;
    for (const auto& [qid, original] : live) {
      if (query::PostExtract(original.query, item, sim.Now())) {
        expected.push_back(qid);
      }
    }
    matched.clear();
    const int before = deliveries;
    ASSERT_TRUE(deliver);
    deliver(item);
    ASSERT_EQ(deliveries - before, expected.empty() ? 0 : 1);
    ASSERT_EQ(matched, expected)
        << "seed " << seed << " step " << step << " item "
        << item.ToString();
    ++items;
    if (!expected.empty()) ++nonempty;
  }
  EXPECT_GT(items, 3000u);
  EXPECT_GT(nonempty, items / 4);
  EXPECT_LT(nonempty, items);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledPostExtractTest,
                         ::testing::Values(5u, 17u, 404u, 8191u, 65537u));

// --- Predicate algebra -------------------------------------------------------

class PredicateAlgebraTest : public ::testing::TestWithParam<std::uint64_t> {
};

query::Predicate GenerateComparison(Rng& rng) {
  query::Comparison c;
  const int pick = static_cast<int>(rng.UniformInt(0, 2));
  c.field = pick == 0 ? "value" : (pick == 1 ? "accuracy" : "correctness");
  c.op = static_cast<query::CompareOp>(rng.UniformInt(0, 5));
  c.literal = rng.Uniform(-10, 10);
  return query::Predicate::Leaf(std::move(c));
}

TEST_P(PredicateAlgebraTest, DoubleNegationIsIdentity) {
  Rng rng{GetParam()};
  for (int i = 0; i < 100; ++i) {
    const query::Predicate p = GenerateComparison(rng);
    const query::Predicate not_not_p =
        query::Predicate::Not(query::Predicate::Not(p));
    CxtItem item;
    item.type = "t";
    item.value = rng.Uniform(-10, 10);
    item.metadata.accuracy = rng.Uniform(0, 10);
    item.metadata.correctness = rng.Uniform(0, 1);
    const auto direct = query::EvalWhere(p, item);
    const auto doubled = query::EvalWhere(not_not_p, item);
    ASSERT_EQ(direct.ok(), doubled.ok());
    if (direct.ok()) {
      EXPECT_EQ(*direct, *doubled);
    }
  }
}

TEST_P(PredicateAlgebraTest, DeMorgan) {
  Rng rng{GetParam()};
  for (int i = 0; i < 100; ++i) {
    const query::Predicate a = GenerateComparison(rng);
    const query::Predicate b = GenerateComparison(rng);
    // NOT (a AND b) == (NOT a) OR (NOT b)
    const auto lhs = query::Predicate::Not(query::Predicate::And({a, b}));
    const auto rhs = query::Predicate::Or(
        {query::Predicate::Not(a), query::Predicate::Not(b)});
    CxtItem item;
    item.type = "t";
    item.value = rng.Uniform(-10, 10);
    item.metadata.accuracy = rng.Uniform(0, 10);
    item.metadata.correctness = rng.Uniform(0, 1);
    const auto l = query::EvalWhere(lhs, item);
    const auto r = query::EvalWhere(rhs, item);
    ASSERT_TRUE(l.ok() && r.ok());
    EXPECT_EQ(*l, *r);
  }
}

TEST_P(PredicateAlgebraTest, EqAndNeArePartition) {
  Rng rng{GetParam()};
  for (int i = 0; i < 100; ++i) {
    query::Comparison eq;
    eq.field = "value";
    eq.op = query::CompareOp::kEq;
    eq.literal = rng.Uniform(-3, 3);
    query::Comparison ne = eq;
    ne.op = query::CompareOp::kNe;
    CxtItem item;
    item.type = "t";
    item.value = rng.Uniform(-3, 3);
    const auto e = query::EvalWhere(query::Predicate::Leaf(eq), item);
    const auto n = query::EvalWhere(query::Predicate::Leaf(ne), item);
    ASSERT_TRUE(e.ok() && n.ok());
    EXPECT_NE(*e, *n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateAlgebraTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// --- Simulation determinism ---------------------------------------------------

class DeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismTest, SameSeedSameTrajectory) {
  const auto run = [&](std::uint64_t seed) {
    sim::Simulation sim{seed};
    Rng rng = sim.rng().Fork();
    std::vector<std::int64_t> trace;
    for (int i = 0; i < 20; ++i) {
      sim.ScheduleAfter(FromMillis(rng.Uniform(1, 100)), [&, i] {
        trace.push_back(sim.Now().time_since_epoch().count() + i);
      });
    }
    sim.Run();
    return trace;
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
  EXPECT_NE(run(GetParam()), run(GetParam() + 1));
}

TEST_P(DeterminismTest, EnergyIntegralMatchesClosedForm) {
  sim::Simulation sim{GetParam()};
  energy::EnergyModel model{sim};
  Rng rng{GetParam()};
  double expected = 0.0;
  double current_mw = 0.0;
  SimTime last = sim.Now();
  for (int i = 0; i < 200; ++i) {
    const auto dwell = FromMillis(rng.Uniform(1, 5'000));
    sim.RunFor(dwell);
    expected += current_mw / 1e3 * ToSeconds(sim.Now() - last);
    last = sim.Now();
    current_mw = rng.Uniform(0, 1'500);
    model.SetComponentPower("load", current_mw);
  }
  sim.RunFor(1s);
  expected += current_mw / 1e3 * ToSeconds(sim.Now() - last);
  EXPECT_NEAR(model.TotalEnergyJoules(), expected, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         ::testing::Values(7, 77, 777, 7777));

// --- SM content-based routing vs. a naive BFS oracle ------------------------

/// The routing BFS written the plain way: hash-map depth/parent tables, a
/// std::queue, and a fresh neighbor vector per expansion, read by a Medium
/// range scan rather than through WifiController's kept list. Same
/// visiting rules as SmRuntime: the source is always expanded, a neighbor
/// joins when it is unvisited, not excluded, has a runtime and
/// participates.
struct NaiveBfs {
  std::vector<net::NodeId> order;
  std::unordered_map<net::NodeId, net::NodeId> parent;
  std::unordered_map<net::NodeId, int> depth;
};

/// What the oracle reads: the SM overlay and the radios under it.
struct Overlay {
  const sm::SmBus& sm;
  const net::Medium& medium;
  const net::WifiBus& wifi;
};

/// The enabled WiFi peers in range of `node`, by a fresh range scan.
std::vector<net::NodeId> ScannedNeighbors(const Overlay& overlay,
                                          net::NodeId node) {
  const net::WifiController* self = overlay.wifi.Find(node);
  if (self == nullptr || !self->enabled()) return {};
  return overlay.medium.NodesWithin(node, self->range_m(), [&](net::NodeId n) {
    const net::WifiController* peer = overlay.wifi.Find(n);
    return peer != nullptr && peer->enabled();
  });
}

NaiveBfs RunNaiveBfs(const Overlay& overlay, net::NodeId source,
                     const std::unordered_set<net::NodeId>& exclude,
                     int max_depth,
                     const std::function<bool(net::NodeId)>& stop) {
  NaiveBfs bfs;
  std::queue<net::NodeId> frontier;
  bfs.depth[source] = 0;
  bfs.order.push_back(source);
  frontier.push(source);
  while (!frontier.empty()) {
    const net::NodeId current = frontier.front();
    frontier.pop();
    if (max_depth > 0 && bfs.depth[current] >= max_depth) continue;
    for (const net::NodeId nb : ScannedNeighbors(overlay, current)) {
      if (bfs.depth.contains(nb) || exclude.contains(nb)) continue;
      sm::SmRuntime* rt = overlay.sm.Find(nb);
      if (rt == nullptr || !rt->participating()) continue;
      bfs.depth[nb] = bfs.depth[current] + 1;
      bfs.parent[nb] = current;
      bfs.order.push_back(nb);
      if (stop && stop(nb)) return bfs;
      frontier.push(nb);
    }
  }
  return bfs;
}

bool Exposes(const Overlay& overlay, net::NodeId n, const std::string& tag) {
  sm::SmRuntime* rt = overlay.sm.Find(n);
  return rt != nullptr && rt->tags().Has(tag);
}

Result<net::NodeId> NaiveNextHop(
    const Overlay& overlay, net::NodeId source, const std::string& tag,
    const std::unordered_set<net::NodeId>& exclude) {
  const NaiveBfs bfs = RunNaiveBfs(overlay, source, exclude, 0, {});
  for (const net::NodeId candidate : bfs.order) {
    if (candidate == source || !Exposes(overlay, candidate, tag)) continue;
    net::NodeId hop = candidate;
    while (bfs.parent.at(hop) != source) hop = bfs.parent.at(hop);
    return hop;
  }
  return NotFound("unreachable");
}

Result<int> NaiveHopDistance(const Overlay& overlay, net::NodeId source,
                             const std::string& tag) {
  if (Exposes(overlay, source, tag)) return 0;
  const NaiveBfs bfs = RunNaiveBfs(overlay, source, {}, 0, {});
  for (const net::NodeId candidate : bfs.order) {
    if (candidate != source && Exposes(overlay, candidate, tag)) {
      return bfs.depth.at(candidate);
    }
  }
  return NotFound("unreachable");
}

std::vector<std::pair<net::NodeId, int>> NaiveNodesWithTag(
    const Overlay& overlay, net::NodeId source, const std::string& tag,
    int max_hops) {
  const NaiveBfs bfs = RunNaiveBfs(overlay, source, {}, max_hops, {});
  std::vector<std::pair<net::NodeId, int>> out;
  for (const net::NodeId candidate : bfs.order) {
    if (candidate != source && Exposes(overlay, candidate, tag)) {
      out.emplace_back(candidate, bfs.depth.at(candidate));
    }
  }
  return out;
}

/// A random topology: phones scattered over 500 m x 500 m (100 m WiFi
/// range), some not participating, some with the radio off, some
/// exposing the target tag; plus a runtime-less radio in the middle of
/// the id range and a WiFi-only node registered after the last runtime.
/// runtimes_[i] belongs to wifis_[i] and nodes_[i] (nullptr = none).
class SmRoutingOracleTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static constexpr int kPhones = 48;
  static constexpr const char* kTag = "cxt.temperature";
  static constexpr double kSide = 500.0;

  void Build(Rng& rng) {
    for (int i = 0; i < kPhones; ++i) {
      AddRadio(rng);
      if (rng.Bernoulli(0.1)) wifis_.back()->SetEnabled(false);
      if (i == kPhones / 2) {
        runtimes_.push_back(nullptr);  // runtime-less radio
        continue;
      }
      AddRuntime(rng);
    }
    AddRadio(rng);  // WiFi only, id beyond every runtime
    runtimes_.push_back(nullptr);
  }

  void AddRadio(Rng& rng) {
    const std::string name = "p" + std::to_string(phones_.size());
    phones_.push_back(std::make_unique<phone::SmartPhone>(
        sim_, phone::Nokia9500(), name));
    const net::NodeId node = medium_.Register(
        name, {rng.Uniform(0, kSide), rng.Uniform(0, kSide)});
    nodes_.push_back(node);
    wifis_.push_back(std::make_unique<net::WifiController>(
        sim_, wifi_bus_, *phones_.back(), node));
    wifis_.back()->SetEnabled(true);
  }

  void AddRuntime(Rng& rng) {
    runtimes_.push_back(
        std::make_unique<sm::SmRuntime>(sim_, bus_, *wifis_.back()));
    sm::SmRuntime& rt = *runtimes_.back();
    rt.SetParticipating(!rng.Bernoulli(0.15));
    rt.tags().Upsert(core::HomeTagName(rt.node()), "1");
    if (rng.Bernoulli(0.2)) rt.tags().Upsert(kTag, "14");
  }

  /// Moves a fifth of the phones: inside their 100 m grid cell, or to a
  /// random spot in another cell.
  void Move(Rng& rng, bool cross_cell) {
    ASSERT_EQ(medium_.cell_size_m(), 100.0);
    for (const net::NodeId n : nodes_) {
      if (!medium_.Exists(n) || !rng.Bernoulli(0.2)) continue;
      const net::Position from = *medium_.GetPosition(n);
      const double cx = std::floor(from.x / 100.0);
      const double cy = std::floor(from.y / 100.0);
      net::Position to{(cx + rng.Uniform(0, 1)) * 100.0,
                       (cy + rng.Uniform(0, 1)) * 100.0};
      while (cross_cell && std::floor(to.x / 100.0) == cx &&
             std::floor(to.y / 100.0) == cy) {
        to = {rng.Uniform(0, kSide), rng.Uniform(0, kSide)};
      }
      ASSERT_TRUE(medium_.SetPosition(n, to).ok());
    }
  }

  std::unordered_set<net::NodeId> RandomExclude(Rng& rng) {
    std::unordered_set<net::NodeId> exclude;
    for (const net::NodeId n : nodes_) {
      if (rng.Bernoulli(0.1)) exclude.insert(n);
    }
    if (rng.Bernoulli(0.5)) exclude.insert(nodes_.back() + 1000);  // unknown
    return exclude;
  }

  /// Every routing query from every live runtime, against the oracle.
  void CheckAll(Rng& rng) {
    for (const auto& rt : runtimes_) {
      if (rt == nullptr) continue;
      const net::NodeId src = rt->node();
      const std::string home = core::HomeTagName(
          nodes_[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<std::int64_t>(nodes_.size()) - 1))]);
      for (const std::string& tag : {std::string{kTag}, home,
                                     std::string{"absent"}}) {
        const auto exclude =
            rng.Bernoulli(0.5) ? RandomExclude(rng)
                               : std::unordered_set<net::NodeId>{};
        const auto want = NaiveNextHop(overlay_, src, tag, exclude);
        const auto got = rt->NextHopTowardTag(tag, exclude);
        ASSERT_EQ(got.ok(), want.ok()) << "node " << src << " tag " << tag;
        if (want.ok()) {
          ASSERT_EQ(*got, *want) << "node " << src << " tag " << tag;
        }
        const auto want_d = NaiveHopDistance(overlay_, src, tag);
        const auto got_d = rt->HopDistanceToTag(tag);
        ASSERT_EQ(got_d.ok(), want_d.ok()) << "node " << src;
        if (want_d.ok()) {
          ASSERT_EQ(*got_d, *want_d) << "node " << src;
          if (*want_d > 1) ++multi_hop_routes_;
        }
        for (const int max_hops : {0, 1, 2, 4}) {
          ASSERT_EQ(rt->NodesWithTag(tag, max_hops),
                    NaiveNodesWithTag(overlay_, src, tag, max_hops))
              << "node " << src << " max_hops " << max_hops;
        }
      }
    }
  }

  int multi_hop_routes_ = 0;  // keeps the comparison from being vacuous
  sim::Simulation sim_{GetParam()};
  net::Medium medium_;
  net::WifiBus wifi_bus_{medium_};
  sm::SmBus bus_;
  const Overlay overlay_{bus_, medium_, wifi_bus_};
  std::vector<std::unique_ptr<phone::SmartPhone>> phones_;
  std::vector<net::NodeId> nodes_;
  std::vector<std::unique_ptr<net::WifiController>> wifis_;
  std::vector<std::unique_ptr<sm::SmRuntime>> runtimes_;
};

TEST_P(SmRoutingOracleTest, MatchesNaiveBfs) {
  Rng rng{GetParam()};
  Build(rng);
  CheckAll(rng);

  // Each round below changes the topology one way, then re-checks every
  // query: the previous round's queries left every neighbor list warm,
  // so a change that failed to invalidate them would route off a stale
  // list here.

  // A runtime is destroyed, participation and radios flip.
  runtimes_[3].reset();
  for (std::size_t i = 0; i < runtimes_.size(); ++i) {
    if (runtimes_[i] == nullptr) continue;
    if (rng.Bernoulli(0.1)) {
      runtimes_[i]->SetParticipating(!runtimes_[i]->participating());
    }
    if (rng.Bernoulli(0.05)) {
      wifis_[i]->SetEnabled(!wifis_[i]->enabled());
    }
  }
  CheckAll(rng);

  Move(rng, /*cross_cell=*/false);
  CheckAll(rng);
  Move(rng, /*cross_cell=*/true);
  CheckAll(rng);

  // A phone with a runtime joins mid-run.
  AddRadio(rng);
  AddRuntime(rng);
  CheckAll(rng);

  // A phone leaves the medium; its runtime and radio stay.
  medium_.Unregister(nodes_[5]);
  CheckAll(rng);

  // Radios fail, then recover.
  std::vector<net::WifiController*> failed;
  for (const auto& wifi : wifis_) {
    if (rng.Bernoulli(0.15)) failed.push_back(wifi.get());
  }
  for (net::WifiController* wifi : failed) wifi->SetFailed(true);
  CheckAll(rng);
  for (net::WifiController* wifi : failed) wifi->SetFailed(false);
  CheckAll(rng);

  // The runtime-less radio is destroyed; its node stays registered.
  wifis_[kPhones / 2].reset();
  CheckAll(rng);

  EXPECT_GT(multi_hop_routes_, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmRoutingOracleTest,
                         ::testing::Values(2011, 2012, 2013, 2021, 2022));

// --- Wire truncation: every proper prefix is a Status, never a crash --------

TEST(WireTruncationTest, EveryPrefixOfASmartMessageFrameFails) {
  sm::SmartMessage sm;
  sm.id = "sm-7";
  sm.code_brick = "finder";
  sm.data = {std::byte{1}, std::byte{2}, std::byte{3}};
  sm.origin = 5;
  sm.target_tag = "cxt.temperature";
  sm.hop_count = 2;
  sm.max_hops = 6;
  sm.visited = {5, 9};
  // A cached-code frame: the code bytes of an uncached one are opaque
  // padding whose length is not on the wire.
  const auto wire = sm.Serialize(/*code_bytes=*/4000,
                                 /*code_cached_at_receiver=*/true);
  ASSERT_TRUE(sm::SmartMessage::Deserialize(wire).ok());
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const std::vector<std::byte> prefix(wire.begin(),
                                        wire.begin() + static_cast<long>(n));
    const auto back = sm::SmartMessage::Deserialize(prefix);
    ASSERT_FALSE(back.ok()) << "prefix of " << n << " bytes";
    EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireTruncationTest, EveryPrefixOfAFinderStateFails) {
  sim::Simulation sim;
  auto query = query::ParseQuery(
      "SELECT temperature FROM adHocNetwork(10,3) WHERE accuracy=0.2 "
      "FRESHNESS 30 sec DURATION 1 hour");
  ASSERT_TRUE(query.ok());
  query->id = "q1";
  core::FinderState state;
  state.query = *query;
  state.remaining_nodes = 2;
  Rng rng{5};
  for (int i = 0; i < 2; ++i) {
    state.results.push_back(core::FinderState::Collected{GenerateItem(rng),
                                                         i + 1});
  }
  const auto payload = state.Encode();
  ASSERT_TRUE(core::FinderState::Decode(payload).ok());
  for (std::size_t n = 0; n < payload.size(); ++n) {
    const std::vector<std::byte> prefix(
        payload.begin(), payload.begin() + static_cast<long>(n));
    ASSERT_FALSE(core::FinderState::Decode(prefix).ok())
        << "prefix of " << n << " bytes";
  }
}

// --- NMEA round trip across the globe ----------------------------------------

struct NmeaPoint {
  double lat;
  double lon;
};

class NmeaSweepTest : public ::testing::TestWithParam<NmeaPoint> {};

TEST_P(NmeaSweepTest, RoundTripsWithinCentidegree) {
  sensors::GpsFix fix;
  fix.position = {GetParam().lat, GetParam().lon};
  fix.speed_knots = 7.3;
  fix.course_deg = 211.0;
  fix.time = kSimEpoch + 12'345s;
  const auto parsed = sensors::ParseNmeaBurst(sensors::BuildNmeaBurst(fix));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NEAR(parsed->position.lat, fix.position.lat, 1e-4);
  EXPECT_NEAR(parsed->position.lon, fix.position.lon, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Globe, NmeaSweepTest,
    ::testing::Values(NmeaPoint{60.15, 24.90}, NmeaPoint{0.0, 0.0},
                      NmeaPoint{-33.85, 151.21}, NmeaPoint{51.5, -0.12},
                      NmeaPoint{-54.8, -68.3}, NmeaPoint{89.9, 179.9},
                      NmeaPoint{-89.9, -179.9}));

// --- BT segmentation monotonicity -------------------------------------------

class SegmentationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SegmentationTest, WireBytesMonotoneAndBounded) {
  sim::Simulation sim;
  net::Medium medium;
  net::BluetoothBus bus{medium};
  phone::SmartPhone phone{sim, phone::Nokia6630(), "p"};
  const auto node = medium.Register("p", {0, 0});
  net::BluetoothController bt{sim, bus, phone, node};
  const std::size_t n = GetParam();
  EXPECT_GE(bt.WireBytes(n), n);
  EXPECT_GE(bt.WireBytes(n + 1), bt.WireBytes(n));
  // Overhead is bounded by one extra header per payload chunk.
  const auto& p = phone.profile();
  const std::size_t max_overhead =
      (n / static_cast<std::size_t>(p.bt_segment_payload_bytes) + 1) *
      static_cast<std::size_t>(p.bt_segment_overhead_bytes);
  EXPECT_LE(bt.WireBytes(n) - n, max_overhead);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SegmentationTest,
                         ::testing::Values(1, 53, 95, 96, 97, 136, 192, 340,
                                           1000, 4096));

}  // namespace
}  // namespace contory
