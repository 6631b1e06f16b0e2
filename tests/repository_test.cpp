// Unit tests for the local CxtRepository and the CxtAggregator.
#include <gtest/gtest.h>

#include "core/model/vocabulary.hpp"
#include "core/providers/aggregator.hpp"
#include "core/repository.hpp"

namespace contory::core {
namespace {

using namespace std::chrono_literals;

CxtItem Item(const std::string& id, const std::string& type, double value,
             SimTime t, std::optional<SimDuration> lifetime = std::nullopt) {
  CxtItem item;
  item.id = id;
  item.type = type;
  item.value = value;
  item.timestamp = t;
  item.lifetime = lifetime;
  return item;
}

TEST(RepositoryTest, StoreAndLatest) {
  sim::Simulation sim;
  CxtRepository repo{sim};
  repo.Store(Item("a", "temperature", 10, sim.Now()));
  sim.RunFor(5s);
  repo.Store(Item("b", "temperature", 12, sim.Now()));
  EXPECT_EQ(repo.Latest("temperature")->id, "b");
  EXPECT_EQ(repo.size(), 2u);
}

TEST(RepositoryTest, LatestMissingTypeFails) {
  sim::Simulation sim;
  CxtRepository repo{sim};
  EXPECT_EQ(repo.Latest("wind").status().code(), StatusCode::kNotFound);
}

TEST(RepositoryTest, RingEvictsOldestPerType) {
  sim::Simulation sim;
  CxtRepositoryConfig cfg;
  cfg.max_items_per_type = 3;
  CxtRepository repo{sim, cfg};
  for (int i = 0; i < 10; ++i) {
    repo.Store(Item("i" + std::to_string(i), "t", i, sim.Now()));
  }
  EXPECT_EQ(repo.size(), 3u);
  const auto recent = repo.Recent("t");
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].id, "i9");  // newest first
  EXPECT_EQ(recent[2].id, "i7");
}

TEST(RepositoryTest, TypesHaveIndependentRings) {
  sim::Simulation sim;
  CxtRepositoryConfig cfg;
  cfg.max_items_per_type = 2;
  CxtRepository repo{sim, cfg};
  repo.Store(Item("a", "t1", 1, sim.Now()));
  repo.Store(Item("b", "t2", 2, sim.Now()));
  repo.Store(Item("c", "t2", 3, sim.Now()));
  repo.Store(Item("d", "t2", 4, sim.Now()));
  EXPECT_EQ(repo.Recent("t1").size(), 1u);
  EXPECT_EQ(repo.Recent("t2").size(), 2u);
}

TEST(RepositoryTest, ExpiredItemsInvisibleAndPurgeable) {
  sim::Simulation sim;
  CxtRepository repo{sim};
  repo.Store(Item("a", "t", 1, sim.Now(), SimDuration{10s}));
  repo.Store(Item("b", "t", 2, sim.Now()));
  sim.RunFor(20s);
  EXPECT_EQ(repo.Latest("t")->id, "b");
  EXPECT_EQ(repo.Recent("t").size(), 1u);
  EXPECT_EQ(repo.PurgeExpired(), 1u);
  EXPECT_EQ(repo.size(), 1u);
}

TEST(RepositoryTest, RecentHonorsMaxN) {
  sim::Simulation sim;
  CxtRepository repo{sim};
  for (int i = 0; i < 5; ++i) {
    repo.Store(Item("i" + std::to_string(i), "t", i, sim.Now()));
  }
  EXPECT_EQ(repo.Recent("t", 2).size(), 2u);
}

TEST(RepositoryTest, ShrinkReducesCapacityAndContent) {
  sim::Simulation sim;
  CxtRepository repo{sim};  // default 8 per type
  for (int i = 0; i < 8; ++i) {
    repo.Store(Item("i" + std::to_string(i), "t", i, sim.Now()));
  }
  repo.Shrink(2);  // the reduceMemory action
  EXPECT_EQ(repo.size(), 2u);
  EXPECT_EQ(repo.capacity_per_type(), 2u);
  repo.Store(Item("x", "t", 99, sim.Now()));
  EXPECT_EQ(repo.size(), 2u);  // stays capped
}

TEST(AggregatorTest, DeduplicatesById) {
  // The same item arriving over a second mechanism is absorbed, not
  // fused in twice.
  sim::Simulation sim;
  CxtAggregator agg{sim};
  auto item = Item("same-id", "t", 1, sim.Now());
  const auto fused = agg.Process(item);
  ASSERT_TRUE(fused.has_value());
  EXPECT_EQ(fused->source.address, "cxtAggregator");
  EXPECT_FALSE(agg.Process(item).has_value());
}

TEST(AggregatorTest, DedupMemoryIsBounded) {
  sim::Simulation sim;
  AggregatorConfig cfg;
  cfg.dedup_capacity = 4;
  CxtAggregator agg{sim, cfg};
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(
        agg.Process(Item("id-" + std::to_string(i), "t", i, sim.Now()))
            .has_value());
  }
  // id-0 fell out of the dedup window: accepted again.
  EXPECT_TRUE(agg.Process(Item("id-0", "t", 0, sim.Now())).has_value());
}

TEST(AggregatorTest, FusionWeightsByAccuracy) {
  sim::Simulation sim;
  CxtAggregator agg{sim};

  auto precise = Item("a", vocab::kTemperature, 10.0, sim.Now());
  precise.metadata.accuracy = 0.1;  // weight 10
  auto sloppy = Item("b", vocab::kTemperature, 20.0, sim.Now());
  sloppy.metadata.accuracy = 1.0;  // weight 1

  (void)agg.Process(precise);
  const auto fused = agg.Process(sloppy);
  ASSERT_TRUE(fused.has_value());
  // Weighted mean: (10*10 + 20*1)/11 = 10.909...
  EXPECT_NEAR(fused->value.AsNumber().value(), 10.909, 0.01);
  EXPECT_DOUBLE_EQ(*fused->metadata.accuracy, 0.1);  // best of the inputs
  EXPECT_EQ(fused->source.kind, SourceKind::kApplication);
}

TEST(AggregatorTest, FusionWindowExpires) {
  sim::Simulation sim;
  AggregatorConfig cfg;
  cfg.fusion_window = 5s;
  CxtAggregator agg{sim, cfg};
  (void)agg.Process(Item("a", "t", 100.0, sim.Now()));
  sim.RunFor(10s);
  const auto fused = agg.Process(Item("b", "t", 10.0, sim.Now()));
  ASSERT_TRUE(fused.has_value());
  // The old reading aged out of the window.
  EXPECT_DOUBLE_EQ(fused->value.AsNumber().value(), 10.0);
}

TEST(AggregatorTest, NonNumericPassesThroughFusion) {
  sim::Simulation sim;
  CxtAggregator agg{sim};
  CxtItem item;
  item.id = "a";
  item.type = vocab::kActivity;
  item.value = "sailing";
  item.timestamp = sim.Now();
  const auto out = agg.Process(item);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->value.AsString().value(), "sailing");
}

}  // namespace
}  // namespace contory::core
