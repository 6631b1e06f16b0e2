// End-to-end CityScenario tests: a small dense city where SM-FINDER
// rounds succeed under mobility, runs are deterministic per seed, energy
// accrues across the fleet, and the grid/mobility metrics surface in the
// MetricsRegistry.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <vector>

#include "obs/observability.hpp"
#include "testbed/city_scenario.hpp"

namespace contory::testbed {
namespace {

using std::chrono::seconds;

CityOptions SmallCity() {
  CityOptions options;
  options.phones = 60;
  options.area_m = 400.0;  // dense: WiFi degree ~ 11 at 100 m range
  options.provider_fraction = 0.3;
  options.seed = 7;
  return options;
}

TEST(CityTest, FinderCollectsProviderItemsUnderMobility) {
  obs::Observability::ResetForTest();
  CityScenario city(SmallCity());
  ASSERT_EQ(city.phone_count(), 60u);
  ASSERT_GT(city.provider_count(), 0u);
  ASSERT_NE(city.mobility(), nullptr);

  std::optional<CityScenario::FinderOutcome> outcome;
  city.LaunchFinder(/*issuer=*/0, /*num_nodes=*/-1, /*num_hops=*/8,
                    seconds{30},
                    [&](CityScenario::FinderOutcome o) { outcome = o; });
  city.sim().RunFor(seconds{40});

  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->replied);
  EXPECT_TRUE(outcome->success);
  EXPECT_GT(outcome->items, 0u);
  EXPECT_GT(outcome->hops, 0);
  EXPECT_LT(outcome->latency, SimDuration{seconds{30}});
  EXPECT_GT(city.mobility()->position_updates(), 0u);
}

TEST(CityTest, RunsAreDeterministicPerSeed) {
  struct Result {
    CityScenario::FinderOutcome outcome;
    double joules = 0.0;
    std::uint64_t moves = 0;
  };
  const auto run = [] {
    obs::Observability::ResetForTest();
    CityScenario city(SmallCity());
    Result r;
    city.LaunchFinder(0, -1, 8, seconds{30},
                      [&](CityScenario::FinderOutcome o) { r.outcome = o; });
    city.sim().RunFor(seconds{40});
    r.joules = city.TotalEnergyJoules();
    r.moves = city.mobility()->position_updates();
    return r;
  };
  const Result a = run();
  const Result b = run();
  EXPECT_EQ(a.outcome.success, b.outcome.success);
  EXPECT_EQ(a.outcome.hops, b.outcome.hops);
  EXPECT_EQ(a.outcome.items, b.outcome.items);
  EXPECT_EQ(a.outcome.latency, b.outcome.latency);
  EXPECT_DOUBLE_EQ(a.joules, b.joules);
  EXPECT_EQ(a.moves, b.moves);
}

// Golden values for one seed, recorded before the Medium's storage went
// dense. A storage or scheduling change that is meant to be invisible in
// simulated time must leave every one of them untouched.
TEST(CityTest, SeedPinnedOutputs) {
  obs::Observability::ResetForTest();
  CityOptions options;
  options.phones = 1000;
  options.area_m = 70.0 * std::sqrt(1000.0);
  options.provider_fraction = 0.25;
  options.seed = 20261017;
  CityScenario city(options);
  city.sim().RunFor(seconds{20});

  constexpr std::size_t kRounds = 4;
  constexpr std::size_t kIssuers[kRounds] = {17, 256, 511, 998};
  std::size_t successes = 0;
  std::vector<int> hops;
  std::vector<SimDuration> latency;
  for (const std::size_t issuer : kIssuers) {
    std::optional<CityScenario::FinderOutcome> outcome;
    city.LaunchFinder(issuer, -1, 10, seconds{33},
                      [&](CityScenario::FinderOutcome o) { outcome = o; });
    city.sim().RunFor(seconds{38});
    ASSERT_TRUE(outcome.has_value());
    successes += outcome->success ? 1 : 0;
    if (outcome->replied) {
      hops.push_back(outcome->hops);
      latency.push_back(outcome->latency);
    }
  }
  ASSERT_FALSE(hops.empty());
  std::sort(hops.begin(), hops.end());
  std::sort(latency.begin(), latency.end());

  EXPECT_EQ(successes, 3u);
  EXPECT_EQ(hops[hops.size() / 2], 13);
  EXPECT_EQ(latency[latency.size() / 2].count(), 8145719);
  EXPECT_DOUBLE_EQ(city.TotalEnergyJoules(), 192563.11740705266);
  EXPECT_EQ(city.mobility()->position_updates(), 171572u);
}

TEST(CityTest, NoProvidersMeansNoSuccess) {
  obs::Observability::ResetForTest();
  CityOptions options = SmallCity();
  options.provider_fraction = 0.0;
  CityScenario city(options);
  EXPECT_EQ(city.provider_count(), 0u);

  std::optional<CityScenario::FinderOutcome> outcome;
  city.LaunchFinder(0, -1, 8, seconds{30},
                    [&](CityScenario::FinderOutcome o) { outcome = o; });
  city.sim().RunFor(seconds{40});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->success);
  EXPECT_EQ(outcome->items, 0u);
}

TEST(CityTest, NumNodesBoundsCollectedItems) {
  obs::Observability::ResetForTest();
  CityScenario city(SmallCity());
  std::optional<CityScenario::FinderOutcome> outcome;
  city.LaunchFinder(0, /*num_nodes=*/1, /*num_hops=*/8, seconds{30},
                    [&](CityScenario::FinderOutcome o) { outcome = o; });
  city.sim().RunFor(seconds{40});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_LE(outcome->items, 1u);
}

TEST(CityTest, EnergyAccruesAcrossTheFleet) {
  obs::Observability::ResetForTest();
  CityScenario city(SmallCity());
  city.sim().RunFor(seconds{10});
  const double early = city.TotalEnergyJoules();
  EXPECT_GT(early, 0.0);  // idle + WiFi-connected drain on 60 phones
  city.sim().RunFor(seconds{10});
  EXPECT_GT(city.TotalEnergyJoules(), early);
}

TEST(CityTest, GridAndMobilityMetricsSurface) {
  obs::Observability::ResetForTest();
  CityScenario city(SmallCity());
  std::optional<CityScenario::FinderOutcome> outcome;
  city.LaunchFinder(0, -1, 8, seconds{30},
                    [&](CityScenario::FinderOutcome o) { outcome = o; });
  city.sim().RunFor(seconds{40});

  if (!COBS_ON()) GTEST_SKIP() << "observability compiled out/disabled";
  const auto& metrics = obs::Observability::metrics();
  const auto* queries = metrics.FindCounter("medium_neighbor_queries_total",
                                            {{"backend", "grid"}});
  ASSERT_NE(queries, nullptr);
  EXPECT_GT(queries->value(), 0u);
  const auto* cells = metrics.FindGauge("medium_grid_cells");
  ASSERT_NE(cells, nullptr);
  EXPECT_GT(cells->value(), 0.0);
  const auto* moves = metrics.FindCounter("mobility_position_updates_total");
  ASSERT_NE(moves, nullptr);
  EXPECT_EQ(moves->value(), city.mobility()->position_updates());
}

TEST(CityTest, RefreshTagsKeepsFindersWorking) {
  obs::Observability::ResetForTest();
  CityScenario city(SmallCity());
  city.sim().RunFor(seconds{60});
  city.RefreshTags();  // re-stamp provider items at current sim time
  std::optional<CityScenario::FinderOutcome> outcome;
  city.LaunchFinder(3, -1, 8, seconds{30},
                    [&](CityScenario::FinderOutcome o) { outcome = o; });
  city.sim().RunFor(seconds{40});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->replied);
}

}  // namespace
}  // namespace contory::testbed
