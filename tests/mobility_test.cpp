// Mobility model tests: determinism (same seed -> byte-identical
// trajectories), area bounds, pause/stop semantics, and the commuter
// day cycle (everyone at work mid-day, everyone home again before the
// cycle wraps).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/medium.hpp"
#include "sim/mobility.hpp"
#include "sim/simulation.hpp"

namespace contory::sim {
namespace {

/// One sim + medium + N scattered nodes, so two instances built with the
/// same seeds are position-for-position comparable.
struct World {
  World(std::size_t n, MobilityArea area, std::uint64_t scatter_seed) {
    Rng scatter{scatter_seed};
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(medium.Register("m" + std::to_string(i),
                                    RandomPointIn(area, scatter)));
    }
  }

  std::vector<net::Position> Positions() const {
    std::vector<net::Position> out;
    for (const net::NodeId id : ids) out.push_back(*medium.GetPosition(id));
    return out;
  }

  Simulation sim{1};
  net::Medium medium;
  std::vector<net::NodeId> ids;
};

void ExpectSamePositions(const std::vector<net::Position>& a,
                         const std::vector<net::Position>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].x, b[i].x) << "node " << i;
    EXPECT_DOUBLE_EQ(a[i].y, b[i].y) << "node " << i;
  }
}

TEST(RandomWaypointTest, SameSeedSameTrajectories) {
  const MobilityArea area{300.0, 300.0};
  RandomWaypointConfig config;
  config.area = area;
  const auto run = [&](std::uint64_t seed) {
    World w(25, area, 99);
    RandomWaypoint model(w.sim, w.medium, config, seed);
    for (const net::NodeId id : w.ids) model.Manage(id);
    model.Start();
    w.sim.RunFor(std::chrono::seconds{120});
    return w.Positions();
  };
  ExpectSamePositions(run(42), run(42));
}

TEST(RandomWaypointTest, DifferentSeedDiverges) {
  const MobilityArea area{300.0, 300.0};
  RandomWaypointConfig config;
  config.area = area;
  const auto run = [&](std::uint64_t seed) {
    World w(25, area, 99);
    RandomWaypoint model(w.sim, w.medium, config, seed);
    for (const net::NodeId id : w.ids) model.Manage(id);
    model.Start();
    w.sim.RunFor(std::chrono::seconds{120});
    return w.Positions();
  };
  const auto a = run(42);
  const auto b = run(43);
  ASSERT_EQ(a.size(), b.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff = any_diff || a[i].x != b[i].x || a[i].y != b[i].y;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomWaypointTest, StaysInsideArea) {
  const MobilityArea area{120.0, 80.0};
  RandomWaypointConfig config;
  config.area = area;
  config.speed_max_mps = 10.0;
  World w(30, area, 5);
  RandomWaypoint model(w.sim, w.medium, config, 7);
  for (const net::NodeId id : w.ids) model.Manage(id);
  model.Start();
  for (int i = 0; i < 30; ++i) {
    w.sim.RunFor(std::chrono::seconds{10});
    for (const net::Position& p : w.Positions()) {
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, area.width_m);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, area.height_m);
    }
  }
  EXPECT_EQ(model.ticks(), 300u);
  EXPECT_GT(model.position_updates(), 0u);
}

TEST(RandomWaypointTest, PauseHoldsPosition) {
  // Tiny area + fast speed: everyone reaches their waypoint within the
  // first tick, then sits in a long pause.
  const MobilityArea area{10.0, 10.0};
  RandomWaypointConfig config;
  config.area = area;
  config.speed_min_mps = 50.0;
  config.speed_max_mps = 50.0;
  config.pause_min = std::chrono::seconds{1000};
  config.pause_max = std::chrono::seconds{1000};
  World w(10, area, 3);
  RandomWaypoint model(w.sim, w.medium, config, 8);
  for (const net::NodeId id : w.ids) model.Manage(id);
  model.Start();
  w.sim.RunFor(std::chrono::seconds{5});
  const auto parked = w.Positions();
  w.sim.RunFor(std::chrono::seconds{60});
  ExpectSamePositions(parked, w.Positions());
}

TEST(MobilityModelTest, StopHaltsUpdatesAndStartResumes) {
  const MobilityArea area{200.0, 200.0};
  RandomWaypointConfig config;
  config.area = area;
  config.pause_max = SimDuration::zero();  // keep everyone moving
  World w(10, area, 4);
  RandomWaypoint model(w.sim, w.medium, config, 9);
  for (const net::NodeId id : w.ids) model.Manage(id);
  EXPECT_FALSE(model.running());
  model.Start();
  EXPECT_TRUE(model.running());
  w.sim.RunFor(std::chrono::seconds{10});
  const std::uint64_t updates = model.position_updates();
  EXPECT_GT(updates, 0u);
  model.Stop();
  EXPECT_FALSE(model.running());
  w.sim.RunFor(std::chrono::seconds{30});
  EXPECT_EQ(model.position_updates(), updates);
  model.Start();
  w.sim.RunFor(std::chrono::seconds{10});
  EXPECT_GT(model.position_updates(), updates);
}

TEST(MobilityModelTest, ManageIgnoresUnregisteredNodes) {
  World w(2, MobilityArea{50, 50}, 1);
  RandomWaypointConfig config;
  RandomWaypoint model(w.sim, w.medium, config, 2);
  model.Manage(w.ids[0]);
  model.Manage(net::NodeId{424242});  // never registered
  EXPECT_EQ(model.managed_count(), 1u);
}

TEST(MobilityModelTest, UnregisteredNodeIsNotCounted) {
  // A node that leaves the Medium after Manage() (e.g. a kNodeLeave
  // fault) keeps its model-side walk, but its failed writes are not
  // position updates.
  const MobilityArea area{200.0, 200.0};
  RandomWaypointConfig config;
  config.area = area;
  config.pause_max = SimDuration::zero();  // would move every tick
  World w(1, area, 5);
  RandomWaypoint model(w.sim, w.medium, config, 6);
  model.Manage(w.ids[0]);
  w.medium.Unregister(w.ids[0]);
  model.Start();
  w.sim.RunFor(std::chrono::seconds{10});
  EXPECT_EQ(model.ticks(), 10u);
  EXPECT_EQ(model.position_updates(), 0u);
}

TEST(CommuterFlowTest, DayPhaseWrapsOverTheDay) {
  World w(1, MobilityArea{100, 100}, 1);
  CommuterFlowConfig config;
  config.day = std::chrono::minutes{10};
  CommuterFlow model(w.sim, w.medium, config, 3);
  EXPECT_DOUBLE_EQ(model.DayPhase(kSimEpoch), 0.0);
  EXPECT_DOUBLE_EQ(model.DayPhase(kSimEpoch + std::chrono::seconds{150}),
                   0.25);
  EXPECT_DOUBLE_EQ(model.DayPhase(kSimEpoch + std::chrono::seconds{750}),
                   0.25);  // second day, same phase
}

TEST(CommuterFlowTest, CommutesOutAndReturnsHome) {
  const MobilityArea area{1000.0, 1000.0};
  CommuterFlowConfig config;
  config.area = area;
  config.day = std::chrono::minutes{10};  // 300 s out, 300 s back
  World w(20, area, 6);
  const auto homes = w.Positions();
  CommuterFlow model(w.sim, w.medium, config, 11);
  for (const net::NodeId id : w.ids) model.Manage(id);
  model.Start();

  // Mid-day: everyone who has a distinct workplace has left home.
  w.sim.RunFor(std::chrono::seconds{295});
  const auto midday = w.Positions();
  std::size_t away = 0;
  for (std::size_t i = 0; i < homes.size(); ++i) {
    if (net::Distance(homes[i], midday[i]) > 1.0) ++away;
  }
  EXPECT_GT(away, homes.size() / 2);

  // End of day (just before the cycle wraps): everyone is back at their
  // exact home — StepToward snaps onto the target, so equality is exact.
  w.sim.RunFor(std::chrono::seconds{295});
  ExpectSamePositions(homes, w.Positions());
}

TEST(CommuterFlowTest, SameSeedSameTrajectories) {
  const MobilityArea area{500.0, 500.0};
  CommuterFlowConfig config;
  config.area = area;
  const auto run = [&] {
    World w(15, area, 21);
    CommuterFlow model(w.sim, w.medium, config, 13);
    for (const net::NodeId id : w.ids) model.Manage(id);
    model.Start();
    w.sim.RunFor(std::chrono::seconds{200});
    return w.Positions();
  };
  ExpectSamePositions(run(), run());
}

TEST(CommuterFlowTest, StaysInsideArea) {
  const MobilityArea area{400.0, 400.0};
  CommuterFlowConfig config;
  config.area = area;
  World w(20, area, 17);
  CommuterFlow model(w.sim, w.medium, config, 19);
  for (const net::NodeId id : w.ids) model.Manage(id);
  model.Start();
  for (int i = 0; i < 20; ++i) {
    w.sim.RunFor(std::chrono::seconds{30});
    for (const net::Position& p : w.Positions()) {
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, area.width_m);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, area.height_m);
    }
  }
}

}  // namespace
}  // namespace contory::sim
