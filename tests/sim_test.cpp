// Unit tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/simulation.hpp"

namespace contory::sim {
namespace {

using namespace std::chrono_literals;

TEST(SimulationTest, StartsAtEpoch) {
  Simulation sim;
  EXPECT_EQ(sim.Now(), kSimEpoch);
}

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAfter(30ms, [&] { order.push_back(3); });
  sim.ScheduleAfter(10ms, [&] { order.push_back(1); });
  sim.ScheduleAfter(20ms, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), kSimEpoch + 30ms);
}

TEST(SimulationTest, EqualTimesFireFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAfter(5ms, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulationTest, ClockAdvancesToEventTime) {
  Simulation sim;
  SimTime seen{};
  sim.ScheduleAfter(155s, [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, kSimEpoch + 155s);
}

TEST(SimulationTest, PastSchedulingClampsToNow) {
  Simulation sim;
  bool fired = false;
  sim.ScheduleAfter(10ms, [&] {
    sim.ScheduleAt(kSimEpoch, [&] {
      fired = true;
      EXPECT_EQ(sim.Now(), kSimEpoch + 10ms);
    });
  });
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulationTest, NegativeDelayClampsToZero) {
  Simulation sim;
  bool fired = false;
  sim.ScheduleAfter(-5s, [&] { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.Now(), kSimEpoch);
}

TEST(SimulationTest, CancelPreventsDispatch) {
  Simulation sim;
  bool fired = false;
  const TimerId id = sim.ScheduleAfter(10ms, [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, CancelUnknownIdIsNoop) {
  Simulation sim;
  sim.Cancel(kInvalidTimer);
  sim.Cancel(999);
  sim.Run();
  EXPECT_EQ(sim.events_dispatched(), 0u);
}

TEST(SimulationTest, CancelAfterFireIsNoop) {
  Simulation sim;
  const TimerId id = sim.ScheduleAfter(1ms, [] {});
  sim.Run();
  sim.Cancel(id);  // must not poison a later event with the same slot
  bool fired = false;
  sim.ScheduleAfter(1ms, [&] { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulationTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulation sim;
  int count = 0;
  sim.ScheduleAfter(10ms, [&] { ++count; });
  sim.ScheduleAfter(20ms, [&] { ++count; });
  sim.ScheduleAfter(30ms, [&] { ++count; });
  sim.RunUntil(kSimEpoch + 20ms);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), kSimEpoch + 20ms);
  sim.Run();
  EXPECT_EQ(count, 3);
}

TEST(SimulationTest, RunForIsRelative) {
  Simulation sim;
  sim.RunFor(5s);
  EXPECT_EQ(sim.Now(), kSimEpoch + 5s);
  sim.RunFor(5s);
  EXPECT_EQ(sim.Now(), kSimEpoch + 10s);
}

TEST(SimulationTest, EventsCanScheduleEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.ScheduleAfter(1ms, recurse);
  };
  sim.ScheduleAfter(1ms, recurse);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), kSimEpoch + 5ms);
}

TEST(SimulationTest, NullCallbackThrows) {
  Simulation sim;
  EXPECT_THROW(sim.ScheduleAfter(1ms, nullptr), std::invalid_argument);
}

TEST(SimulationTest, RunawayGuardThrows) {
  Simulation sim;
  std::function<void()> forever = [&] { sim.ScheduleAfter(1ms, forever); };
  sim.ScheduleAfter(1ms, forever);
  EXPECT_THROW(sim.Run(1'000), std::runtime_error);
}

TEST(SimulationTest, PendingCountExcludesCancelled) {
  Simulation sim;
  const TimerId a = sim.ScheduleAfter(1ms, [] {});
  sim.ScheduleAfter(2ms, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimulationTest, CancelAfterFireKeepsPendingExact) {
  Simulation sim;
  const TimerId fired = sim.ScheduleAfter(1ms, [] {});
  sim.Run();
  sim.Cancel(fired);  // already fired: nothing to cancel
  sim.ScheduleAfter(1ms, [] {});
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulationTest, CancelFreesTheCallbackAtOnce) {
  Simulation sim;
  auto token = std::make_shared<int>(0);
  const TimerId id = sim.ScheduleAfter(1h, [token] {});
  EXPECT_EQ(token.use_count(), 2);
  sim.Cancel(id);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(PeriodicTaskTest, FiresEveryPeriod) {
  Simulation sim;
  int ticks = 0;
  PeriodicTask task{sim, 10ms, [&] { ++ticks; }};
  sim.RunUntil(kSimEpoch + 55ms);
  EXPECT_EQ(ticks, 5);
}

TEST(PeriodicTaskTest, InitialDelayDiffersFromPeriod) {
  Simulation sim;
  std::vector<SimTime> at;
  PeriodicTask task{sim, 5ms, 10ms, [&] { at.push_back(sim.Now()); }};
  sim.RunUntil(kSimEpoch + 30ms);
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], kSimEpoch + 5ms);
  EXPECT_EQ(at[1], kSimEpoch + 15ms);
  EXPECT_EQ(at[2], kSimEpoch + 25ms);
}

TEST(PeriodicTaskTest, StopFromOwnCallback) {
  Simulation sim;
  int ticks = 0;
  PeriodicTask task{sim, 10ms, [&] {
                      if (++ticks == 2) task.Stop();
                    }};
  sim.RunUntil(kSimEpoch + 100ms);
  EXPECT_EQ(ticks, 2);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTaskTest, DestructionCancels) {
  Simulation sim;
  int ticks = 0;
  {
    PeriodicTask task{sim, 10ms, [&] { ++ticks; }};
    sim.RunUntil(kSimEpoch + 25ms);
  }
  sim.RunUntil(kSimEpoch + 100ms);
  EXPECT_EQ(ticks, 2);
}

TEST(PeriodicTaskTest, SetPeriodFromCallbackTakesEffectNextTick) {
  Simulation sim;
  std::vector<SimTime> at;
  PeriodicTask task{sim, 10ms, [&] {
                      at.push_back(sim.Now());
                      if (at.size() == 1) task.SetPeriod(20ms);
                    }};
  sim.RunUntil(kSimEpoch + 50ms);
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[1], kSimEpoch + 30ms);
  EXPECT_EQ(at[2], kSimEpoch + 50ms);
}

TEST(PeriodicTaskTest, InvalidArgsThrow) {
  Simulation sim;
  EXPECT_THROW(PeriodicTask(sim, 0ms, [] {}), std::invalid_argument);
  EXPECT_THROW(PeriodicTask(sim, 10ms, nullptr), std::invalid_argument);
}

TEST(SimulationTest, RngAndIdsAreOwned) {
  Simulation sim{99};
  const auto a = sim.rng().Next();
  Simulation sim2{99};
  EXPECT_EQ(a, sim2.rng().Next());
  EXPECT_EQ(sim.ids().NextId("x"), "x-1");
}

}  // namespace
}  // namespace contory::sim
