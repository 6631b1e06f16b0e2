// Unit tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
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

TEST(SimulationTest, FrozenClockCancelsKeepTheHeapBounded) {
  // A cancelled event far in the future never reaches the head while the
  // clock stands still; the heap must still not grow with every cancel.
  Simulation sim;
  std::vector<TimerId> live;
  for (int i = 0; i < 100; ++i) live.push_back(sim.ScheduleAfter(2h, [] {}));
  for (int i = 0; i < 100'000; ++i) {
    sim.Cancel(sim.ScheduleAfter(1h, [] {}));
    // Churn the live set too: cancel one, schedule its replacement.
    if (i % 7 == 0) {
      const std::size_t victim = static_cast<std::size_t>(i) % live.size();
      sim.Cancel(live[victim]);
      live[victim] = sim.ScheduleAfter(2h, [] {});
    }
    ASSERT_LE(sim.heap_size(),
              2 * sim.pending() + Simulation::kTombstoneFloor)
        << "after " << i << " cancels";
  }
  EXPECT_EQ(sim.pending(), live.size());
  int fired = 0;
  for (const TimerId id : live) {
    sim.Cancel(id);
    sim.ScheduleAfter(1ms, [&fired] { ++fired; });
  }
  sim.Run();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(sim.heap_size(), 0u);
}

TEST(SimulationTest, CancelFromACancelledCallbacksDestructor) {
  // Destroying a cancelled callback cancels another event; that inner
  // cancel may rebuild the heap in the middle of the outer one.
  struct CancelOnDestroy {
    Simulation* sim;
    TimerId other;
    ~CancelOnDestroy() { sim->Cancel(other); }
  };
  Simulation sim;
  int fired = 0;
  std::vector<TimerId> outer;
  for (int i = 0; i < 300; ++i) {
    const TimerId inner = sim.ScheduleAfter(2h, [&fired] { ++fired; });
    auto guard = std::make_shared<CancelOnDestroy>(&sim, inner);
    outer.push_back(sim.ScheduleAfter(1h, [guard, &fired] { ++fired; }));
  }
  sim.ScheduleAfter(3h, [&fired] { ++fired; });
  for (const TimerId id : outer) {
    sim.Cancel(id);
    ASSERT_LE(sim.heap_size(),
              2 * sim.pending() + Simulation::kTombstoneFloor);
  }
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.heap_size(), 0u);
}

TEST(SimulationTest, RandomScheduleCancelStepMatchesReference) {
  // The reference is a multimap keyed by time: equal keys keep their
  // insertion order, which is the simulation's FIFO tiebreak. A third of
  // the events lie an hour out, past every step, so their cancels pile
  // up as tombstones and the heap is rebuilt along the way.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Simulation sim;
    Rng rng{seed};
    std::multimap<SimTime, int> reference;
    std::vector<std::multimap<SimTime, int>::iterator> where;
    std::vector<TimerId> ids;
    std::vector<int> fired;
    std::vector<int> expected;
    const auto step_reference = [&] {
      if (reference.empty()) return;
      const auto head = reference.begin();
      expected.push_back(head->second);
      where[static_cast<std::size_t>(head->second)] = reference.end();
      reference.erase(head);
    };
    bool rebuilt = false;
    for (int op = 0; op < 20'000; ++op) {
      const std::int64_t dice = rng.UniformInt(0, 19);
      if (dice < 8) {
        const int tag = static_cast<int>(ids.size());
        // Few distinct times, so ties are common.
        SimDuration delay = std::chrono::milliseconds{rng.UniformInt(0, 20)};
        if (rng.Bernoulli(0.3)) delay += 1h;
        ids.push_back(sim.ScheduleAfter(delay, [&fired, tag] {
          fired.push_back(tag);
        }));
        where.push_back(reference.emplace(sim.Now() + delay, tag));
      } else if (dice < 15) {
        if (ids.empty()) continue;
        // Mostly a recent event, often still pending; sometimes any.
        const auto n = static_cast<std::int64_t>(ids.size());
        const std::int64_t back =
            rng.Bernoulli(0.8)
                ? rng.UniformInt(0, std::min<std::int64_t>(n - 1, 63))
                : rng.UniformInt(0, n - 1);
        const auto tag = static_cast<std::size_t>(n - 1 - back);
        const std::size_t before = sim.heap_size();
        sim.Cancel(ids[tag]);  // a no-op when fired or cancelled already
        rebuilt = rebuilt || sim.heap_size() < before;
        if (where[tag] != reference.end()) {
          reference.erase(where[tag]);
          where[tag] = reference.end();
        }
      } else {
        sim.Step();
        step_reference();
      }
      ASSERT_EQ(sim.pending(), reference.size()) << "seed " << seed;
      ASSERT_LE(sim.heap_size(),
                2 * sim.pending() + Simulation::kTombstoneFloor);
    }
    sim.Run();
    while (!reference.empty()) step_reference();
    EXPECT_EQ(fired, expected) << "seed " << seed;
    EXPECT_GT(fired.size(), 1000u);
    EXPECT_TRUE(rebuilt) << "seed " << seed;
  }
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
