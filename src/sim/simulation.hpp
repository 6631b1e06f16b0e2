// Deterministic discrete-event simulation core.
//
// Everything in the reproduction — radios, sensors, the Contory middleware
// instances themselves — runs as callbacks scheduled on one Simulation.
// Virtual time advances only when the event at the head of the queue is
// dispatched, so runs are exactly reproducible: same seed, same schedule,
// same results.
//
// Ordering guarantee: events fire in (time, insertion-order) order, i.e.
// two events scheduled for the same instant fire in the order they were
// scheduled. This FIFO tiebreak is what makes protocol handshakes stable.
//
// A pending event's callback lives in a SlotTable
// (common/slot_table.hpp), and its TimerId is the table handle; the time
// heap holds only (time, seq, id). Cancel erases the entry, freeing the
// callback at once; the heap entry left behind is a tombstone, skipped
// when it reaches the head because its id misses. A tombstone far in the
// future may never reach the head (a frozen clock never gets there), so
// once tombstones outnumber pending events, above a small floor, Cancel
// rebuilds the heap without them. (time, seq) is a total order, so the
// rebuild cannot change the dispatch order, and the heap stays within
// twice the pending events plus the floor.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/id.hpp"
#include "common/rng.hpp"
#include "common/slot_table.hpp"
#include "common/time.hpp"

namespace contory::sim {

/// Handle for a scheduled event; used to cancel it before it fires.
/// Unique, never 0, but not sequential.
using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

class Simulation {
 public:
  using Callback = std::function<void()>;

  /// `seed` drives the simulation-owned Rng; every stochastic model forks
  /// its own child stream from it.
  explicit Simulation(std::uint64_t seed = 1);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime Now() const noexcept { return now_; }

  /// Schedules `cb` at absolute time `t` (>= Now(), else clamped to Now()).
  /// The label names the event at its call site; it is not stored.
  TimerId ScheduleAt(SimTime t, Callback cb, std::string_view label = {});

  /// Schedules `cb` after a relative delay (negative clamps to zero).
  TimerId ScheduleAfter(SimDuration delay, Callback cb,
                        std::string_view label = {});

  /// Cancels a pending event. Cancelling an already-fired or invalid id is
  /// a harmless no-op (common when a timeout races its own completion).
  void Cancel(TimerId id);

  /// Dispatches the next event; returns false when the queue is empty.
  bool Step();

  /// Runs until the queue drains or `max_events` is hit (runaway guard).
  void Run(std::size_t max_events = 50'000'000);

  /// Runs events with time <= t, then advances the clock to exactly t.
  void RunUntil(SimTime t);

  /// RunUntil(Now() + d).
  void RunFor(SimDuration d);

  /// Number of events dispatched so far.
  [[nodiscard]] std::uint64_t events_dispatched() const noexcept {
    return dispatched_;
  }
  /// Number of events scheduled that have neither fired nor been
  /// cancelled.
  [[nodiscard]] std::size_t pending() const noexcept {
    return events_.size();
  }
  /// Entries in the time heap: pending events plus tombstones
  /// (diagnostics; at most 2 * pending() + kTombstoneFloor).
  [[nodiscard]] std::size_t heap_size() const noexcept {
    return heap_.size();
  }

  /// Tombstones the heap may hold beyond the pending-event count.
  static constexpr std::size_t kTombstoneFloor = 64;

  /// Simulation-wide deterministic RNG; Fork() children per subsystem.
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  /// Simulation-wide id namespace ("q-1", "item-42", ...).
  [[nodiscard]] IdGenerator& ids() noexcept { return ids_; }

 private:
  struct HeapEntry {
    SimTime at;
    std::uint64_t seq;  // insertion order: FIFO tiebreak at equal times
    TimerId id;
  };
  struct EntryAfter {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Pops the head of the time heap.
  void PopHead();

  SimTime now_ = kSimEpoch;
  /// Min-heap on (at, seq) under EntryAfter; the head is heap_.front().
  std::vector<HeapEntry> heap_;
  /// Heap entries whose event was cancelled.
  std::size_t tombstones_ = 0;
  /// Pending events by TimerId.
  SlotTable<Callback> events_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
  Rng rng_;
  IdGenerator ids_;
};

/// A repeating timer with RAII cancellation. Fires first after `period`
/// (or `initial_delay` if given), then every `period` until stopped or
/// destroyed. A callback may safely Stop() its own timer, change the
/// period (SetPeriod takes effect from the following tick), or even
/// destroy the PeriodicTask itself (common when a tick discovers its
/// owner has expired).
class PeriodicTask {
 public:
  PeriodicTask(Simulation& sim, SimDuration period,
               std::function<void()> on_tick);
  PeriodicTask(Simulation& sim, SimDuration initial_delay, SimDuration period,
               std::function<void()> on_tick);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Stop();
  [[nodiscard]] bool running() const noexcept { return running_; }
  /// Changes the period; takes effect from the next tick.
  void SetPeriod(SimDuration period) noexcept { period_ = period; }
  [[nodiscard]] SimDuration period() const noexcept { return period_; }

 private:
  void Arm(SimDuration delay);

  Simulation& sim_;
  SimDuration period_;
  std::function<void()> on_tick_;
  TimerId pending_ = kInvalidTimer;
  bool running_ = true;
  /// Outlives `this` inside tick callbacks; flipped false on destruction
  /// so a callback that deletes the task does not re-arm a dead object.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// A one-shot timer with RAII cancellation: destroying it before it
/// fires cancels the event. Pinned in place (the pending event points
/// at it); hold it in a std::optional to arm it later. The callback may
/// destroy the Timer.
class Timer {
 public:
  Timer(Simulation& sim, SimTime at, std::function<void()> on_fire,
        std::string_view label = {});
  ~Timer() { sim_.Cancel(pending_); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

 private:
  Simulation& sim_;
  std::function<void()> on_fire_;
  TimerId pending_ = kInvalidTimer;
};

}  // namespace contory::sim
