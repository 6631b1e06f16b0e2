#include "sim/simulation.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace contory::sim {

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {}

TimerId Simulation::ScheduleAt(SimTime t, Callback cb, std::string_view) {
  if (!cb) throw std::invalid_argument("ScheduleAt: null callback");
  if (t < now_) t = now_;  // the past is unreachable; fire "now"
  const TimerId id = events_.Emplace(std::move(cb));
  heap_.push_back(HeapEntry{t, next_seq_++, id});
  std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
  return id;
}

TimerId Simulation::ScheduleAfter(SimDuration delay, Callback cb,
                                  std::string_view) {
  if (delay < SimDuration::zero()) delay = SimDuration::zero();
  return ScheduleAt(now_ + delay, std::move(cb));
}

void Simulation::Cancel(TimerId id) {
  if (events_.Find(id) == nullptr) return;
  // Counted before the erase: destroying the callback may cancel (and
  // rebuild) in turn.
  ++tombstones_;
  events_.Erase(id);
  if (tombstones_ <= std::max(events_.size(), kTombstoneFloor)) return;
  std::erase_if(heap_, [this](const HeapEntry& e) {
    return events_.Find(e.id) == nullptr;
  });
  std::make_heap(heap_.begin(), heap_.end(), EntryAfter{});
  tombstones_ = 0;
}

void Simulation::PopHead() {
  std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
  heap_.pop_back();
}

bool Simulation::Step() {
  while (!heap_.empty()) {
    const HeapEntry head = heap_.front();
    PopHead();
    Callback* ev = events_.Find(head.id);
    if (ev == nullptr) {
      --tombstones_;
      continue;
    }
    now_ = head.at;
    ++dispatched_;
    // Fired: the id misses from here, so cancelling it is a no-op, and
    // the callback may reschedule into the freed slot.
    const Callback cb = std::move(*ev);
    events_.Erase(head.id);
    cb();
    return true;
  }
  return false;
}

void Simulation::Run(std::size_t max_events) {
  std::size_t n = 0;
  while (Step()) {
    if (++n >= max_events) {
      throw std::runtime_error(
          "Simulation::Run: event budget exhausted (runaway schedule?)");
    }
  }
}

void Simulation::RunUntil(SimTime t) {
  while (!heap_.empty()) {
    const HeapEntry& head = heap_.front();
    if (events_.Find(head.id) == nullptr) {
      PopHead();  // tombstone
      --tombstones_;
      continue;
    }
    if (head.at > t) break;
    Step();
  }
  if (t > now_) now_ = t;
}

void Simulation::RunFor(SimDuration d) { RunUntil(now_ + d); }

PeriodicTask::PeriodicTask(Simulation& sim, SimDuration period,
                           std::function<void()> on_tick)
    : PeriodicTask(sim, period, period, std::move(on_tick)) {}

PeriodicTask::PeriodicTask(Simulation& sim, SimDuration initial_delay,
                           SimDuration period, std::function<void()> on_tick)
    : sim_(sim), period_(period), on_tick_(std::move(on_tick)) {
  if (!on_tick_) throw std::invalid_argument("PeriodicTask: null callback");
  if (period_ <= SimDuration::zero()) {
    throw std::invalid_argument("PeriodicTask: period must be positive");
  }
  Arm(initial_delay);
}

PeriodicTask::~PeriodicTask() {
  *alive_ = false;
  Stop();
}

void PeriodicTask::Stop() {
  running_ = false;
  if (pending_ != kInvalidTimer) {
    sim_.Cancel(pending_);
    pending_ = kInvalidTimer;
  }
}

void PeriodicTask::Arm(SimDuration delay) {
  pending_ = sim_.ScheduleAfter(delay, [this, alive = alive_] {
    pending_ = kInvalidTimer;
    if (!running_) return;
    // Run a copy: if the tick destroys this task, the executing closure
    // (and its captures) must outlive the destruction.
    auto tick = on_tick_;
    tick();
    // The tick may have destroyed this task; only then is `this` dead.
    if (!*alive) return;
    // Re-arm after the tick so SetPeriod() from the callback takes effect
    // immediately; a Stop() from the callback is honoured here.
    if (running_) Arm(period_);
  });
}

Timer::Timer(Simulation& sim, SimTime at, std::function<void()> on_fire,
             std::string_view)
    : sim_(sim), on_fire_(std::move(on_fire)) {
  if (!on_fire_) throw std::invalid_argument("Timer: null callback");
  pending_ = sim_.ScheduleAt(at, [this] {
    pending_ = kInvalidTimer;
    // Run a moved-out copy: the callback may destroy this Timer.
    const auto fire = std::move(on_fire_);
    fire();
  });
}

}  // namespace contory::sim
