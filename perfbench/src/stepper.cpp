#include <algorithm>
#include <chrono>

#include "workloads.hpp"

namespace perfbench {

void SecondStepper::Advance() { sim_.RunFor(std::chrono::seconds{1}); }

void SecondStepper::AdvanceTraced(SpanRecorder& spans) {
  const contory::SimTime target = sim_.Now() + std::chrono::seconds{1};
  bool reached = false;
  sim_.ScheduleAt(target, [&reached] { reached = true; }, "perfbench.second");
  ++sentinels_;
  while (!reached) {
    const StepSignals before = signals_();
    spans.Begin("sim.step", "sim");
    const bool ran = sim_.Step();
    const StepSignals after = signals_();
    const bool tick = after.mobility_ticks != before.mobility_ticks;
    const char* name = "sim.step";
    const char* layer = "sim";
    if (tick) {
      name = "mobility.tick";
      layer = "sim.mobility";
    } else if (after.items_routed != before.items_routed) {
      name = "router.deliver";
      layer = "core.router";
    } else if (after.wifi_frames != before.wifi_frames ||
               after.neighbor_queries != before.neighbor_queries) {
      name = "sm.route";
      layer = "sm";
    }
    const auto ns = static_cast<double>(spans.End(name, layer));
    step_us_.push_back(ns / 1e3);
    if (tick) {
      tick_ms_.push_back(ns / 1e6);
      tick_ns_ += ns;
    }
    pending_peak_ = std::max(pending_peak_, sim_.pending());
    if (!ran) break;
  }
  // Events due exactly at `target` but scheduled after the sentinel.
  spans.Begin("sim.flush", "sim");
  sim_.RunUntil(target);
  spans.End();
}

}  // namespace perfbench
