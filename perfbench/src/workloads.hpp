// The four workloads of the repository benchmark (see METRICS.md for why
// each exists and which layers it bypasses), and the simulated-second
// stepper the three simulated workloads share.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "harness.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

/// Each workload builds its inputs from config.seed, sets itself up
/// several times (setup_s is the median), measures for config.seconds
/// and checks the program's outputs. A traced run measures the first half
/// untraced and records spans into `spans` over the second half.
Outcome RunQueryChurn(const RunConfig& config, SpanRecorder& spans);
Outcome RunItemDelivery(const RunConfig& config, SpanRecorder& spans);
Outcome RunCityMobile(const RunConfig& config, SpanRecorder& spans);
Outcome RunCityStatic(const RunConfig& config, SpanRecorder& spans);

/// Counters a traced simulation step is classified by: the step belongs
/// to the first layer whose counter it moved.
struct StepSignals {
  std::uint64_t mobility_ticks = 0;
  std::uint64_t items_routed = 0;
  std::uint64_t wifi_frames = 0;
  std::uint64_t neighbor_queries = 0;
};

/// Advances a simulation by one simulated second per call. Untraced, that
/// is one RunFor(1 s). Traced, the clock is driven by Simulation::Step(),
/// one span per event, up to a sentinel event at the second's end, so
/// both modes dispatch the same events in the same order.
class SecondStepper {
 public:
  SecondStepper(contory::sim::Simulation& sim, std::function<StepSignals()> signals)
      : sim_(sim), signals_(std::move(signals)) {}

  void Advance();
  void AdvanceTraced(SpanRecorder& spans);

  /// Traced steps only.
  [[nodiscard]] const std::vector<double>& step_us() const { return step_us_; }
  [[nodiscard]] const std::vector<double>& tick_ms() const { return tick_ms_; }
  [[nodiscard]] double tick_ns_total() const noexcept { return tick_ns_; }
  [[nodiscard]] std::size_t pending_peak() const noexcept {
    return pending_peak_;
  }
  /// Sentinel events the traced mode added to events_dispatched().
  [[nodiscard]] std::uint64_t sentinels() const noexcept { return sentinels_; }

 private:
  contory::sim::Simulation& sim_;
  std::function<StepSignals()> signals_;
  std::vector<double> step_us_;
  std::vector<double> tick_ms_;
  double tick_ns_ = 0.0;
  std::size_t pending_peak_ = 0;
  std::uint64_t sentinels_ = 0;
};

}  // namespace perfbench
