// Unified retry/timeout/backoff policy.
//
// Providers talk to lossy substrates — a BT inquiry while the radio
// flaps, a UMTS request into a coverage hole, an infrastructure server
// mid-outage — and the paper's failover machinery (Fig. 5) is expensive:
// every escalation to the ContextFactory risks a 13 s BT re-discovery or
// a 14 J UMTS reconnect. A bounded, seeded-jitter retry absorbs the
// transient failures that do not warrant reconfiguration, and only then
// escalates Fail() to the factory.
//
// The policy is deliberately simulation-native: backoffs are SimDurations
// on the virtual clock and jitter draws from a forked Rng, so two runs
// with the same seed retry at byte-identical instants.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/time.hpp"

namespace contory {

struct RetryPolicyConfig {
  /// Total attempts including the first (1 = never retry).
  int max_attempts = 4;
  /// Backoff before the first retry; doubles after each retry.
  SimDuration initial_backoff = std::chrono::milliseconds{500};
  SimDuration max_backoff = std::chrono::seconds{10};
  /// Multiplicative jitter spread on every backoff (0.2 = +-20%).
  double jitter = 0.2;
  /// Per-attempt transport timeout (passed to SendRequest and friends).
  SimDuration attempt_timeout = std::chrono::seconds{15};
  /// Budget from the first attempt; no retry is scheduled past it
  /// (zero = unbounded).
  SimDuration total_deadline = std::chrono::seconds{60};
};

/// True for failures worth retrying: the operation may succeed if simply
/// repeated (coverage hole, server outage, radio flap). Everything else —
/// kNotFound, kPermissionDenied, kInternal, ... — escalates immediately.
[[nodiscard]] bool IsTransient(const Status& status) noexcept;

/// Tracks one operation's attempts against a RetryPolicyConfig.
class RetryState {
 public:
  RetryState(RetryPolicyConfig config, Rng rng) noexcept
      : config_(config), rng_(rng) {}

  /// Stamps the total-deadline epoch (call when the first attempt starts).
  void Begin(SimTime now) noexcept {
    attempts_ = 1;
    epoch_ = now;
    began_ = true;
  }

  /// If the policy allows another attempt at `now`, records it and returns
  /// the jittered backoff to wait before retrying; otherwise an error
  /// saying which budget ran out.
  Result<SimDuration> NextBackoff(SimTime now);

  /// Attempts recorded so far (>= 1 once Begin was called).
  [[nodiscard]] int attempts() const noexcept { return attempts_; }
  [[nodiscard]] int retries() const noexcept {
    return attempts_ > 0 ? attempts_ - 1 : 0;
  }
  [[nodiscard]] const RetryPolicyConfig& config() const noexcept {
    return config_;
  }

  /// Forgets all attempts (a success resets the budget).
  void Reset() noexcept {
    attempts_ = 0;
    began_ = false;
  }

 private:
  RetryPolicyConfig config_;
  Rng rng_;
  int attempts_ = 0;
  SimTime epoch_{};
  bool began_ = false;
};

}  // namespace contory
