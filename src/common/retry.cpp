#include "common/retry.hpp"

#include <algorithm>
#include <cmath>

namespace contory {

bool IsTransient(const Status& status) noexcept {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded;
}

Result<SimDuration> RetryState::NextBackoff(SimTime now) {
  if (!began_) Begin(now);
  if (attempts_ >= config_.max_attempts) {
    return ResourceExhausted("retry budget exhausted (" +
                             std::to_string(config_.max_attempts) +
                             " attempts)");
  }
  // Doubling from the initial backoff, capped.
  double scale = 1.0;
  for (int i = 1; i < attempts_; ++i) scale *= 2.0;
  const auto raw = static_cast<double>(config_.initial_backoff.count()) *
                   scale;
  const auto capped =
      std::min(raw, static_cast<double>(config_.max_backoff.count()));
  const auto jittered = SimDuration{static_cast<std::int64_t>(
      rng_.Jitter(capped, std::clamp(config_.jitter, 0.0, 1.0)))};
  if (config_.total_deadline > SimDuration::zero() &&
      now + jittered > epoch_ + config_.total_deadline) {
    return DeadlineExceeded("retry deadline of " +
                            FormatDuration(config_.total_deadline) +
                            " exceeded");
  }
  ++attempts_;
  return jittered;
}

}  // namespace contory
