#include "core/providers/provider.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "core/query/predicate.hpp"

namespace contory::core {

CxtProvider::CxtProvider(sim::Simulation& sim, query::CxtQuery query,
                         Callbacks callbacks)
    : sim_(sim), query_(std::move(query)), callbacks_(std::move(callbacks)) {
  if (!callbacks_.deliver || !callbacks_.finished) {
    throw std::invalid_argument("CxtProvider: null callbacks");
  }
}

CxtProvider::~CxtProvider() { sim_.Cancel(retry_timer_); }

void CxtProvider::Start() {
  if (running_) return;
  running_ = true;
  finished_ = false;
  DoStart();
}

void CxtProvider::Stop() {
  if (!running_) return;
  running_ = false;
  sim_.Cancel(retry_timer_);
  retry_timer_ = sim::kInvalidTimer;
  DoStop();
}

void CxtProvider::ConfigureRetry(const RetryPolicyConfig& config) {
  // Fork the retry rng off the simulation stream so backoff jitter is
  // deterministic per seed without perturbing other consumers.
  retry_state_.emplace(config, sim_.rng().Fork());
}

bool CxtProvider::RetryTransient(const Status& cause,
                                 std::function<void()> attempt) {
  if (!running_ || !retry_state_.has_value() || !IsTransient(cause)) {
    return false;
  }
  const auto backoff = retry_state_->NextBackoff(sim_.Now());
  if (!backoff.ok()) return false;  // budget or deadline spent: escalate
  ++retries_;
  sim_.Cancel(retry_timer_);
  retry_timer_ = sim_.ScheduleAfter(
      *backoff,
      [this, attempt = std::move(attempt)] {
        retry_timer_ = sim::kInvalidTimer;
        if (running_) attempt();
      },
      "provider.retry");
  return true;
}

SimDuration CxtProvider::AttemptTimeout() const noexcept {
  if (retry_state_.has_value()) return retry_state_->config().attempt_timeout;
  return std::chrono::seconds{30};
}

void CxtProvider::UpdateQuery(query::CxtQuery query) {
  query_ = std::move(query);
  if (running_) OnQueryUpdated();
}

SimDuration CxtProvider::DefaultPollPeriod() const {
  if (query_.every.has_value()) return *query_.every;
  if (query_.freshness.has_value()) {
    return std::max<SimDuration>(*query_.freshness / 2,
                                 std::chrono::seconds{1});
  }
  return std::chrono::seconds{5};
}

bool CxtProvider::PassesFilters(const CxtItem& item) const {
  if (item.type != query_.select_type) return false;
  if (item.IsExpired(sim_.Now())) return false;
  if (query_.freshness.has_value() &&
      !item.IsFresh(sim_.Now(), *query_.freshness)) {
    return false;
  }
  if (query_.where.has_value()) {
    const auto match = query::EvalWhere(*query_.where, item);
    if (!match.ok()) {
      CLOG_WARN("provider", "WHERE evaluation error for %s: %s",
                query_.id.c_str(), match.status().ToString().c_str());
      return false;
    }
    if (!*match) return false;
  }
  return true;
}

void CxtProvider::Deliver(const CxtItem& item) {
  ++delivered_;
  callbacks_.deliver(item);
  if (query_.duration.samples.has_value() &&
      delivered_ >= static_cast<std::uint64_t>(*query_.duration.samples)) {
    FinishOnce(Status::Ok());
  }
}

void CxtProvider::Offer(CxtItem item) {
  if (!running_) return;
  ++offered_;
  if (!PassesFilters(item)) return;
  if (query_.event.has_value()) {
    event_window_.push_back(item);
    if (event_window_.size() > kEventWindowCap) {
      event_window_.erase(event_window_.begin());
    }
    const auto fire = query::EvalEvent(*query_.event, event_window_);
    if (!fire.ok() || !*fire) return;
  }
  Deliver(item);
}

void CxtProvider::OfferPreEvaluated(CxtItem item) {
  if (!running_) return;
  ++offered_;
  if (!PassesFilters(item)) return;
  Deliver(item);
}

void CxtProvider::Fail(Status status) { FinishOnce(std::move(status)); }

void CxtProvider::CompleteOk() { FinishOnce(Status::Ok()); }

void CxtProvider::FinishOnce(Status status) {
  if (finished_) return;
  finished_ = true;
  Stop();
  callbacks_.finished(std::move(status));
}

}  // namespace contory::core
