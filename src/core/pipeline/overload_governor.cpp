#include "core/pipeline/overload_governor.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/observability.hpp"

namespace contory::core {
namespace {
/// "retry after 0.250s" — the typed status hint; ParseRetryAfterSeconds
/// is its inverse.
std::string RetryAfterHint(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "retry after %.3fs",
                std::max(seconds, 0.0));
  return buf;
}

obs::Gauge& ShedLevelGauge() {
  static obs::Gauge& g =
      obs::Observability::metrics().GetGauge("overload_shed_level");
  return g;
}

void CountShed(query::QueryPriority cls) {
  obs::Observability::metrics()
      .GetCounter("admission_shed_total",
                  {{"class", query::QueryPriorityName(cls)}})
      .Inc();
}

}  // namespace

const char* ShedLevelName(ShedLevel level) noexcept {
  switch (level) {
    case ShedLevel::kNone: return "none";
    case ShedLevel::kBackground: return "background";
    case ShedLevel::kStandard: return "standard";
  }
  return "?";
}

OverloadGovernor::OverloadGovernor(sim::Simulation& sim,
                                   const CxtRepository& repository,
                                   OverloadGovernorConfig config)
    : sim_(sim), repository_(repository), config_(config) {
  high_wm_ = config_.shed_high_watermark;
  if (high_wm_ != 0) {
    standard_wm_ = config_.shed_standard_watermark != 0
                       ? config_.shed_standard_watermark
                       : high_wm_ * 2;
    standard_wm_ = std::max(standard_wm_, high_wm_);
    low_wm_ = high_wm_ / 2;
  }
}

OverloadGovernor::Bucket& OverloadGovernor::BucketFor(const Client& client,
                                                      SimTime now) {
  const auto [it, created] = buckets_.try_emplace(&client);
  Bucket& b = it->second;
  if (created) {
    b.tokens = burst();
    b.last = now;
    COBS({
      // Clients have no names; label buckets in first-seen order.
      std::string label = "c";
      label.append(std::to_string(buckets_.size() - 1));
      b.gauge = &obs::Observability::metrics().GetGauge(
          "overload_bucket_tokens", {{"client", label}});
    });
    return b;
  }
  b.tokens = std::min(
      burst(),
      b.tokens + ToSeconds(now - b.last) * config_.admit_rate_per_s);
  b.last = now;
  return b;
}

void OverloadGovernor::UpdateLevel(std::size_t occupancy) {
  if (high_wm_ == 0) return;
  if (occupancy >= standard_wm_) {
    level_ = ShedLevel::kStandard;
  } else if (occupancy >= high_wm_) {
    // Rising edge engages background shedding; an engaged standard
    // level holds until occupancy falls below the high watermark.
    if (level_ == ShedLevel::kNone) level_ = ShedLevel::kBackground;
  } else if (occupancy < low_wm_) {
    level_ = ShedLevel::kNone;
  } else if (level_ == ShedLevel::kStandard) {
    // Between the low and high watermarks: standard traffic resumes,
    // background stays shed until the low watermark clears it.
    level_ = ShedLevel::kBackground;
  }
}

bool OverloadGovernor::StaleEligible(const query::CxtQuery& query,
                                     SimTime now) const {
  if (!config_.stale_fast_path) return false;
  const auto item = repository_.Latest(query.select_type);
  if (!item.ok()) return false;
  SimDuration max_age = config_.stale_answer_max_age;
  if (query.freshness.has_value()) {
    max_age = std::min(max_age, *query.freshness);
  }
  return item->IsFresh(now, max_age);
}

OverloadGovernor::Decision OverloadGovernor::Decide(
    const query::CxtQuery& query, const Client& client,
    const std::set<RuleAction>& active_actions, std::size_t occupancy) {
  Decision d;
  d.cls = query.priority;
  if (!Armed(active_actions)) return d;

  const SimTime now = sim_.Now();

  // Gate 1: per-client token bucket. Every submission attempt spends a
  // token; an empty bucket refuses outright (no stale fast path — the
  // client is over its own budget, not a victim of global pressure).
  if (config_.admit_rate_per_s > 0.0) {
    Bucket& b = BucketFor(client, now);
    if (b.tokens < 1.0) {
      d.outcome = Decision::Outcome::kShed;
      d.rate_limited = true;
      d.status = Overloaded(
          "client admission budget exhausted; " +
          RetryAfterHint((1.0 - b.tokens) / config_.admit_rate_per_s));
      COBS({
        obs::Observability::metrics()
            .GetCounter("rate_limited_total")
            .Inc();
        if (b.gauge != nullptr) b.gauge->Set(b.tokens);
      });
      return d;
    }
    b.tokens -= 1.0;
    COBS(if (b.gauge != nullptr) b.gauge->Set(b.tokens));
  }

  // Gate 2: queue-depth shedding, graduated by priority class. The
  // reduceLoad context rule forces at least background shedding.
  UpdateLevel(occupancy);
  ShedLevel effective = level_;
  if (active_actions.contains(RuleAction::kReduceLoad)) {
    effective = std::max(effective, ShedLevel::kBackground);
  }
  COBS(ShedLevelGauge().Set(static_cast<double>(effective)));
  const bool shed =
      (effective >= ShedLevel::kBackground &&
       d.cls == query::QueryPriority::kBackground) ||
      (effective >= ShedLevel::kStandard &&
       d.cls == query::QueryPriority::kStandard);
  if (!shed) {
    if (effective != ShedLevel::kNone) d.note = "admitted-under-shed";
    return d;
  }

  d.status = Overloaded(
      "shedding " + std::string(query::QueryPriorityName(d.cls)) +
      "-class admissions (occupancy " + std::to_string(occupancy) +
      ", shed level " + ShedLevelName(effective) + "); " +
      RetryAfterHint(1.0));
  COBS(CountShed(d.cls));
  if (StaleEligible(query, now)) {
    // Stale-answer-first: the record admits but skips planning and is
    // served from the repository by the degraded-mode machinery.
    d.outcome = Decision::Outcome::kDegrade;
    d.note = "shed:stale-fastpath";
    COBS(obs::Observability::metrics()
             .GetCounter("admission_stale_fastpath_total")
             .Inc());
    return d;
  }
  d.outcome = Decision::Outcome::kShed;
  return d;
}

double OverloadGovernor::TokensFor(const Client& client) const {
  const auto it = buckets_.find(&client);
  if (it == buckets_.end()) return burst();
  const Bucket& b = it->second;
  return std::min(b.tokens + ToSeconds(sim_.Now() - b.last) *
                                 config_.admit_rate_per_s,
                  burst());
}

double OverloadGovernor::ParseRetryAfterSeconds(const std::string& message) {
  const std::string needle = "retry after ";
  const auto pos = message.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(message.c_str() + pos + needle.size(), nullptr);
}

}  // namespace contory::core
