// CxtProvider base (Sec. 4.3).
//
// "CxtProviders are responsible for accomplishing context provisioning.
// ... Based on the EVENT and EVERY clauses specification, context
// providers offer three modes of interaction: on-demand query,
// event-based query, and periodic query."
//
// The base class owns the query-lifecycle machinery every concrete
// provider shares: the sample-count DURATION, WHERE + FRESHNESS
// filtering, the EVENT evaluation window, and delivery/completion
// callbacks. A time DURATION is not the provider's: each original query
// expires on its own QueryRecord's clock and is cancelled on the facade. Subclasses implement the transport: local
// sensors, the remote infrastructure, or the ad hoc network.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/retry.hpp"
#include "common/status.hpp"
#include "core/model/cxt_item.hpp"
#include "core/query/query.hpp"
#include "sim/simulation.hpp"

namespace contory::core {

class CxtProvider {
 public:
  struct Callbacks {
    /// A result matching the (merged) query. The Facade post-extracts per
    /// original query before clients see it.
    std::function<void(const CxtItem&)> deliver;
    /// Query over: Ok = on-demand round or samples complete; error = the
    /// transport failed and the factory should reconfigure (Fig. 5).
    std::function<void(Status)> finished;
  };

  CxtProvider(sim::Simulation& sim, query::CxtQuery query,
              Callbacks callbacks);
  virtual ~CxtProvider();

  CxtProvider(const CxtProvider&) = delete;
  CxtProvider& operator=(const CxtProvider&) = delete;

  /// Which provisioning mechanism this provider implements.
  [[nodiscard]] virtual query::SourceSel kind() const noexcept = 0;
  /// Human-readable transport detail ("BT one-hop", "WiFi SM", ...).
  [[nodiscard]] virtual const char* transport() const noexcept = 0;

  /// Begins provisioning: calls DoStart().
  void Start();
  /// Cancels provisioning silently (no finished callback).
  void Stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Applies a merged/updated query ("each CxtProvider is assigned only
  /// to one (single or merged) query at time") and informs the subclass
  /// (rate changes etc.).
  void UpdateQuery(query::CxtQuery query);

  /// A query merged into this provider's cluster ends at `deadline`;
  /// a provider holding a remote registration extends it to match.
  virtual void CoverDeadline(SimTime /*deadline*/) {}

  /// Arms the transient-failure retry policy: transports that report a
  /// retryable failure through RetryTransient() back off and re-attempt
  /// (seeded jitter, bounded budget) before escalating Fail() to the
  /// factory. Providers without a configured policy never retry.
  void ConfigureRetry(const RetryPolicyConfig& config);

  [[nodiscard]] const query::CxtQuery& query() const noexcept {
    return query_;
  }
  [[nodiscard]] std::uint64_t items_delivered() const noexcept {
    return delivered_;
  }
  [[nodiscard]] std::uint64_t items_offered() const noexcept {
    return offered_;
  }
  /// Transient-failure retries scheduled so far (diagnostics, benches).
  [[nodiscard]] std::uint64_t retries_attempted() const noexcept {
    return retries_;
  }

  /// Open tracer span (the query's provision stage, or its root) this
  /// provider's transport activity should nest under — the AdHoc WiFi
  /// transport threads it through its SM-FINDERs so per-hop spans land
  /// in the right query tree. 0 (the default) = untraced; the factory
  /// sets it at provider creation when observability is on.
  void SetTraceSpan(std::uint64_t span) noexcept { trace_span_ = span; }
  [[nodiscard]] std::uint64_t trace_span() const noexcept {
    return trace_span_;
  }

 protected:
  virtual void DoStart() = 0;
  virtual void DoStop() = 0;
  /// Rate or scope may have changed (called while running).
  virtual void OnQueryUpdated() {}

  /// Feeds one collected item through the full pipeline: WHERE +
  /// FRESHNESS filtering, EVENT windowing, sample counting, delivery.
  void Offer(CxtItem item);

  /// Same but skips EVENT evaluation — for transports whose remote side
  /// already evaluated the EVENT condition (infrastructure-registered
  /// queries).
  void OfferPreEvaluated(CxtItem item);

  /// Subclass-reported unrecoverable transport failure: stops and calls
  /// finished(status).
  void Fail(Status status);

  /// If `cause` is transient and the configured retry policy allows
  /// another attempt, schedules `attempt` after the next backoff and
  /// returns true (the caller should simply return). Otherwise returns
  /// false and the caller escalates with Fail(cause).
  bool RetryTransient(const Status& cause, std::function<void()> attempt);

  /// Per-attempt transport timeout from the retry policy (the transport
  /// default when no policy is configured).
  [[nodiscard]] SimDuration AttemptTimeout() const noexcept;

  /// Marks the current attempt successful: a later transient failure
  /// starts over with a fresh retry budget.
  void RetrySucceeded() noexcept {
    if (retry_state_.has_value()) retry_state_->Reset();
  }

  /// On-demand round complete: stops and calls finished(Ok).
  void CompleteOk();

  [[nodiscard]] sim::Simulation& sim() const noexcept { return sim_; }

  /// Poll rate used when collecting samples for EVENT queries or
  /// on-demand rounds where the query names no EVERY.
  [[nodiscard]] SimDuration DefaultPollPeriod() const;

 private:
  [[nodiscard]] bool PassesFilters(const CxtItem& item) const;
  void Deliver(const CxtItem& item);
  void FinishOnce(Status status);

  sim::Simulation& sim_;
  query::CxtQuery query_;
  Callbacks callbacks_;
  bool running_ = false;
  bool finished_ = false;
  sim::TimerId retry_timer_ = sim::kInvalidTimer;
  std::optional<RetryState> retry_state_;
  std::uint64_t retries_ = 0;
  std::vector<CxtItem> event_window_;
  std::uint64_t delivered_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t trace_span_ = 0;

  static constexpr std::size_t kEventWindowCap = 32;
};

}  // namespace contory::core
