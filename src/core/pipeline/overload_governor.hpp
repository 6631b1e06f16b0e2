// OverloadGovernor (pipeline stage 0: admission overload protection).
//
// The paper's contextRules (reducePower/reduceMemory/reduceLoad, Sec. 5)
// are per-device hints; at submit-storm scale the factory needs a real
// admission gate in front of pipeline stage 1. The governor combines
// three mechanisms, all deterministic on the simulation clock:
//
//   1. Per-client token buckets. Each client refills at a configured
//      rate (tokens are sim-time deltas times rate, so identical
//      schedules make identical decisions under any seed) and every
//      submission spends one token. An empty bucket refuses the query
//      with a typed OVERLOADED status carrying a retry-after hint. One
//      noisy client drains only its own bucket.
//
//   2. Priority-class load shedding. Queries carry a 3-level PRIORITY
//      class (interactive/standard/background). When active-query
//      occupancy crosses the high watermark, background admissions
//      shed; above the standard watermark, standard sheds too.
//      Interactive traffic always admits. Shedding disengages with
//      hysteresis (below the low watermark) so occupancy noise around
//      the threshold cannot flap the gate.
//
//   3. The reduceLoad context rule engages the same shedding path:
//      while active it sheds background admissions even below the
//      watermarks (on top of the existing provider cap the
//      PolicyEnforcer applies to already-running queries).
//
// A shed query whose SELECT type has a fresh-enough repository entry is
// not refused: the governor downgrades the decision to kDegrade and the
// factory routes it through the degraded-mode delivery machinery
// (stale-answer-first fast path, FailoverCoordinator seam).
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <unordered_map>

#include "common/status.hpp"
#include "common/time.hpp"
#include "core/query/query.hpp"
#include "core/repository.hpp"
#include "core/rules.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace contory::core {

class Client;

struct OverloadGovernorConfig {
  /// Token-bucket refill rate per client (admissions/second of sim
  /// time); <= 0 disables rate limiting.
  double admit_rate_per_s = 0.0;
  /// Bucket capacity (burst); <= 0 means equal to admit_rate_per_s.
  double admit_burst = 0.0;
  /// Active-query occupancy at which background admissions shed;
  /// 0 disables watermark shedding.
  std::size_t shed_high_watermark = 0;
  /// Occupancy at which standard admissions shed too; 0 = 2x high.
  /// Shedding fully disengages below high / 2 (hysteresis), and a
  /// watermark-shed refusal tells the client to retry after 1 s.
  std::size_t shed_standard_watermark = 0;
  /// Serve a stale repository answer (degraded-mode machinery) instead
  /// of refusing, when the cached entry is fresh enough.
  bool stale_fast_path = true;
  /// Maximum age a repository entry may have to satisfy a shed query;
  /// a query's own FRESHNESS clause tightens this further.
  SimDuration stale_answer_max_age = std::chrono::seconds{30};
};

/// What the governor is currently shedding (hysteresis state).
enum class ShedLevel : std::uint8_t {
  kNone = 0,
  kBackground = 1,  // background admissions shed
  kStandard = 2,    // background + standard shed
};

[[nodiscard]] const char* ShedLevelName(ShedLevel level) noexcept;

class OverloadGovernor {
 public:
  struct Decision {
    enum class Outcome : std::uint8_t {
      kAdmit,    // pass to stage 1
      kShed,     // refuse with `status` (kOverloaded, retry-after hint)
      kDegrade,  // admit, skip planning, serve stale repository data
    };
    Outcome outcome = Outcome::kAdmit;
    /// The shed cause for kShed/kDegrade; OK for kAdmit.
    Status status;
    query::QueryPriority cls = query::QueryPriority::kStandard;
    /// True when the per-client token bucket refused the query.
    bool rate_limited = false;
    /// Root-span annotation for admitted/degraded records (static
    /// string; nullptr = nothing to note).
    const char* note = nullptr;
  };

  OverloadGovernor(sim::Simulation& sim, const CxtRepository& repository,
                   OverloadGovernorConfig config);

  /// Gate for one submission. Charges `client`'s token bucket, updates
  /// the shed level from `occupancy` (the table's active_count()) and
  /// returns what the admission pipeline should do with the query.
  Decision Decide(const query::CxtQuery& query, const Client& client,
                  const std::set<RuleAction>& active_actions,
                  std::size_t occupancy);

  /// True when any gate can ever refuse (rate limiting or watermark
  /// shedding configured, or reduceLoad currently active).
  [[nodiscard]] bool Armed(
      const std::set<RuleAction>& active_actions) const noexcept {
    return config_.admit_rate_per_s > 0.0 || high_wm_ != 0 ||
           active_actions.contains(RuleAction::kReduceLoad);
  }

  [[nodiscard]] ShedLevel level() const noexcept { return level_; }
  /// Tokens currently in `client`'s bucket (full burst when the client
  /// has never submitted). Diagnostics / tests.
  [[nodiscard]] double TokensFor(const Client& client) const;

  /// Parses the "retry after <seconds>s" hint out of a kOverloaded
  /// status message; negative when absent.
  [[nodiscard]] static double ParseRetryAfterSeconds(
      const std::string& message);

 private:
  struct Bucket {
    double tokens = 0.0;
    SimTime last{};
    obs::Gauge* gauge = nullptr;  // overload_bucket_tokens{client="cN"}
  };

  [[nodiscard]] double burst() const noexcept {
    return config_.admit_burst > 0.0 ? config_.admit_burst
                                     : config_.admit_rate_per_s;
  }
  /// Refills and returns the bucket for `client`, creating it at full
  /// burst on first sight.
  Bucket& BucketFor(const Client& client, SimTime now);
  /// Advances the hysteresis state machine for this occupancy sample.
  void UpdateLevel(std::size_t occupancy);
  /// True when a repository entry can satisfy a shed `query` stale.
  [[nodiscard]] bool StaleEligible(const query::CxtQuery& query,
                                   SimTime now) const;

  sim::Simulation& sim_;
  const CxtRepository& repository_;
  OverloadGovernorConfig config_;
  std::size_t high_wm_ = 0;
  std::size_t standard_wm_ = 0;
  std::size_t low_wm_ = 0;
  ShedLevel level_ = ShedLevel::kNone;
  std::unordered_map<const Client*, Bucket> buckets_;
};

}  // namespace contory::core
