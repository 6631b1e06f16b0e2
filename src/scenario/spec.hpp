// Declarative scenario specs: data-driven fault x strategy x policy x
// scale testing.
//
// A ScenarioSpec is a small, line-oriented description of a complete
// experiment — devices with profiles and positions, infrastructure
// services, publishers, a FaultPlan timeline, queries with
// strategy/priority/freshness clauses, and the invariants the run must
// satisfy (delivery counts, terminal query states, metric bounds, zero
// invalid transitions, zero leaked tracer spans). One ScenarioRunner
// executes any spec against the existing testbed/pipeline seams, so a
// new chaos scenario is tens of lines of text instead of a bespoke C++
// test file, and coverage can grow combinatorially (see generator.hpp).
//
//   # Fig. 5 degradation, as a spec
//   scenario fault to degraded and back
//   seed 321
//   device phone-A probe=15s
//   gps gps-1 pos=3,0
//   query q1 on phone-A : SELECT location DURATION 20 min EVERY 5 sec
//   fault at=60s gps.off gps-1 for=180s
//   fault at=80s bt.fail phone-A for=160s
//   run 150s
//   expect q.q1.degraded
//   expect q.q1.stale_items >= 2
//   run 160s
//   expect q.q1.degraded == 0
//   expect q.q1.last_source == intSensor
//
// Grammar (one directive per line; '#' starts a comment):
//
//   scenario <free title>
//   seed <uint64>
//   device <name> [profile=6630|9500] [pos=<x>,<y>] [bt|wifi|cell=on|off]
//          [sensors=<type>+<type>...] [infra=<addr>] [merging=on|off]
//          [degraded=on|off] [probe=<dur>] [retries=<n>]
//          [retry_deadline=<dur>] [retry_timeout=<dur>]
//          [retry_backoff=<dur>] [retry_backoff_max=<dur>]
//          [admit_rate=<num>] [admit_burst=<num>]
//          [shed_high=<n>] [shed_standard=<n>] [stale_fastpath=on|off]
//          [stale_max_age=<dur>]
//   gps <name> pos=<x>,<y>
//   server <addr>
//   feed <addr> type=<type> every=<dur> value=<num> [accuracy=<num>]
//   publish <device> type=<type> [every=<dur>|once] [value=<num>|location]
//           [accuracy=<num>]
//   warm <device> type=<type> value=<num>
//   fault <FaultPlan schedule line>          (docs/FAULTS.md; absolute at=)
//   query <name> on <device> [client=<shared>] : <query text>
//   run <dur>
//   cancel <query>
//   stopall <device>
//   move <device> <x>,<y>
//   policy <device> reduceLoad|reducePower
//   expect <selector> [<op> <value>]         (bare selector means ">= 1")
//
// Every cross-reference (fault targets, query devices, expect subjects)
// is validated at parse time with line-numbered diagnostics, and fault
// times are checked against the cumulative `run` offset so a fault can
// never be scheduled in the simulation's past. See docs/SCENARIOS.md
// for the full invariant catalog.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/time.hpp"
#include "core/context_factory.hpp"
#include "core/query/query.hpp"
#include "fault/fault_plan.hpp"
#include "net/medium.hpp"

namespace contory::scenario {

struct DeviceSpec {
  int line = 0;
  std::string name;
  std::string profile = "6630";  // "6630" | "9500"
  net::Position position{0, 0};
  bool bt = true;
  bool wifi = false;
  bool cell = true;
  std::vector<std::string> sensors;
  std::string infra_address;
  core::ContextFactoryConfig factory;
};

struct GpsSpec {
  int line = 0;
  std::string name;
  net::Position position{0, 0};
};

struct ServerSpec {
  int line = 0;
  std::string address;
};

/// A station feed storing directly into an infrastructure server (the
/// extInfra warm path the fig5_chaos sweep uses).
struct FeedSpec {
  int line = 0;
  std::string server;
  std::string type;
  SimDuration every{};
  double value = 0.0;
  double accuracy = 0.2;
};

/// An ad hoc publisher on a device: registers as a context server and
/// publishes one item (once) or periodically. `location` publishes the
/// device's own (moving) position instead of a fixed number.
struct PublishSpec {
  int line = 0;
  std::string device;
  std::string type;
  SimDuration every{};  // zero = once, immediately
  bool location = false;
  double value = 0.0;
  double accuracy = 1.0;
};

/// Seeds the device's local repository (stale-answer fast-path setup).
struct WarmSpec {
  int line = 0;
  std::string device;
  std::string type;
  double value = 0.0;
};

struct QuerySpec {
  int line = 0;
  std::string name;
  std::string device;
  /// Shared client name; empty = a dedicated client for this query.
  /// Sharing matters for token buckets (charged per client) and merge
  /// scenarios; item/error selectors then read the shared client's
  /// combined vectors.
  std::string client;
  std::string text;
  query::CxtQuery parsed;
};

/// One checked invariant. Selector domains:
///   q.<query>.<prop>    prop: items, stale_items, fresh_items, errors,
///                       completions, submitted, refused, degraded,
///                       active, retry_hint, staleness_increasing,
///                       last_stale, last_source (str), mechanism (str),
///                       error_text (str), status (str)
///   d.<device>.<prop>   prop: active, invalid_transitions, completed,
///                       admitted, switches, retries,
///                       degraded_deliveries, providers,
///                       originals.<facade>, providers.<facade>,
///                       last_switch (str)
///   srv.<address>.dropped  requests the server swallowed in an outage
///   tracer.open_spans | tracer.double_closes
///   injector.injected
///   metric.<name>       registry counter/gauge by exact unlabeled name
struct ExpectSpec {
  enum class Domain : std::uint8_t {
    kQuery,
    kDevice,
    kServer,
    kTracer,
    kInjector,
    kMetric,
  };
  enum class Op : std::uint8_t { kEq, kNe, kGe, kLe, kGt, kLt, kContains };

  int line = 0;
  std::string raw;       // the selector text, for failure messages
  Domain domain = Domain::kQuery;
  std::string entity;    // query/device/server/metric name
  std::string property;  // e.g. "items"
  std::string facade;    // for d.<dev>.originals.<facade>
  Op op = Op::kGe;
  double number = 1.0;
  std::string text;      // string rhs (contains / string ==)
  bool is_text = false;
};

struct Step {
  enum class Kind : std::uint8_t {
    kDevice,
    kGps,
    kServer,
    kFeed,
    kPublish,
    kWarm,
    kFault,
    kQuery,
    kRun,
    kCancel,
    kStopAll,
    kMove,
    kPolicy,
    kExpect,
  };

  Kind kind = Kind::kRun;
  int line = 0;
  DeviceSpec device;
  GpsSpec gps;
  ServerSpec server;
  FeedSpec feed;
  PublishSpec publish;
  WarmSpec warm;
  fault::FaultAction fault;
  QuerySpec query;
  SimDuration run{};
  std::string target;  // cancel: query name; stopall/move/policy: device
  net::Position move_pos{};
  core::RuleAction policy_action = core::RuleAction::kReduceLoad;
  ExpectSpec expect;
};

struct ScenarioSpec {
  std::string title;
  std::uint64_t seed = 1;
  /// Executed strictly in order; `run` steps advance the sim clock.
  std::vector<Step> steps;
  /// Total of all `run` durations (the scenario's sim-time length).
  SimDuration total_run{};
};

/// Parses a scenario spec. Failures carry "line N:" diagnostics for the
/// offending directive — unknown devices, malformed clauses, queries
/// that fail the query-language parser, faults scheduled in the past,
/// invariants on undeclared queries, and so on.
[[nodiscard]] Result<ScenarioSpec> ParseScenario(const std::string& text);

}  // namespace contory::scenario
