// CxtQuery: the parsed/constructed context query object, plus a fluent
// builder for programmatic construction (what the J2ME prototype's
// "instantiating context query objects in few lines of code" looked like).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "core/query/ast.hpp"

namespace contory::query {

/// Admission priority class (PRIORITY clause). Under overload the
/// OverloadGovernor sheds background first, then standard; interactive
/// traffic keeps admitting. The planner sees the class through the query
/// record it plans.
enum class QueryPriority : std::uint8_t {
  kInteractive = 0,
  kStandard = 1,  // the default: unannotated queries
  kBackground = 2,
};

/// "interactive" / "standard" / "background".
[[nodiscard]] const char* QueryPriorityName(QueryPriority p) noexcept;

struct CxtQuery {
  /// Unique query id, assigned on submission ("a unique identifier is
  /// associated with each query").
  std::string id;
  std::string select_type;              // SELECT (mandatory)
  FromClause from;                      // FROM (optional: auto)
  std::optional<Predicate> where;       // WHERE
  std::optional<SimDuration> freshness; // FRESHNESS
  DurationClause duration;              // DURATION (mandatory)
  std::optional<SimDuration> every;     // EVERY  } mutually
  std::optional<Predicate> event;       // EVENT  } exclusive
  QueryPriority priority = QueryPriority::kStandard;  // PRIORITY (optional)

  [[nodiscard]] InteractionMode mode() const noexcept {
    if (every.has_value()) return InteractionMode::kPeriodic;
    if (event.has_value()) return InteractionMode::kEventBased;
    return InteractionMode::kOnDemand;
  }

  /// Structural validity: SELECT and DURATION present, EVERY xor EVENT,
  /// aggregates only in EVENT, adHoc scopes sane. Parse() and Build()
  /// enforce this; it is re-checked at submission.
  [[nodiscard]] Status Validate() const;

  /// Renders back to query-language text (parse/print round-trips).
  [[nodiscard]] std::string ToString() const;

  /// Parses query text. Offsets in error messages refer to `text`.
  [[nodiscard]] static Result<CxtQuery> Parse(std::string_view text);

  /// Wire encoding, padded to the prototype's 205-byte query object when
  /// smaller ("the size of a context query object is 205 bytes").
  [[nodiscard]] std::vector<std::byte> Serialize() const;
  [[nodiscard]] static Result<CxtQuery> Deserialize(
      const std::vector<std::byte>& wire);

  friend bool operator==(const CxtQuery&, const CxtQuery&) = default;
};

/// Fluent construction:
///   auto q = QueryBuilder(vocab::kTemperature)
///                .FromAdHoc(10, 3)
///                .WhereMeta("accuracy", CompareOp::kEq, 0.2)
///                .Freshness(30s)
///                .For(1h)
///                .Event(avg_above_25)
///                .Build();            // throws std::invalid_argument
class QueryBuilder {
 public:
  explicit QueryBuilder(std::string select_type);

  QueryBuilder& FromIntSensor(std::string address = {});
  QueryBuilder& FromExtInfra(std::string address = {});
  QueryBuilder& FromAdHoc(int num_nodes = AdHocScope::kAllNodes,
                          int num_hops = 1);
  /// Adds a destination to the most recently added source (or to a fresh
  /// auto source when none was added yet).
  QueryBuilder& TargetRegion(GeoPoint center, double radius_m);

  /// ANDs another comparison into the WHERE clause.
  QueryBuilder& Where(Comparison c);
  QueryBuilder& WhereMeta(std::string field, CompareOp op, CxtValue literal);
  QueryBuilder& WherePredicate(Predicate p);

  QueryBuilder& Freshness(SimDuration d);
  QueryBuilder& For(SimDuration lifetime);   // DURATION <time>
  QueryBuilder& Every(SimDuration period);
  QueryBuilder& Event(Predicate p);
  QueryBuilder& EventAggregate(AggregateFn fn, std::string type,
                               CompareOp op, double threshold);
  QueryBuilder& Priority(QueryPriority p);

  /// Validates and returns the query. Throws std::invalid_argument on a
  /// structurally invalid combination (programming error).
  [[nodiscard]] CxtQuery Build() const;

 private:
  SourceSpec& LastSource();
  CxtQuery q_;
};

}  // namespace contory::query

namespace contory::core {

/// Internal query handle, issued by the QueryTable at admission: the
/// record's SlotTable handle (common/slot_table.hpp), unique and never
/// reused, but not sequential. 0 means "invalid". Id strings
/// (CxtQuery::id) stay at the public API; the pipeline passes these.
using QueryId = std::uint64_t;
inline constexpr QueryId kInvalidQueryId = 0;

/// Names one cluster of one Facade: its SlotTable handle there. A
/// query's record holds one per mechanism; 0 means "none".
using ClusterRef = std::uint64_t;
inline constexpr ClusterRef kInvalidClusterRef = 0;

}  // namespace contory::core
