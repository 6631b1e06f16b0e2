// Abstract syntax of the Contory context query language (Sec. 4.2):
//
//   SELECT <context name>              (mandatory)
//   FROM <source>
//   WHERE <predicate clause>
//   FRESHNESS <time>
//   DURATION <duration>                (mandatory; time or sample count)
//   EVERY <time> | EVENT <predicate>   (mutually exclusive)
//
// All AST nodes are value types (copyable) because query merging clones
// and rewrites clauses.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "core/model/cxt_value.hpp"

namespace contory::query {

// --- Predicates (WHERE / EVENT) -------------------------------------------

enum class CompareOp : std::uint8_t { kEq, kNe, kLt, kGt, kLe, kGe };
[[nodiscard]] const char* CompareOpName(CompareOp op) noexcept;

/// Aggregate functions usable in EVENT clauses ("EVENT AVG(temperature)>25").
enum class AggregateFn : std::uint8_t { kNone, kAvg, kMin, kMax, kCount, kSum };
[[nodiscard]] const char* AggregateFnName(AggregateFn fn) noexcept;

/// One comparison: `[AGG(]field[)] op literal`. `field` is a metadata name
/// ("accuracy"), the pseudo-field "value", or a context type name (which
/// also resolves to the item's value when the types match).
struct Comparison {
  AggregateFn aggregate = AggregateFn::kNone;
  std::string field;
  CompareOp op = CompareOp::kEq;
  CxtValue literal;

  [[nodiscard]] std::string ToString() const;
  friend bool operator==(const Comparison&, const Comparison&) = default;
};

/// Boolean expression tree over comparisons.
struct Predicate {
  enum class Kind : std::uint8_t { kComparison, kAnd, kOr, kNot };

  Kind kind = Kind::kComparison;
  Comparison comparison;             // when kind == kComparison
  std::vector<Predicate> children;   // kAnd/kOr: >=2; kNot: exactly 1

  [[nodiscard]] static Predicate Leaf(Comparison c) {
    Predicate p;
    p.comparison = std::move(c);
    return p;
  }
  [[nodiscard]] static Predicate And(std::vector<Predicate> children);
  [[nodiscard]] static Predicate Or(std::vector<Predicate> children);
  [[nodiscard]] static Predicate Not(Predicate child);

  /// True when any comparison in the tree uses an aggregate function.
  [[nodiscard]] bool ContainsAggregate() const;

  [[nodiscard]] std::string ToString() const;
  friend bool operator==(const Predicate&, const Predicate&) = default;
};

// --- FROM clause ----------------------------------------------------------

/// Which provisioning mechanism a source spec names.
enum class SourceSel : std::uint8_t {
  kAuto,          // FROM unspecified: middleware chooses ("max transparency")
  kIntSensor,
  kExtInfra,
  kAdHocNetwork,
};
[[nodiscard]] const char* SourceSelName(SourceSel s) noexcept;

/// A subset of the three concrete mechanisms (intSensor, extInfra,
/// adHocNetwork) in one byte: the facades serving one query, the ones it
/// starts on, the ones that failed it. kAuto is never a member. Range-for
/// visits the members in enum order over a snapshot of the bits, so a
/// loop body may insert or erase members, or destroy the set.
class MechanismSet {
 public:
  /// The members not visited yet.
  class iterator {
   public:
    [[nodiscard]] constexpr SourceSel operator*() const noexcept {
      return static_cast<SourceSel>(std::countr_zero(bits_));
    }
    constexpr iterator& operator++() noexcept {
      bits_ &= static_cast<std::uint8_t>(bits_ - 1);  // drop the lowest
      return *this;
    }
    friend constexpr bool operator==(iterator, iterator) noexcept = default;

   private:
    friend class MechanismSet;
    constexpr explicit iterator(std::uint8_t bits) noexcept : bits_(bits) {}
    std::uint8_t bits_;
  };

  constexpr MechanismSet() noexcept = default;
  constexpr MechanismSet(std::initializer_list<SourceSel> kinds) noexcept {
    for (const SourceSel kind : kinds) insert(kind);
  }

  [[nodiscard]] constexpr bool contains(SourceSel kind) const noexcept {
    return (bits_ & Bit(kind)) != 0;
  }
  /// True when `kind` was not a member yet.
  constexpr bool insert(SourceSel kind) noexcept {
    const std::uint8_t before = bits_;
    bits_ |= Bit(kind);
    return bits_ != before;
  }
  constexpr void erase(SourceSel kind) noexcept {
    bits_ &= static_cast<std::uint8_t>(~Bit(kind));
  }
  constexpr void clear() noexcept { bits_ = 0; }
  [[nodiscard]] constexpr std::size_t size() const noexcept {
    return static_cast<std::size_t>(std::popcount(bits_));
  }
  [[nodiscard]] constexpr bool empty() const noexcept { return bits_ == 0; }

  [[nodiscard]] constexpr iterator begin() const noexcept {
    return iterator(bits_);
  }
  [[nodiscard]] constexpr iterator end() const noexcept { return iterator(0); }

  friend constexpr MechanismSet operator|(MechanismSet a,
                                          MechanismSet b) noexcept {
    a.bits_ |= b.bits_;
    return a;
  }
  friend constexpr bool operator==(MechanismSet, MechanismSet) noexcept =
      default;

 private:
  /// Bit i stands for the SourceSel of value i; kAuto (0) has none.
  [[nodiscard]] static constexpr std::uint8_t Bit(SourceSel kind) noexcept {
    return static_cast<std::uint8_t>((1u << static_cast<unsigned>(kind)) &
                                     0b1110u);
  }

  std::uint8_t bits_ = 0;
};

/// adHocNetwork(numNodes, numHops): "all nodes that can be discovered
/// (numNodes=all) or the first k nodes found within a distance lower than
/// j hops".
struct AdHocScope {
  static constexpr int kAllNodes = -1;
  int num_nodes = kAllNodes;
  int num_hops = 1;

  [[nodiscard]] bool all_nodes() const noexcept {
    return num_nodes == kAllNodes;
  }
  friend bool operator==(const AdHocScope&, const AdHocScope&) = default;
};

/// "the coordinates of a region to be monitored (e.g., next exit on the
/// highway)".
struct RegionDest {
  GeoPoint center;
  double radius_m = 0.0;
  friend bool operator==(const RegionDest&, const RegionDest&) = default;
};

/// "the identifier of an entity (e.g., to know when a friend is nearby)".
struct EntityDest {
  std::string entity_id;
  friend bool operator==(const EntityDest&, const EntityDest&) = default;
};

struct SourceSpec {
  SourceSel kind = SourceSel::kAuto;
  /// Specific source address (sensor name, infrastructure host).
  std::string address;
  std::optional<AdHocScope> scope;    // adHocNetwork only
  std::optional<RegionDest> region;   // destination: region to monitor
  std::optional<EntityDest> entity;   // destination: entity of interest

  [[nodiscard]] std::string ToString() const;
  friend bool operator==(const SourceSpec&, const SourceSpec&) = default;
};

/// Empty sources = fully transparent provisioning (middleware decides).
/// Multiple sources = the query is assigned to multiple facades.
struct FromClause {
  std::vector<SourceSpec> sources;

  [[nodiscard]] bool IsAuto() const noexcept { return sources.empty(); }
  [[nodiscard]] std::string ToString() const;
  friend bool operator==(const FromClause&, const FromClause&) = default;
};

// --- DURATION clause -------------------------------------------------------

/// "DURATION specifies the query lifetime as time (e.g., 1 hour) or as the
/// number of samples that must be collected in each round (e.g., 50
/// samples)." Exactly one of the two is set.
struct DurationClause {
  std::optional<SimDuration> time;
  std::optional<int> samples;

  [[nodiscard]] std::string ToString() const;
  friend bool operator==(const DurationClause&, const DurationClause&) =
      default;
};

/// How the application interacts with the query's results.
enum class InteractionMode : std::uint8_t {
  kOnDemand,   // neither EVERY nor EVENT: one round of results
  kPeriodic,   // EVERY <time>
  kEventBased, // EVENT <predicate>
};
[[nodiscard]] const char* InteractionModeName(InteractionMode m) noexcept;

}  // namespace contory::query
