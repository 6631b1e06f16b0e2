// Control policies: contextRules (Sec. 4.3).
//
// "Control policies are formulated as contextRules consisting of a
// condition and an action statements. Conditions are articulated as
// Boolean expressions, and the operators currently supported are equal,
// notEqual, moreThan, and lessThan. An example of condition is
// <batteryLevel, equal, low>. Through and/or operators, elementary
// conditions can be combined to form more complex ones. Whenever a
// condition is positively verified at runtime, the associated action
// becomes active and it is enforced by the ContextFactory. Actions
// currently supported are reducePower, reduceMemory, and reduceLoad."
#pragma once

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/model/cxt_value.hpp"

namespace contory::core {

enum class RuleOp : std::uint8_t { kEqual, kNotEqual, kMoreThan, kLessThan };
enum class RuleAction : std::uint8_t {
  kReducePower,
  kReduceMemory,
  kReduceLoad,
};

/// Parses "equal"/"notEqual"/"moreThan"/"lessThan" (CxtRulesVocabulary).
[[nodiscard]] Result<RuleOp> ParseRuleOp(const std::string& word);
[[nodiscard]] Result<RuleAction> ParseRuleAction(const std::string& word);

/// <variable, operator, value>, e.g. <batteryLevel, equal, low>.
struct RuleCondition {
  std::string variable;
  RuleOp op = RuleOp::kEqual;
  CxtValue value;
};

/// Boolean combination of elementary conditions.
struct RuleExpr {
  enum class Kind : std::uint8_t { kCondition, kAnd, kOr };
  Kind kind = Kind::kCondition;
  RuleCondition condition;        // when kCondition
  std::vector<RuleExpr> children; // kAnd/kOr

  [[nodiscard]] static RuleExpr Leaf(RuleCondition c);
  [[nodiscard]] static RuleExpr And(std::vector<RuleExpr> children);
  [[nodiscard]] static RuleExpr Or(std::vector<RuleExpr> children);
};

struct ContextRule {
  std::string name;  // diagnostics
  RuleExpr condition;
  RuleAction action = RuleAction::kReducePower;
};

/// Resolves a monitored-variable name ("batteryLevel", "memoryUsage",
/// "activeQueries", ...) to its current value. Numeric variables may also
/// be exposed symbolically ("low"/"medium"/"high") by the monitor.
using VariableLookup =
    std::function<Result<CxtValue>(const std::string& variable)>;

/// Parses a rule from the CxtRulesVocabulary's textual form:
///
///   "IF batteryLevel equal low THEN reducePower"
///   "IF batteryPercent lessThan 20 AND activeQueries moreThan 2
///    THEN reducePower"
///   "IF memoryLevel equal high OR memoryItems moreThan 100
///    THEN reduceMemory"
///
/// Conditions are <variable, operator, value> triples joined by AND/OR
/// (AND binds tighter). Values are numbers or bare words.
[[nodiscard]] Result<ContextRule> ParseContextRule(std::string_view text);

class RulesEngine {
 public:
  void AddRule(ContextRule rule);
  void Clear() { rules_.clear(); }
  [[nodiscard]] std::size_t rule_count() const noexcept {
    return rules_.size();
  }

  /// Evaluates every rule; returns the set of actions whose conditions
  /// hold. Lookup failures make the affected condition false (a variable
  /// the device cannot measure cannot trigger policy).
  [[nodiscard]] std::set<RuleAction> Evaluate(
      const VariableLookup& lookup) const;

  /// Evaluates one expression (exposed for tests).
  [[nodiscard]] static bool EvalExpr(const RuleExpr& expr,
                                     const VariableLookup& lookup);

 private:
  std::vector<ContextRule> rules_;
};

}  // namespace contory::core
