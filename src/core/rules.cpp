#include "core/rules.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace contory::core {

Result<RuleOp> ParseRuleOp(const std::string& word) {
  if (word == "equal") return RuleOp::kEqual;
  if (word == "notEqual") return RuleOp::kNotEqual;
  if (word == "moreThan") return RuleOp::kMoreThan;
  if (word == "lessThan") return RuleOp::kLessThan;
  return InvalidArgument("unknown rule operator '" + word + "'");
}

Result<RuleAction> ParseRuleAction(const std::string& word) {
  if (word == "reducePower") return RuleAction::kReducePower;
  if (word == "reduceMemory") return RuleAction::kReduceMemory;
  if (word == "reduceLoad") return RuleAction::kReduceLoad;
  return InvalidArgument("unknown rule action '" + word + "'");
}

RuleExpr RuleExpr::Leaf(RuleCondition c) {
  RuleExpr e;
  e.condition = std::move(c);
  return e;
}

RuleExpr RuleExpr::And(std::vector<RuleExpr> children) {
  if (children.size() < 2) {
    throw std::invalid_argument("RuleExpr::And needs >=2 children");
  }
  RuleExpr e;
  e.kind = Kind::kAnd;
  e.children = std::move(children);
  return e;
}

RuleExpr RuleExpr::Or(std::vector<RuleExpr> children) {
  if (children.size() < 2) {
    throw std::invalid_argument("RuleExpr::Or needs >=2 children");
  }
  RuleExpr e;
  e.kind = Kind::kOr;
  e.children = std::move(children);
  return e;
}

namespace {

bool EvalCondition(const RuleCondition& c, const VariableLookup& lookup) {
  const auto value = lookup(c.variable);
  if (!value.ok()) return false;
  switch (c.op) {
    case RuleOp::kEqual:
      return *value == c.value;
    case RuleOp::kNotEqual:
      return !(*value == c.value);
    case RuleOp::kMoreThan: {
      const auto cmp = value->Compare(c.value);
      return cmp.ok() && *cmp > 0;
    }
    case RuleOp::kLessThan: {
      const auto cmp = value->Compare(c.value);
      return cmp.ok() && *cmp < 0;
    }
  }
  return false;
}

}  // namespace

Result<ContextRule> ParseContextRule(std::string_view text) {
  std::istringstream in{std::string{text}};
  std::vector<std::string> words;
  for (std::string word; in >> word;) words.push_back(word);

  std::size_t pos = 0;
  const auto at_end = [&] { return pos >= words.size(); };
  const auto peek = [&]() -> const std::string& { return words[pos]; };

  if (at_end() || peek() != "IF") {
    return InvalidArgument("rule must start with IF");
  }
  ++pos;

  // condition := variable op value; chains joined by AND (tighter) / OR.
  const auto parse_condition = [&]() -> Result<RuleExpr> {
    if (words.size() - pos < 3) {
      return InvalidArgument(
          "incomplete condition (need variable operator value)");
    }
    RuleCondition c;
    c.variable = words[pos++];
    const auto op = ParseRuleOp(words[pos++]);
    if (!op.ok()) return op.status();
    c.op = *op;
    const std::string& value = words[pos++];
    char* end = nullptr;
    const double number = std::strtod(value.c_str(), &end);
    if (end != nullptr && *end == '\0' && end != value.c_str()) {
      c.value = number;
    } else {
      c.value = value;  // bare word: "low", "high", ...
    }
    return RuleExpr::Leaf(std::move(c));
  };

  const auto parse_and_chain = [&]() -> Result<RuleExpr> {
    auto lhs = parse_condition();
    if (!lhs.ok()) return lhs;
    std::vector<RuleExpr> terms{*std::move(lhs)};
    while (!at_end() && peek() == "AND") {
      ++pos;
      auto rhs = parse_condition();
      if (!rhs.ok()) return rhs;
      terms.push_back(*std::move(rhs));
    }
    if (terms.size() == 1) return std::move(terms.front());
    return RuleExpr::And(std::move(terms));
  };

  auto expr = parse_and_chain();
  if (!expr.ok()) return expr.status();
  std::vector<RuleExpr> or_terms{*std::move(expr)};
  while (!at_end() && peek() == "OR") {
    ++pos;
    auto rhs = parse_and_chain();
    if (!rhs.ok()) return rhs.status();
    or_terms.push_back(*std::move(rhs));
  }

  if (at_end() || peek() != "THEN") {
    return InvalidArgument("expected THEN <action>");
  }
  ++pos;
  if (at_end()) return InvalidArgument("missing action after THEN");
  const auto action = ParseRuleAction(words[pos++]);
  if (!action.ok()) return action.status();
  if (!at_end()) {
    return InvalidArgument("unexpected trailing input after action");
  }

  ContextRule rule;
  rule.name = std::string{text};
  rule.condition = or_terms.size() == 1 ? std::move(or_terms.front())
                                        : RuleExpr::Or(std::move(or_terms));
  rule.action = *action;
  return rule;
}

bool RulesEngine::EvalExpr(const RuleExpr& expr, const VariableLookup& lookup) {
  switch (expr.kind) {
    case RuleExpr::Kind::kCondition:
      return EvalCondition(expr.condition, lookup);
    case RuleExpr::Kind::kAnd:
      for (const auto& child : expr.children) {
        if (!EvalExpr(child, lookup)) return false;
      }
      return true;
    case RuleExpr::Kind::kOr:
      for (const auto& child : expr.children) {
        if (EvalExpr(child, lookup)) return true;
      }
      return false;
  }
  return false;
}

void RulesEngine::AddRule(ContextRule rule) {
  rules_.push_back(std::move(rule));
}

std::set<RuleAction> RulesEngine::Evaluate(const VariableLookup& lookup) const {
  std::set<RuleAction> active;
  for (const auto& rule : rules_) {
    if (EvalExpr(rule.condition, lookup)) active.insert(rule.action);
  }
  return active;
}

}  // namespace contory::core
