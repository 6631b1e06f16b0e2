#include "core/query/ast.hpp"

#include <cstdio>
#include <stdexcept>

namespace contory::query {

const char* CompareOpName(CompareOp op) noexcept {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kGt: return ">";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

const char* AggregateFnName(AggregateFn fn) noexcept {
  switch (fn) {
    case AggregateFn::kNone: return "";
    case AggregateFn::kAvg: return "AVG";
    case AggregateFn::kMin: return "MIN";
    case AggregateFn::kMax: return "MAX";
    case AggregateFn::kCount: return "COUNT";
    case AggregateFn::kSum: return "SUM";
  }
  return "?";
}

const char* SourceSelName(SourceSel s) noexcept {
  switch (s) {
    case SourceSel::kAuto: return "auto";
    case SourceSel::kIntSensor: return "intSensor";
    case SourceSel::kExtInfra: return "extInfra";
    case SourceSel::kAdHocNetwork: return "adHocNetwork";
  }
  return "?";
}

std::string Comparison::ToString() const {
  std::string out;
  if (aggregate != AggregateFn::kNone) {
    out += AggregateFnName(aggregate);
    out += '(';
    out += field;
    out += ')';
  } else {
    out += field;
  }
  out += CompareOpName(op);
  if (literal.is_string()) {
    out += '"' + literal.ToString() + '"';
  } else {
    out += literal.ToString();
  }
  return out;
}

Predicate Predicate::And(std::vector<Predicate> children) {
  if (children.size() < 2) {
    throw std::invalid_argument("Predicate::And needs >=2 children");
  }
  Predicate p;
  p.kind = Kind::kAnd;
  p.children = std::move(children);
  return p;
}

Predicate Predicate::Or(std::vector<Predicate> children) {
  if (children.size() < 2) {
    throw std::invalid_argument("Predicate::Or needs >=2 children");
  }
  Predicate p;
  p.kind = Kind::kOr;
  p.children = std::move(children);
  return p;
}

Predicate Predicate::Not(Predicate child) {
  Predicate p;
  p.kind = Kind::kNot;
  p.children.push_back(std::move(child));
  return p;
}

bool Predicate::ContainsAggregate() const {
  if (kind == Kind::kComparison) {
    return comparison.aggregate != AggregateFn::kNone;
  }
  for (const auto& child : children) {
    if (child.ContainsAggregate()) return true;
  }
  return false;
}

std::string Predicate::ToString() const {
  switch (kind) {
    case Kind::kComparison:
      return comparison.ToString();
    case Kind::kNot:
      return "NOT (" + children.front().ToString() + ")";
    case Kind::kAnd:
    case Kind::kOr: {
      const char* joiner = kind == Kind::kAnd ? " AND " : " OR ";
      std::string out = "(";
      for (std::size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += joiner;
        out += children[i].ToString();
      }
      out += ')';
      return out;
    }
  }
  return "?";
}

std::string SourceSpec::ToString() const {
  std::string out = SourceSelName(kind);
  if (kind == SourceSel::kAdHocNetwork && scope.has_value()) {
    out += '(';
    out += scope->all_nodes() ? "all" : std::to_string(scope->num_nodes);
    out += ',';
    out += std::to_string(scope->num_hops);
    out += ')';
  } else if (!address.empty()) {
    out += "(\"" + address + "\")";
  }
  char buf[96];
  if (region.has_value()) {
    std::snprintf(buf, sizeof buf, " region(%.4f,%.4f,%.0f)",
                  region->center.lat, region->center.lon, region->radius_m);
    out += buf;
  }
  if (entity.has_value()) out += " entity(\"" + entity->entity_id + "\")";
  return out;
}

std::string FromClause::ToString() const {
  if (IsAuto()) return "auto";
  std::string out;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (i > 0) out += ", ";
    out += sources[i].ToString();
  }
  return out;
}

std::string DurationClause::ToString() const {
  if (samples.has_value()) return std::to_string(*samples) + " samples";
  if (time.has_value()) return FormatDuration(*time);
  return "(unset)";
}

}  // namespace contory::query
