#include "core/query/query.hpp"

#include <stdexcept>

#include "core/query/parser.hpp"

namespace contory::query {
namespace {

/// The J2ME prototype's serialized query object size (Sec. 6.1).
constexpr std::size_t kQueryEnvelopeBytes = 205;

void EncodePredicate(ByteWriter& w, const Predicate& p) {
  w.WriteU8(static_cast<std::uint8_t>(p.kind));
  if (p.kind == Predicate::Kind::kComparison) {
    w.WriteU8(static_cast<std::uint8_t>(p.comparison.aggregate));
    w.WriteString(p.comparison.field);
    w.WriteU8(static_cast<std::uint8_t>(p.comparison.op));
    p.comparison.literal.Encode(w);
    return;
  }
  w.WriteU32(static_cast<std::uint32_t>(p.children.size()));
  for (const auto& child : p.children) EncodePredicate(w, child);
}

Result<Predicate> DecodePredicate(ByteReader& r, int depth = 0) {
  if (depth > 32) return InvalidArgument("predicate nesting too deep");
  const auto kind = r.ReadU8();
  if (!kind.ok()) return kind.status();
  if (*kind > static_cast<std::uint8_t>(Predicate::Kind::kNot)) {
    return InvalidArgument("bad predicate kind");
  }
  Predicate p;
  p.kind = static_cast<Predicate::Kind>(*kind);
  if (p.kind == Predicate::Kind::kComparison) {
    const auto agg = r.ReadU8();
    if (!agg.ok()) return agg.status();
    if (*agg > static_cast<std::uint8_t>(AggregateFn::kSum)) {
      return InvalidArgument("bad aggregate function");
    }
    p.comparison.aggregate = static_cast<AggregateFn>(*agg);
    auto field = r.ReadString();
    if (!field.ok()) return field.status();
    p.comparison.field = *std::move(field);
    const auto op = r.ReadU8();
    if (!op.ok()) return op.status();
    if (*op > static_cast<std::uint8_t>(CompareOp::kGe)) {
      return InvalidArgument("bad compare op");
    }
    p.comparison.op = static_cast<CompareOp>(*op);
    auto literal = CxtValue::Decode(r);
    if (!literal.ok()) return literal.status();
    p.comparison.literal = *std::move(literal);
    return p;
  }
  const auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  if (*count > 64) return InvalidArgument("too many predicate children");
  p.children.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto child = DecodePredicate(r, depth + 1);
    if (!child.ok()) return child.status();
    p.children.push_back(*std::move(child));
  }
  return p;
}

void EncodeSource(ByteWriter& w, const SourceSpec& s) {
  w.WriteU8(static_cast<std::uint8_t>(s.kind));
  w.WriteString(s.address);
  w.WriteBool(s.scope.has_value());
  if (s.scope.has_value()) {
    w.WriteI64(s.scope->num_nodes);
    w.WriteI64(s.scope->num_hops);
  }
  w.WriteBool(s.region.has_value());
  if (s.region.has_value()) {
    w.WriteF64(s.region->center.lat);
    w.WriteF64(s.region->center.lon);
    w.WriteF64(s.region->radius_m);
  }
  w.WriteBool(s.entity.has_value());
  if (s.entity.has_value()) w.WriteString(s.entity->entity_id);
}

Result<SourceSpec> DecodeSource(ByteReader& r) {
  SourceSpec s;
  const auto kind = r.ReadU8();
  if (!kind.ok()) return kind.status();
  if (*kind > static_cast<std::uint8_t>(SourceSel::kAdHocNetwork)) {
    return InvalidArgument("bad source kind");
  }
  s.kind = static_cast<SourceSel>(*kind);
  auto address = r.ReadString();
  if (!address.ok()) return address.status();
  s.address = *std::move(address);
  const auto has_scope = r.ReadBool();
  if (!has_scope.ok()) return has_scope.status();
  if (*has_scope) {
    const auto nodes = r.ReadI64();
    if (!nodes.ok()) return nodes.status();
    const auto hops = r.ReadI64();
    if (!hops.ok()) return hops.status();
    s.scope = AdHocScope{static_cast<int>(*nodes), static_cast<int>(*hops)};
  }
  const auto has_region = r.ReadBool();
  if (!has_region.ok()) return has_region.status();
  if (*has_region) {
    const auto lat = r.ReadF64();
    if (!lat.ok()) return lat.status();
    const auto lon = r.ReadF64();
    if (!lon.ok()) return lon.status();
    const auto radius = r.ReadF64();
    if (!radius.ok()) return radius.status();
    s.region = RegionDest{GeoPoint{*lat, *lon}, *radius};
  }
  const auto has_entity = r.ReadBool();
  if (!has_entity.ok()) return has_entity.status();
  if (*has_entity) {
    auto entity = r.ReadString();
    if (!entity.ok()) return entity.status();
    s.entity = EntityDest{*std::move(entity)};
  }
  return s;
}

void EncodeOptionalDuration(ByteWriter& w,
                            const std::optional<SimDuration>& d) {
  w.WriteBool(d.has_value());
  if (d.has_value()) w.WriteI64(d->count());
}

Result<std::optional<SimDuration>> DecodeOptionalDuration(ByteReader& r) {
  const auto present = r.ReadBool();
  if (!present.ok()) return present.status();
  if (!*present) return std::optional<SimDuration>{};
  const auto v = r.ReadI64();
  if (!v.ok()) return v.status();
  return std::optional<SimDuration>{SimDuration{*v}};
}

}  // namespace

const char* QueryPriorityName(QueryPriority p) noexcept {
  switch (p) {
    case QueryPriority::kInteractive: return "interactive";
    case QueryPriority::kStandard: return "standard";
    case QueryPriority::kBackground: return "background";
  }
  return "?";
}

Status CxtQuery::Validate() const {
  if (select_type.empty()) {
    return InvalidArgument("SELECT clause is mandatory");
  }
  if (!duration.time.has_value() && !duration.samples.has_value()) {
    return InvalidArgument("DURATION clause is mandatory");
  }
  if (duration.time.has_value() && duration.samples.has_value()) {
    return InvalidArgument("DURATION is either a time or a sample count");
  }
  if (duration.time.has_value() && *duration.time <= SimDuration::zero()) {
    return InvalidArgument("DURATION time must be positive");
  }
  if (duration.samples.has_value() && *duration.samples <= 0) {
    return InvalidArgument("DURATION sample count must be positive");
  }
  if (every.has_value() && event.has_value()) {
    return InvalidArgument("EVERY and EVENT are mutually exclusive");
  }
  if (every.has_value() && *every <= SimDuration::zero()) {
    return InvalidArgument("EVERY period must be positive");
  }
  if (freshness.has_value() && *freshness <= SimDuration::zero()) {
    return InvalidArgument("FRESHNESS must be positive");
  }
  if (where.has_value() && where->ContainsAggregate()) {
    return InvalidArgument(
        "aggregate functions are only allowed in EVENT clauses");
  }
  for (const auto& source : from.sources) {
    if (source.kind == SourceSel::kAdHocNetwork && source.scope.has_value()) {
      const auto& sc = *source.scope;
      if (sc.num_hops < 1) {
        return InvalidArgument("adHocNetwork numHops must be >= 1");
      }
      if (!sc.all_nodes() && sc.num_nodes < 1) {
        return InvalidArgument("adHocNetwork numNodes must be >= 1 or all");
      }
    }
    if (source.kind != SourceSel::kAdHocNetwork && source.scope.has_value()) {
      return InvalidArgument("numNodes/numHops apply only to adHocNetwork");
    }
  }
  return Status::Ok();
}

std::string CxtQuery::ToString() const {
  std::string out = "SELECT " + select_type;
  if (!from.IsAuto()) out += "\nFROM " + from.ToString();
  if (where.has_value()) out += "\nWHERE " + where->ToString();
  if (freshness.has_value()) {
    out += "\nFRESHNESS " + FormatDuration(*freshness);
  }
  out += "\nDURATION " + duration.ToString();
  if (every.has_value()) out += "\nEVERY " + FormatDuration(*every);
  if (event.has_value()) out += "\nEVENT " + event->ToString();
  if (priority != QueryPriority::kStandard) {
    out += std::string("\nPRIORITY ") + QueryPriorityName(priority);
  }
  return out;
}

Result<CxtQuery> CxtQuery::Parse(std::string_view text) {
  return ParseQuery(text);
}

std::vector<std::byte> CxtQuery::Serialize() const {
  ByteWriter w;
  w.WriteString(id);
  w.WriteString(select_type);
  w.WriteU32(static_cast<std::uint32_t>(from.sources.size()));
  for (const auto& s : from.sources) EncodeSource(w, s);
  w.WriteBool(where.has_value());
  if (where.has_value()) EncodePredicate(w, *where);
  EncodeOptionalDuration(w, freshness);
  EncodeOptionalDuration(w, duration.time);
  w.WriteBool(duration.samples.has_value());
  if (duration.samples.has_value()) w.WriteI64(*duration.samples);
  EncodeOptionalDuration(w, every);
  w.WriteBool(event.has_value());
  if (event.has_value()) EncodePredicate(w, *event);
  w.WriteU8(static_cast<std::uint8_t>(priority));
  // Pad small queries up to the prototype's 205-byte object.
  if (w.size() + 4 < kQueryEnvelopeBytes) {
    const auto pad =
        static_cast<std::uint32_t>(kQueryEnvelopeBytes - w.size() - 4);
    w.WriteU32(pad);
    w.WritePadding(pad);
  } else {
    w.WriteU32(0);
  }
  return std::move(w).Take();
}

Result<CxtQuery> CxtQuery::Deserialize(const std::vector<std::byte>& wire) {
  ByteReader r{wire};
  CxtQuery q;
  auto id = r.ReadString();
  if (!id.ok()) return id.status();
  q.id = *std::move(id);
  auto select = r.ReadString();
  if (!select.ok()) return select.status();
  q.select_type = *std::move(select);
  const auto source_count = r.ReadU32();
  if (!source_count.ok()) return source_count.status();
  if (*source_count > 16) return InvalidArgument("too many sources");
  for (std::uint32_t i = 0; i < *source_count; ++i) {
    auto s = DecodeSource(r);
    if (!s.ok()) return s.status();
    q.from.sources.push_back(*std::move(s));
  }
  const auto has_where = r.ReadBool();
  if (!has_where.ok()) return has_where.status();
  if (*has_where) {
    auto p = DecodePredicate(r);
    if (!p.ok()) return p.status();
    q.where = *std::move(p);
  }
  auto freshness = DecodeOptionalDuration(r);
  if (!freshness.ok()) return freshness.status();
  q.freshness = *freshness;
  auto dtime = DecodeOptionalDuration(r);
  if (!dtime.ok()) return dtime.status();
  q.duration.time = *dtime;
  const auto has_samples = r.ReadBool();
  if (!has_samples.ok()) return has_samples.status();
  if (*has_samples) {
    const auto samples = r.ReadI64();
    if (!samples.ok()) return samples.status();
    q.duration.samples = static_cast<int>(*samples);
  }
  auto every = DecodeOptionalDuration(r);
  if (!every.ok()) return every.status();
  q.every = *every;
  const auto has_event = r.ReadBool();
  if (!has_event.ok()) return has_event.status();
  if (*has_event) {
    auto p = DecodePredicate(r);
    if (!p.ok()) return p.status();
    q.event = *std::move(p);
  }
  const auto prio = r.ReadU8();
  if (!prio.ok()) return prio.status();
  if (*prio > static_cast<std::uint8_t>(QueryPriority::kBackground)) {
    return InvalidArgument("bad priority class");
  }
  q.priority = static_cast<QueryPriority>(*prio);
  const auto pad = r.ReadU32();
  if (!pad.ok()) return pad.status();
  if (auto s = r.Skip(*pad); !s.ok()) return s;
  return q;
}

QueryBuilder::QueryBuilder(std::string select_type) {
  q_.select_type = std::move(select_type);
}

SourceSpec& QueryBuilder::LastSource() {
  if (q_.from.sources.empty()) q_.from.sources.emplace_back();
  return q_.from.sources.back();
}

QueryBuilder& QueryBuilder::FromIntSensor(std::string address) {
  SourceSpec s;
  s.kind = SourceSel::kIntSensor;
  s.address = std::move(address);
  q_.from.sources.push_back(std::move(s));
  return *this;
}

QueryBuilder& QueryBuilder::FromExtInfra(std::string address) {
  SourceSpec s;
  s.kind = SourceSel::kExtInfra;
  s.address = std::move(address);
  q_.from.sources.push_back(std::move(s));
  return *this;
}

QueryBuilder& QueryBuilder::FromAdHoc(int num_nodes, int num_hops) {
  SourceSpec s;
  s.kind = SourceSel::kAdHocNetwork;
  s.scope = AdHocScope{num_nodes, num_hops};
  q_.from.sources.push_back(std::move(s));
  return *this;
}

QueryBuilder& QueryBuilder::TargetRegion(GeoPoint center, double radius_m) {
  LastSource().region = RegionDest{center, radius_m};
  return *this;
}

QueryBuilder& QueryBuilder::Where(Comparison c) {
  return WherePredicate(Predicate::Leaf(std::move(c)));
}

QueryBuilder& QueryBuilder::WhereMeta(std::string field, CompareOp op,
                                      CxtValue literal) {
  Comparison c;
  c.field = std::move(field);
  c.op = op;
  c.literal = std::move(literal);
  return Where(std::move(c));
}

QueryBuilder& QueryBuilder::WherePredicate(Predicate p) {
  if (!q_.where.has_value()) {
    q_.where = std::move(p);
  } else {
    std::vector<Predicate> children;
    children.push_back(*std::move(q_.where));
    children.push_back(std::move(p));
    q_.where = Predicate::And(std::move(children));
  }
  return *this;
}

QueryBuilder& QueryBuilder::Freshness(SimDuration d) {
  q_.freshness = d;
  return *this;
}

QueryBuilder& QueryBuilder::For(SimDuration lifetime) {
  q_.duration.time = lifetime;
  q_.duration.samples.reset();
  return *this;
}

QueryBuilder& QueryBuilder::Every(SimDuration period) {
  q_.every = period;
  return *this;
}

QueryBuilder& QueryBuilder::Event(Predicate p) {
  q_.event = std::move(p);
  return *this;
}

QueryBuilder& QueryBuilder::EventAggregate(AggregateFn fn, std::string type,
                                           CompareOp op, double threshold) {
  Comparison c;
  c.aggregate = fn;
  c.field = std::move(type);
  c.op = op;
  c.literal = threshold;
  return Event(Predicate::Leaf(std::move(c)));
}

QueryBuilder& QueryBuilder::Priority(QueryPriority p) {
  q_.priority = p;
  return *this;
}

CxtQuery QueryBuilder::Build() const {
  if (const Status s = q_.Validate(); !s.ok()) {
    throw std::invalid_argument("QueryBuilder: " + s.ToString());
  }
  return q_;
}

}  // namespace contory::query
