#include "core/model/cxt_item.hpp"

#include <cstdio>

#include "core/model/vocabulary.hpp"

namespace contory {

const char* SourceKindName(SourceKind k) noexcept {
  switch (k) {
    case SourceKind::kUnknown: return "unknown";
    case SourceKind::kIntSensor: return "intSensor";
    case SourceKind::kExtInfra: return "extInfra";
    case SourceKind::kAdHocNetwork: return "adHocNetwork";
    case SourceKind::kApplication: return "application";
  }
  return "?";
}

std::string SourceId::ToString() const {
  std::string out = SourceKindName(kind);
  if (!address.empty()) {
    out += ' ';
    out += address;
  }
  return out;
}

std::string CxtItem::ToString() const {
  std::string out = type + "=" + value.ToString();
  out += " @" + FormatTime(timestamp);
  const std::string meta = metadata.ToString();
  if (!meta.empty()) out += " [" + meta + "]";
  if (source.kind != SourceKind::kUnknown) {
    out += " (" + source.ToString() + ")";
  }
  return out;
}

void CxtItem::Encode(ByteWriter& w) const {
  const std::size_t start = w.size();
  w.WriteString(id);
  w.WriteString(type);
  value.Encode(w);
  w.WriteI64(timestamp.time_since_epoch().count());
  w.WriteBool(lifetime.has_value());
  if (lifetime.has_value()) w.WriteI64(lifetime->count());
  w.WriteU8(static_cast<std::uint8_t>(source.kind));
  w.WriteString(source.address);
  metadata.Encode(w);
  // Pad to the prototype's per-type envelope so wire sizes are faithful.
  // A length prefix before the padding lets Deserialize skip it.
  const std::size_t body = w.size() - start;
  const CxtTypeInfo* info = CxtVocabulary::Default().Find(type);
  const std::size_t envelope = info != nullptr ? info->envelope_bytes : 0;
  const std::size_t padded =
      envelope > body + 4 ? envelope - body - 4 : 0;
  w.WriteU32(static_cast<std::uint32_t>(padded));
  w.WritePadding(padded);
}

std::vector<std::byte> CxtItem::Serialize() const {
  ByteWriter w;
  Encode(w);
  return std::move(w).Take();
}

Result<CxtItem> CxtItem::Deserialize(ByteReader& r) {
  CxtItem item;
  auto id = r.ReadString();
  if (!id.ok()) return id.status();
  item.id = *std::move(id);
  auto type = r.ReadString();
  if (!type.ok()) return type.status();
  item.type = *std::move(type);
  auto value = CxtValue::Decode(r);
  if (!value.ok()) return value.status();
  item.value = *std::move(value);
  const auto ts = r.ReadI64();
  if (!ts.ok()) return ts.status();
  item.timestamp = SimTime{SimDuration{*ts}};
  const auto has_lifetime = r.ReadBool();
  if (!has_lifetime.ok()) return has_lifetime.status();
  if (*has_lifetime) {
    const auto lt = r.ReadI64();
    if (!lt.ok()) return lt.status();
    item.lifetime = SimDuration{*lt};
  }
  const auto kind = r.ReadU8();
  if (!kind.ok()) return kind.status();
  if (*kind > static_cast<std::uint8_t>(SourceKind::kApplication)) {
    return InvalidArgument("bad source kind");
  }
  item.source.kind = static_cast<SourceKind>(*kind);
  auto address = r.ReadString();
  if (!address.ok()) return address.status();
  item.source.address = *std::move(address);
  auto metadata = Metadata::Decode(r);
  if (!metadata.ok()) return metadata.status();
  item.metadata = *std::move(metadata);
  const auto padding = r.ReadU32();
  if (!padding.ok()) return padding.status();
  if (auto s = r.Skip(*padding); !s.ok()) return s;
  return item;
}

Result<CxtItem> CxtItem::Deserialize(const std::vector<std::byte>& wire) {
  ByteReader r{wire};
  return Deserialize(r);
}

}  // namespace contory
