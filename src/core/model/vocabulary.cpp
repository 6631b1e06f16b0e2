#include "core/model/vocabulary.hpp"

#include <algorithm>

namespace contory {

CxtVocabulary::CxtVocabulary() {
  // Envelope sizes: the paper gives wind=53 and location=light=136 bytes;
  // the rest are interpolated by value complexity.
  types_ = {
      {vocab::kLocation, ValueKind::kGeo, 136, "lat,lon"},
      {vocab::kSpeed, ValueKind::kNumber, 56, "knots"},
      {vocab::kTime, ValueKind::kNumber, 53, "s"},
      {vocab::kDuration, ValueKind::kNumber, 53, "s"},
      {vocab::kActivity, ValueKind::kString, 72, ""},
      {vocab::kMood, ValueKind::kString, 72, ""},
      {vocab::kTemperature, ValueKind::kNumber, 56, "degC"},
      {vocab::kLight, ValueKind::kNumber, 136, "lux"},
      {vocab::kNoise, ValueKind::kNumber, 56, "dB"},
      {vocab::kHumidity, ValueKind::kNumber, 56, "%"},
      {vocab::kWind, ValueKind::kNumber, 53, "m/s"},
      {vocab::kPressure, ValueKind::kNumber, 56, "hPa"},
      {vocab::kNearbyDevices, ValueKind::kNumber, 64, "count"},
      {vocab::kBatteryLevel, ValueKind::kNumber, 56, "%"},
      {vocab::kMemoryFree, ValueKind::kNumber, 56, "KB"},
  };
}

const CxtVocabulary& CxtVocabulary::Default() {
  static const CxtVocabulary vocabulary;
  return vocabulary;
}

const CxtTypeInfo* CxtVocabulary::Find(const std::string& type) const {
  const auto it = std::find_if(
      types_.begin(), types_.end(),
      [&](const CxtTypeInfo& info) { return info.name == type; });
  return it == types_.end() ? nullptr : &*it;
}

bool CxtVocabulary::Knows(const std::string& type) const {
  return Find(type) != nullptr;
}

void CxtVocabulary::RegisterType(CxtTypeInfo info) {
  const auto it = std::find_if(
      types_.begin(), types_.end(),
      [&](const CxtTypeInfo& t) { return t.name == info.name; });
  if (it != types_.end()) {
    *it = std::move(info);
  } else {
    types_.push_back(std::move(info));
  }
}

}  // namespace contory
