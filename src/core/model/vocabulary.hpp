// Contory vocabularies.
//
// "Different vocabularies are made available to the application developer:
// (i) the CxtVocabulary contains context types, context values, and
// metadata types for specifying context items and device resources;
// (ii) the QueryVocabulary contains parameters for specifying context
// queries; and (iii) the CxtRulesVocabulary contains operators and actions
// for specifying control policies" (Sec. 4.4).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace contory {

/// What kind of CxtValue a context type carries.
enum class ValueKind : std::uint8_t { kNumber, kString, kBool, kGeo };

namespace vocab {

// --- CxtVocabulary: well-known context types (Sec. 4.1) -----------------
// Spatial
inline constexpr const char* kLocation = "location";
inline constexpr const char* kSpeed = "speed";
// Temporal
inline constexpr const char* kTime = "time";
inline constexpr const char* kDuration = "duration";
// User status
inline constexpr const char* kActivity = "activity";
inline constexpr const char* kMood = "mood";
// Environmental
inline constexpr const char* kTemperature = "temperature";
inline constexpr const char* kLight = "light";
inline constexpr const char* kNoise = "noise";
inline constexpr const char* kHumidity = "humidity";
inline constexpr const char* kWind = "wind";
inline constexpr const char* kPressure = "pressure";
// Resource availability
inline constexpr const char* kNearbyDevices = "nearbyDevices";
inline constexpr const char* kBatteryLevel = "batteryLevel";
inline constexpr const char* kMemoryFree = "memoryFree";

// --- QueryVocabulary: source kinds (Sec. 4.2) ----------------------------
inline constexpr const char* kIntSensor = "intSensor";
inline constexpr const char* kExtInfra = "extInfra";
inline constexpr const char* kAdHocNetwork = "adHocNetwork";

// --- CxtRulesVocabulary: operators and actions (Sec. 4.3) ---------------
inline constexpr const char* kOpEqual = "equal";
inline constexpr const char* kOpNotEqual = "notEqual";
inline constexpr const char* kOpMoreThan = "moreThan";
inline constexpr const char* kOpLessThan = "lessThan";
inline constexpr const char* kActionReducePower = "reducePower";
inline constexpr const char* kActionReduceMemory = "reduceMemory";
inline constexpr const char* kActionReduceLoad = "reduceLoad";

}  // namespace vocab

/// Registry entry for a known context type.
struct CxtTypeInfo {
  std::string name;
  ValueKind kind = ValueKind::kNumber;
  /// On-the-wire envelope the J2ME prototype produced for items of this
  /// type; our serializer pads to it so Table 1/2 payload sizes are
  /// faithful ("the size of a context item varies from 53 bytes (e.g., a
  /// wind item) to 136 bytes (e.g., a location item)").
  std::size_t envelope_bytes = 0;
  std::string unit;  // informational ("degC", "knots", "lux")
};

/// The CxtVocabulary: lookup of known context types. Unknown types are
/// allowed everywhere (extensibility is a design principle); they simply
/// carry no envelope padding and default to numeric values.
class CxtVocabulary {
 public:
  /// The process-wide vocabulary with the paper's types preloaded.
  [[nodiscard]] static const CxtVocabulary& Default();

  /// The type's entry, or nullptr when unknown. Valid until the next
  /// RegisterType on this vocabulary (Default() never changes).
  [[nodiscard]] const CxtTypeInfo* Find(const std::string& type) const;
  [[nodiscard]] bool Knows(const std::string& type) const;

  /// Registers (or replaces) a type — "new sources of context information
  /// ... will need to be easily accommodated".
  void RegisterType(CxtTypeInfo info);

 private:
  CxtVocabulary();
  std::vector<CxtTypeInfo> types_;
};

}  // namespace contory
