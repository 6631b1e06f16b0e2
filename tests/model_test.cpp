// Unit tests for the context model: values, metadata, items, vocabulary,
// and the MechanismSet of a query's provisioning mechanisms.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/model/cxt_item.hpp"
#include "core/model/cxt_value.hpp"
#include "core/model/metadata.hpp"
#include "core/model/vocabulary.hpp"
#include "core/query/ast.hpp"

namespace contory {
namespace {

using namespace std::chrono_literals;

TEST(CxtValueTest, KindsAndAccessors) {
  EXPECT_TRUE(CxtValue{14.5}.is_number());
  EXPECT_TRUE(CxtValue{"walking"}.is_string());
  EXPECT_TRUE(CxtValue{true}.is_bool());
  EXPECT_TRUE((CxtValue{GeoPoint{60.15, 24.9}}.is_geo()));

  EXPECT_DOUBLE_EQ(CxtValue{14.5}.AsNumber().value(), 14.5);
  EXPECT_EQ(CxtValue{"walking"}.AsString().value(), "walking");
  EXPECT_TRUE(CxtValue{true}.AsBool().value());
  EXPECT_DOUBLE_EQ((CxtValue{GeoPoint{1, 2}}.AsGeo().value().lat), 1.0);

  EXPECT_FALSE(CxtValue{14.5}.AsString().ok());
  EXPECT_FALSE(CxtValue{"x"}.AsNumber().ok());
}

TEST(CxtValueTest, IntConvertsToNumber) {
  const CxtValue v{42};
  EXPECT_TRUE(v.is_number());
  EXPECT_DOUBLE_EQ(v.AsNumber().value(), 42.0);
}

TEST(CxtValueTest, ToStringFormats) {
  EXPECT_EQ(CxtValue{14.5}.ToString(), "14.5");
  EXPECT_EQ(CxtValue{"sailing"}.ToString(), "sailing");
  EXPECT_EQ(CxtValue{false}.ToString(), "false");
  EXPECT_EQ((CxtValue{GeoPoint{60.1520, 24.9090}}.ToString()),
            "60.1520,24.9090");
}

TEST(CxtValueTest, CompareNumbersAndStrings) {
  EXPECT_LT(CxtValue{1.0}.Compare(CxtValue{2.0}).value(), 0);
  EXPECT_GT(CxtValue{3.0}.Compare(CxtValue{2.0}).value(), 0);
  EXPECT_EQ(CxtValue{2.0}.Compare(CxtValue{2.0}).value(), 0);
  EXPECT_LT(CxtValue{"a"}.Compare(CxtValue{"b"}).value(), 0);
  EXPECT_FALSE(CxtValue{1.0}.Compare(CxtValue{"a"}).ok());
  EXPECT_FALSE((CxtValue{true}.Compare(CxtValue{false}).ok()));
}

TEST(CxtValueTest, EqualityAcrossKinds) {
  EXPECT_EQ(CxtValue{1.0}, CxtValue{1.0});
  EXPECT_FALSE(CxtValue{1.0} == CxtValue{"1"});
  EXPECT_EQ((CxtValue{GeoPoint{1, 2}}), (CxtValue{GeoPoint{1, 2}}));
}

TEST(CxtValueTest, EncodeDecodeRoundTrip) {
  for (const CxtValue& v :
       {CxtValue{14.5}, CxtValue{"walking"}, CxtValue{true},
        CxtValue{GeoPoint{60.15, 24.9}}}) {
    ByteWriter w;
    v.Encode(w);
    ByteReader r{w.bytes()};
    const auto back = CxtValue::Decode(r);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
}

TEST(GeoPointTest, DistanceSanity) {
  // ~1 degree latitude ~ 111 km.
  const GeoPoint a{60.0, 24.0};
  const GeoPoint b{61.0, 24.0};
  EXPECT_NEAR(DistanceMeters(a, b), 111'000, 500);
  EXPECT_DOUBLE_EQ(DistanceMeters(a, a), 0.0);
}

TEST(MetadataTest, GetNumericByName) {
  Metadata m;
  m.accuracy = 0.2;
  m.trust = TrustLevel::kTrusted;
  EXPECT_DOUBLE_EQ(m.GetNumeric("accuracy").value(), 0.2);
  EXPECT_DOUBLE_EQ(m.GetNumeric("trust").value(), 2.0);
  EXPECT_EQ(m.GetNumeric("precision").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(m.GetNumeric("bogus").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MetadataTest, SetNumericByName) {
  Metadata m;
  EXPECT_TRUE(m.SetNumeric("completeness", 0.9).ok());
  EXPECT_DOUBLE_EQ(*m.completeness, 0.9);
  EXPECT_TRUE(m.SetNumeric("trust", 2).ok());
  EXPECT_EQ(m.trust, TrustLevel::kTrusted);
  EXPECT_FALSE(m.SetNumeric("bogus", 1).ok());
}

TEST(MetadataTest, SatisfiesAccuracyIsUpperBound) {
  Metadata required;
  required.accuracy = 0.5;
  Metadata good;
  good.accuracy = 0.2;  // more accurate than required
  Metadata bad;
  bad.accuracy = 1.0;
  Metadata unset;
  EXPECT_TRUE(good.Satisfies(required));
  EXPECT_FALSE(bad.Satisfies(required));
  EXPECT_FALSE(unset.Satisfies(required));  // cannot demonstrate quality
}

TEST(MetadataTest, SatisfiesTrustAndPrivacy) {
  Metadata required;
  required.trust = TrustLevel::kTrusted;
  Metadata trusted;
  trusted.trust = TrustLevel::kTrusted;
  Metadata unknown;
  EXPECT_TRUE(trusted.Satisfies(required));
  EXPECT_FALSE(unknown.Satisfies(required));

  Metadata public_only;  // default: requester accepts only public items
  Metadata private_item;
  private_item.privacy = PrivacyLevel::kPrivate;
  EXPECT_FALSE(private_item.Satisfies(public_only));
}

TEST(MetadataTest, SatisfiesEmptyRequirementAlwaysTrue) {
  Metadata anything;
  anything.accuracy = 99.0;
  anything.trust = TrustLevel::kUntrusted;
  Metadata no_reqs;
  no_reqs.trust = TrustLevel::kUntrusted;  // accepts untrusted
  EXPECT_TRUE(anything.Satisfies(no_reqs));
}

TEST(MetadataTest, ToStringListsSetFields) {
  Metadata m;
  m.accuracy = 0.2;
  m.trust = TrustLevel::kTrusted;
  EXPECT_EQ(m.ToString(), "accuracy=0.2,trust=trusted");
  EXPECT_EQ(Metadata{}.ToString(), "");
}

TEST(MetadataTest, EncodeDecodeRoundTrip) {
  Metadata m;
  m.correctness = 0.8;
  m.accuracy = 0.2;
  m.privacy = PrivacyLevel::kProtected;
  m.trust = TrustLevel::kTrusted;
  ByteWriter w;
  m.Encode(w);
  ByteReader r{w.bytes()};
  const auto back = Metadata::Decode(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, m);
}

TEST(CxtItemTest, FreshnessAndExpiry) {
  CxtItem item;
  item.type = vocab::kTemperature;
  item.value = 14.0;
  item.timestamp = kSimEpoch + 100s;
  item.lifetime = SimDuration{60s};

  EXPECT_TRUE(item.IsFresh(kSimEpoch + 120s, 30s));
  EXPECT_FALSE(item.IsFresh(kSimEpoch + 140s, 30s));
  EXPECT_FALSE(item.IsExpired(kSimEpoch + 159s));
  EXPECT_TRUE(item.IsExpired(kSimEpoch + 160s));
}

TEST(CxtItemTest, NoLifetimeNeverExpires) {
  CxtItem item;
  item.timestamp = kSimEpoch;
  EXPECT_FALSE(item.IsExpired(kSimEpoch + std::chrono::hours{10'000}));
}

TEST(CxtItemTest, SerializedSizesMatchPaper) {
  // "the size of a context item varies from 53 bytes (e.g., a wind item)
  // to 136 bytes (e.g., a location item)". lightItem is 136 bytes.
  CxtItem wind;
  wind.id = "i-1";
  wind.type = vocab::kWind;
  wind.value = 7.5;
  EXPECT_EQ(wind.Serialize().size(), 53u);

  CxtItem location;
  location.id = "i-2";
  location.type = vocab::kLocation;
  location.value = GeoPoint{60.15, 24.9};
  EXPECT_EQ(location.Serialize().size(), 136u);

  CxtItem light;
  light.id = "i-3";
  light.type = vocab::kLight;
  light.value = 5000.0;
  EXPECT_EQ(light.Serialize().size(), 136u);
}

TEST(CxtItemTest, SerializeDeserializeRoundTrip) {
  CxtItem item;
  item.id = "item-42";
  item.type = vocab::kTemperature;
  item.value = 14.0;
  item.timestamp = kSimEpoch + 10s;
  item.lifetime = SimDuration{30s};
  item.source = {SourceKind::kAdHocNetwork, "node:3"};
  item.metadata.accuracy = 0.2;
  item.metadata.trust = TrustLevel::kTrusted;

  const auto back = CxtItem::Deserialize(item.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->id, "item-42");
  EXPECT_EQ(back->type, vocab::kTemperature);
  EXPECT_EQ(back->value, item.value);
  EXPECT_EQ(back->timestamp, item.timestamp);
  EXPECT_EQ(back->lifetime, item.lifetime);
  EXPECT_EQ(back->source, item.source);
  EXPECT_EQ(back->metadata, item.metadata);
}

TEST(CxtItemTest, UnknownTypeRoundTripsWithoutEnvelope) {
  CxtItem item;
  item.id = "i-9";
  item.type = "co2Level";  // not in the vocabulary
  item.value = 412.0;
  const auto wire = item.Serialize();
  const auto back = CxtItem::Deserialize(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->type, "co2Level");
}

TEST(CxtItemTest, DeserializeGarbageFails) {
  EXPECT_FALSE(
      CxtItem::Deserialize(std::vector<std::byte>(5, std::byte{0xff})).ok());
}

TEST(CxtItemTest, ToStringIsReadable) {
  CxtItem item;
  item.type = vocab::kTemperature;
  item.value = 14.0;
  item.timestamp = kSimEpoch + 12s;
  item.source = {SourceKind::kAdHocNetwork, "node:3"};
  item.metadata.accuracy = 0.2;
  EXPECT_EQ(item.ToString(),
            "temperature=14 @t=12.000s [accuracy=0.2] (adHocNetwork node:3)");
}

TEST(VocabularyTest, KnowsPaperTypes) {
  const auto& v = CxtVocabulary::Default();
  for (const char* type :
       {vocab::kLocation, vocab::kSpeed, vocab::kActivity, vocab::kMood,
        vocab::kTemperature, vocab::kLight, vocab::kNoise, vocab::kWind,
        vocab::kNearbyDevices, vocab::kBatteryLevel}) {
    EXPECT_TRUE(v.Knows(type)) << type;
  }
  EXPECT_FALSE(v.Knows("flavor"));
}

TEST(VocabularyTest, TypeInfoCarriesKindAndEnvelope) {
  const auto& v = CxtVocabulary::Default();
  const auto location = v.Find(vocab::kLocation);
  ASSERT_TRUE(location.has_value());
  EXPECT_EQ(location->kind, ValueKind::kGeo);
  EXPECT_EQ(location->envelope_bytes, 136u);
  const auto wind = v.Find(vocab::kWind);
  ASSERT_TRUE(wind.has_value());
  EXPECT_EQ(wind->envelope_bytes, 53u);
}

TEST(VocabularyTest, RegisterNewTypeIsExtensible) {
  CxtVocabulary v = CxtVocabulary::Default();  // copy
  v.RegisterType({"co2Level", ValueKind::kNumber, 60, "ppm"});
  EXPECT_TRUE(v.Knows("co2Level"));
  // Replacing updates in place.
  v.RegisterType({"co2Level", ValueKind::kNumber, 64, "ppm"});
  EXPECT_EQ(v.Find("co2Level")->envelope_bytes, 64u);
}

TEST(SourceKindTest, Names) {
  EXPECT_STREQ(SourceKindName(SourceKind::kIntSensor), "intSensor");
  EXPECT_STREQ(SourceKindName(SourceKind::kAdHocNetwork), "adHocNetwork");
  EXPECT_EQ(SourceId({SourceKind::kExtInfra, "infra.fi"}).ToString(),
            "extInfra infra.fi");
}

// --- MechanismSet -----------------------------------------------------------

using query::MechanismSet;
using query::SourceSel;

constexpr SourceSel kMechanisms[] = {SourceSel::kIntSensor,
                                     SourceSel::kExtInfra,
                                     SourceSel::kAdHocNetwork};

std::vector<SourceSel> Members(MechanismSet set) {
  std::vector<SourceSel> members;
  for (const SourceSel kind : set) members.push_back(kind);
  return members;
}

/// The set and its std::set oracle agree on members, iteration order,
/// size and membership.
void ExpectSame(MechanismSet set, const std::set<SourceSel>& oracle) {
  EXPECT_EQ(Members(set),
            std::vector<SourceSel>(oracle.begin(), oracle.end()));
  EXPECT_EQ(set.size(), oracle.size());
  EXPECT_EQ(set.empty(), oracle.empty());
  for (const SourceSel kind : kMechanisms) {
    EXPECT_EQ(set.contains(kind), oracle.contains(kind));
  }
  EXPECT_FALSE(set.contains(SourceSel::kAuto));
}

TEST(MechanismSetTest, MatchesStdSetOracle) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    MechanismSet set;
    std::set<SourceSel> oracle;
    for (int step = 0; step < 400; ++step) {
      const SourceSel kind = kMechanisms[rng.UniformInt(0, 2)];
      switch (rng.UniformInt(0, 3)) {
        case 0:
          EXPECT_EQ(set.insert(kind), oracle.insert(kind).second);
          break;
        case 1:
          set.erase(kind);
          oracle.erase(kind);
          break;
        case 2:
          if (rng.UniformInt(0, 7) == 0) {
            set.clear();
            oracle.clear();
          }
          break;
        default: {
          // Union with a random subset, built from its initializer list.
          const SourceSel other = kMechanisms[rng.UniformInt(0, 2)];
          set = set | MechanismSet{kind, other};
          oracle.insert({kind, other});
          break;
        }
      }
      ExpectSame(set, oracle);
      MechanismSet rebuilt;
      for (const SourceSel member : oracle) rebuilt.insert(member);
      EXPECT_TRUE(set == rebuilt);
      EXPECT_EQ(set == MechanismSet{}, oracle.empty());
    }
  }
}

TEST(MechanismSetTest, AutoIsNeverAMember) {
  MechanismSet set{SourceSel::kAuto};
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.insert(SourceSel::kAuto));
  EXPECT_EQ(set.size(), 0u);
}

TEST(MechanismSetTest, IterationWalksASnapshot) {
  // Erasing members inside the loop skips none of them; inserting one
  // is not visited.
  MechanismSet set{SourceSel::kAdHocNetwork, SourceSel::kIntSensor,
                   SourceSel::kExtInfra};
  std::vector<SourceSel> visited;
  for (const SourceSel kind : set) {
    visited.push_back(kind);
    set.erase(kind);
    set.erase(SourceSel::kAdHocNetwork);
  }
  EXPECT_EQ(visited, (std::vector<SourceSel>{SourceSel::kIntSensor,
                                             SourceSel::kExtInfra,
                                             SourceSel::kAdHocNetwork}));
  EXPECT_TRUE(set.empty());

  MechanismSet grown{SourceSel::kIntSensor};
  visited.clear();
  for (const SourceSel kind : grown) {
    visited.push_back(kind);
    grown.insert(SourceSel::kAdHocNetwork);
  }
  EXPECT_EQ(visited, std::vector<SourceSel>{SourceSel::kIntSensor});
  EXPECT_EQ(grown.size(), 2u);
}

}  // namespace
}  // namespace contory
