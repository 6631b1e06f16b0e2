// Unit tests for the sensor substrate: coordinate mapping, environment
// fields, NMEA, and the BT-GPS device (including the Fig. 5 failure mode).
#include <gtest/gtest.h>

#include <memory>

#include "core/model/vocabulary.hpp"
#include "net/bluetooth.hpp"
#include "phone/phone_profiles.hpp"
#include "sensors/environment.hpp"
#include "sensors/gps.hpp"
#include "sensors/sensor.hpp"
#include "sim/simulation.hpp"

namespace contory::sensors {
namespace {

using namespace std::chrono_literals;

TEST(GeoMappingTest, RoundTripsThroughAnchor) {
  const net::Position p{1234.0, -567.0};
  const GeoPoint g = ToGeo(p);
  const net::Position back = FromGeo(g);
  EXPECT_NEAR(back.x, p.x, 0.01);
  EXPECT_NEAR(back.y, p.y, 0.01);
}

TEST(GeoMappingTest, AnchorMapsToItself) {
  const GeoPoint g = ToGeo({0, 0});
  EXPECT_DOUBLE_EQ(g.lat, kMapAnchor.lat);
  EXPECT_DOUBLE_EQ(g.lon, kMapAnchor.lon);
}

TEST(GeoMappingTest, MetricDistancePreserved) {
  const GeoPoint a = ToGeo({0, 0});
  const GeoPoint b = ToGeo({3000, 4000});
  EXPECT_NEAR(DistanceMeters(a, b), 5000.0, 15.0);
}

TEST(EnvironmentFieldTest, HasDefaultFields) {
  sim::Simulation sim{1};
  EnvironmentField field{sim};
  for (const char* type :
       {vocab::kTemperature, vocab::kWind, vocab::kHumidity,
        vocab::kPressure, vocab::kLight, vocab::kNoise}) {
    EXPECT_TRUE(field.Has(type)) << type;
  }
  EXPECT_FALSE(field.Has("flavor"));
  EXPECT_FALSE(field.TrueValue("flavor", {0, 0}, kSimEpoch).ok());
}

TEST(EnvironmentFieldTest, SpatialGradient) {
  sim::Simulation sim{1};
  EnvironmentField field{sim};
  // Default temperature gradient is +0.4/km east.
  const double here =
      field.TrueValue(vocab::kTemperature, {0, 0}, kSimEpoch).value();
  const double east =
      field.TrueValue(vocab::kTemperature, {10'000, 0}, kSimEpoch).value();
  EXPECT_NEAR(east - here, 4.0, 1e-9);
}

TEST(EnvironmentFieldTest, TemporalDrift) {
  sim::Simulation sim{1};
  EnvironmentField field{sim};
  const double morning =
      field.TrueValue(vocab::kTemperature, {0, 0}, kSimEpoch).value();
  const double noon = field
                          .TrueValue(vocab::kTemperature, {0, 0},
                                     kSimEpoch + std::chrono::hours{6})
                          .value();
  EXPECT_NEAR(noon - morning, 4.0, 1e-9);  // quarter period: full amplitude
}

TEST(EnvironmentFieldTest, SamplesAreNoisyButCentered) {
  sim::Simulation sim{2};
  EnvironmentField field{sim};
  const double truth =
      field.TrueValue(vocab::kTemperature, {0, 0}, kSimEpoch).value();
  double sum = 0.0;
  bool any_different = false;
  for (int i = 0; i < 200; ++i) {
    const double s = field.Sample(vocab::kTemperature, {0, 0}).value();
    sum += s;
    if (s != truth) any_different = true;
  }
  EXPECT_TRUE(any_different);
  EXPECT_NEAR(sum / 200.0, truth, 0.1);
}

TEST(EnvironmentFieldTest, ClampsRespected) {
  sim::Simulation sim{3};
  EnvironmentField field{sim};
  FieldConfig tiny;
  tiny.base = 0.5;
  tiny.noise_sigma = 100.0;
  tiny.min = 0.0;
  tiny.max = 1.0;
  field.Configure("clamped", tiny);
  for (int i = 0; i < 100; ++i) {
    const double v = field.Sample("clamped", {0, 0}).value();
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(EnvironmentSensorTest, ProducesWellFormedItems) {
  sim::Simulation sim{4};
  net::Medium medium;
  EnvironmentField field{sim};
  const auto node = medium.Register("boat", {100, 200});
  EnvironmentSensor sensor{sim,  field, medium, node, vocab::kTemperature,
                           "env:temp-1"};
  const auto item = sensor.Sample();
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(item->type, vocab::kTemperature);
  EXPECT_EQ(item->source.kind, SourceKind::kIntSensor);
  EXPECT_EQ(item->source.address, "env:temp-1");
  EXPECT_EQ(item->timestamp, sim.Now());
  EXPECT_TRUE(item->metadata.accuracy.has_value());
  EXPECT_FALSE(item->id.empty());
}

TEST(EnvironmentSensorTest, FailureInjection) {
  sim::Simulation sim{4};
  net::Medium medium;
  EnvironmentField field{sim};
  const auto node = medium.Register("boat", {0, 0});
  EnvironmentSensor sensor{sim,  field, medium, node, vocab::kWind,
                           "env:wind-1"};
  sensor.SetFailed(true);
  EXPECT_EQ(sensor.Sample().status().code(), StatusCode::kUnavailable);
  sensor.SetFailed(false);
  EXPECT_TRUE(sensor.Sample().ok());
}

TEST(NmeaTest, ChecksumMatchesKnownValue) {
  // Classic reference sentence.
  EXPECT_EQ(NmeaChecksum("GPGGA,,,,,,0,00,,,M,,M,,"), 0x66u);
}

TEST(NmeaTest, BurstIs340Bytes) {
  GpsFix fix;
  fix.position = {60.1520, 24.9090};
  fix.speed_knots = 6.5;
  fix.time = kSimEpoch + 3725s;
  EXPECT_EQ(BuildNmeaBurst(fix).size(), 340u);
}

TEST(NmeaTest, BurstRoundTripsThroughParser) {
  GpsFix fix;
  fix.position = {60.1520, 24.9090};
  fix.speed_knots = 6.5;
  fix.course_deg = 123.0;
  fix.time = kSimEpoch + 3725s;  // 01:02:05
  const auto parsed = ParseNmeaBurst(BuildNmeaBurst(fix));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NEAR(parsed->position.lat, 60.1520, 1e-4);
  EXPECT_NEAR(parsed->position.lon, 24.9090, 1e-4);
  EXPECT_NEAR(parsed->speed_knots, 6.5, 0.01);
  EXPECT_NEAR(parsed->course_deg, 123.0, 0.01);
  EXPECT_EQ(parsed->time, fix.time);
}

TEST(NmeaTest, SouthernWesternHemispheres) {
  GpsFix fix;
  fix.position = {-33.85, -151.21};
  const auto parsed = ParseNmeaBurst(BuildNmeaBurst(fix));
  ASSERT_TRUE(parsed.ok());
  EXPECT_NEAR(parsed->position.lat, -33.85, 1e-4);
  EXPECT_NEAR(parsed->position.lon, -151.21, 1e-4);
}

/// The GGA and RMC sentences of a burst (the GSV filler is constant).
std::string PositionSentences(double lat, double lon, double knots,
                              double course, SimDuration at) {
  GpsFix fix;
  fix.position = {lat, lon};
  fix.speed_knots = knots;
  fix.course_deg = course;
  fix.time = kSimEpoch + at;
  const std::string burst = BuildNmeaBurst(fix);
  return burst.substr(0, burst.find("$GPGSV"));
}

TEST(NmeaTest, PositionSentencesArePinned) {
  EXPECT_EQ(PositionSentences(60.1520, 24.9090, 6.5, 123.0, 3725s),
            "$GPGGA,010205.00,6009.1200,N,02454.5400,E,1,08,1.0,2.0,M,20.0,"
            "M,,*69\r\n"
            "$GPRMC,010205.00,A,6009.1200,N,02454.5400,E,006.5,123.0,010706,"
            ",*3C\r\n");
  EXPECT_EQ(PositionSentences(-33.85, -151.21, 0, 0, 0s),
            "$GPGGA,000000.00,3351.0000,S,15112.6000,W,1,08,1.0,2.0,M,20.0,"
            "M,,*6E\r\n"
            "$GPRMC,000000.00,A,3351.0000,S,15112.6000,W,000.0,000.0,010706,"
            ",*38\r\n");
  // Minutes that round up to 60.0000 print as 60.0000, not as a carry
  // into the degrees.
  EXPECT_EQ(PositionSentences(60.99999999, -0.5, 0, 0, 59s),
            "$GPGGA,000059.00,6060.0000,N,00030.0000,W,1,08,1.0,2.0,M,20.0,"
            "M,,*78\r\n"
            "$GPRMC,000059.00,A,6060.0000,N,00030.0000,W,000.0,000.0,010706,"
            ",*2E\r\n");
  EXPECT_EQ(PositionSentences(-0.000001, 179.999999999, 12.25, 359.9, 86399s),
            "$GPGGA,235959.00,0000.0001,S,17960.0000,E,1,08,1.0,2.0,M,20.0,"
            "M,,*71\r\n"
            "$GPRMC,235959.00,A,0000.0001,S,17960.0000,E,012.2,359.9,010706,"
            ",*20\r\n");
  // 0.03125 minutes is an exact binary tie: it rounds to even, 0.0312.
  EXPECT_EQ(PositionSentences(0.03125 / 60.0, 7.0 + 0.03125 / 60.0, 0, 0, 1s),
            "$GPGGA,000001.00,0000.0312,N,00700.0313,E,1,08,1.0,2.0,M,20.0,"
            "M,,*62\r\n"
            "$GPRMC,000001.00,A,0000.0312,N,00700.0313,E,000.0,000.0,010706,"
            ",*34\r\n");
}

TEST(NmeaTest, CorruptedBurstRejected) {
  GpsFix fix;
  fix.position = {60.15, 24.9};
  std::string burst = BuildNmeaBurst(fix);
  const auto pos = burst.find("GPRMC");
  burst[pos + 10] ^= 1;  // flip a bit inside the RMC body
  EXPECT_FALSE(ParseNmeaBurst(burst).ok());
  EXPECT_FALSE(ParseNmeaBurst("garbage").ok());
}

class GpsDeviceTest : public ::testing::Test {
 protected:
  GpsDeviceTest() {
    gps_node_ = medium_.Register("gps-1", {2, 0});
    phone_node_ = medium_.Register("phone", {0, 0});
    gps_ = std::make_unique<GpsDevice>(sim_, bus_, gps_node_, "gps-1");
    phone_bt_ = std::make_unique<net::BluetoothController>(
        sim_, bus_, phone_, phone_node_);
    phone_bt_->SetEnabled(true);
  }

  sim::Simulation sim_{31};
  net::Medium medium_;
  net::BluetoothBus bus_{medium_};
  phone::SmartPhone phone_{sim_, phone::Nokia6630(), "phone"};
  net::NodeId gps_node_{}, phone_node_{};
  std::unique_ptr<GpsDevice> gps_;
  std::unique_ptr<net::BluetoothController> phone_bt_;
};

TEST_F(GpsDeviceTest, DiscoverableWhenPoweredOn) {
  gps_->PowerOn();
  std::vector<net::BtDeviceInfo> found;
  phone_bt_->StartInquiry(
      [&](Result<std::vector<net::BtDeviceInfo>> r) { found = r.value(); });
  sim_.RunFor(20s);  // bounded: the GPS fix ticker never drains the queue
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].name, "gps-1");
}

TEST_F(GpsDeviceTest, AdvertisesNmeaService) {
  gps_->PowerOn();
  sim_.RunFor(1s);
  std::vector<net::ServiceRecord> records;
  phone_bt_->DiscoverServices(
      gps_node_, kGpsServiceName,
      [&](Result<std::vector<net::ServiceRecord>> r) {
        records = r.value();
      });
  sim_.RunFor(5s);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].service_name, kGpsServiceName);
}

TEST_F(GpsDeviceTest, StreamsFixesOncePerSecond) {
  gps_->PowerOn();
  sim_.RunFor(1s);
  int bursts = 0;
  std::string last;
  phone_bt_->SetDataHandler([&](net::BtLinkId, net::NodeId,
                                const std::vector<std::byte>& data) {
    ++bursts;
    last.assign(reinterpret_cast<const char*>(data.data()), data.size());
  });
  phone_bt_->Connect(gps_node_, [](Result<net::BtLinkId>) {});
  sim_.RunFor(10s);
  EXPECT_GE(bursts, 8);
  EXPECT_LE(bursts, 11);
  EXPECT_EQ(last.size(), 340u);
  const auto fix = ParseNmeaBurst(last);
  ASSERT_TRUE(fix.ok());
  // GPS sits 2 m from the phone at the anchor: fix within noise bounds.
  EXPECT_NEAR(fix->position.lat, kMapAnchor.lat, 0.001);
}

TEST_F(GpsDeviceTest, PowerOffDropsLinkViaSupervisionTimeout) {
  gps_->PowerOn();
  sim_.RunFor(1s);
  phone_bt_->Connect(gps_node_, [](Result<net::BtLinkId>) {});
  sim_.RunFor(3s);
  bool dropped = false;
  phone_bt_->SetDisconnectHandler(
      [&](net::BtLinkId, net::NodeId) { dropped = true; });
  gps_->PowerOff();
  sim_.RunFor(5s);
  EXPECT_TRUE(dropped);
  EXPECT_FALSE(gps_->powered());
}

TEST_F(GpsDeviceTest, PowerCycleRestoresStreaming) {
  gps_->PowerOn();
  gps_->PowerOff();
  gps_->PowerOn();
  sim_.RunFor(1s);
  int bursts = 0;
  phone_bt_->SetDataHandler(
      [&](net::BtLinkId, net::NodeId, const std::vector<std::byte>&) {
        ++bursts;
      });
  phone_bt_->Connect(gps_node_, [](Result<net::BtLinkId>) {});
  sim_.RunFor(5s);
  EXPECT_GE(bursts, 3);
}

TEST_F(GpsDeviceTest, SpeedDerivedFromMovement) {
  gps_->PowerOn();
  sim_.RunFor(1s);
  std::string last;
  phone_bt_->SetDataHandler([&](net::BtLinkId, net::NodeId,
                                const std::vector<std::byte>& data) {
    last.assign(reinterpret_cast<const char*>(data.data()), data.size());
  });
  phone_bt_->Connect(gps_node_, [](Result<net::BtLinkId>) {});
  // Move the GPS node east at ~5 m/s; keep it within BT range of the
  // phone by moving the phone along.
  for (int i = 0; i < 10; ++i) {
    sim_.RunFor(1s);
    ASSERT_TRUE(medium_.SetPosition(gps_node_, {2.0 + 5.0 * i, 0}).ok());
    ASSERT_TRUE(medium_.SetPosition(phone_node_, {5.0 * i, 0}).ok());
  }
  sim_.RunFor(2s);
  const auto fix = ParseNmeaBurst(last);
  ASSERT_TRUE(fix.ok());
  // 5 m/s ~ 9.7 knots; allow fix-noise slack.
  EXPECT_NEAR(fix->speed_knots, 9.7, 5.0);
}

}  // namespace
}  // namespace contory::sensors
