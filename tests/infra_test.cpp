// Unit tests for the infrastructure: event envelope/broker, context
// server (repository + long-running queries), regatta service.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/model/vocabulary.hpp"
#include "core/query/parser.hpp"
#include "infra/context_server.hpp"
#include "infra/event_envelope.hpp"
#include "infra/regatta_service.hpp"
#include "net/cellular.hpp"
#include "net/medium.hpp"
#include "phone/phone_profiles.hpp"
#include "phone/smart_phone.hpp"
#include "sim/simulation.hpp"

namespace contory::infra {
namespace {

using namespace std::chrono_literals;

std::vector<std::byte> Bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(EventEnvelopeTest, PadsTo1696Bytes) {
  // "event notifications whose size is 1696 bytes".
  const auto frame = WrapEvent("topic", Bytes("hello"));
  EXPECT_EQ(frame.size(), kEventNotificationBytes);
}

TEST(EventEnvelopeTest, LargePayloadGrowsEnvelope) {
  const auto frame = WrapEvent("t", std::vector<std::byte>(4000));
  EXPECT_GT(frame.size(), kEventNotificationBytes);
}

TEST(EventEnvelopeTest, RoundTrip) {
  const auto frame = WrapEvent("weather.region-5", Bytes("payload"));
  const auto event = UnwrapEvent(frame);
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event->topic, "weather.region-5");
  EXPECT_EQ(event->payload, Bytes("payload"));
}

TEST(EventEnvelopeTest, GarbageRejected) {
  EXPECT_FALSE(UnwrapEvent(std::vector<std::byte>(3)).ok());
}

class InfraFixture : public ::testing::Test {
 protected:
  InfraFixture() {
    node_a_ = medium_.Register("phone-a", {0, 0});
    node_b_ = medium_.Register("phone-b", {100, 0});
    modem_a_ = std::make_unique<net::CellularModem>(sim_, phone_a_, network_,
                                                    node_a_);
    modem_b_ = std::make_unique<net::CellularModem>(sim_, phone_b_, network_,
                                                    node_b_);
    modem_a_->SetRadioOn(true);
    modem_b_->SetRadioOn(true);
  }

  sim::Simulation sim_{41};
  net::Medium medium_;
  net::CellularNetwork network_{sim_};
  phone::SmartPhone phone_a_{sim_, phone::Nokia6630(), "phone-a"};
  phone::SmartPhone phone_b_{sim_, phone::Nokia6630(), "phone-b"};
  net::NodeId node_a_{}, node_b_{};
  std::unique_ptr<net::CellularModem> modem_a_, modem_b_;
};

CxtItem MakeItem(const std::string& type, double value, SimTime now,
                 const std::string& id) {
  CxtItem item;
  item.id = id;
  item.type = type;
  item.value = value;
  item.timestamp = now;
  item.metadata.accuracy = 0.2;
  return item;
}

class ContextServerTest : public InfraFixture {
 protected:
  ContextServerTest() : server_(sim_, network_, "infra.dynamos.fi") {}

  /// Sends a store request from modem A; runs until acked.
  void StoreViaModem(const std::string& entity, const CxtItem& item,
                     std::optional<GeoPoint> location = std::nullopt) {
    ByteWriter w;
    w.WriteU8(static_cast<std::uint8_t>(ServerOp::kStore));
    w.WriteString(entity);
    w.WriteBool(location.has_value());
    if (location.has_value()) {
      w.WriteF64(location->lat);
      w.WriteF64(location->lon);
    }
    item.Encode(w);
    if (w.size() < kEventNotificationBytes) {
      w.WritePadding(kEventNotificationBytes - w.size());
    }
    bool done = false;
    modem_a_->SendRequest("infra.dynamos.fi", std::move(w).Take(),
                          [&](Result<std::vector<std::byte>> r) {
                            ASSERT_TRUE(r.ok());
                            done = true;
                          });
    while (!done && sim_.Step()) {
    }
  }

  std::vector<CxtItem> QueryViaModem(const query::CxtQuery& q) {
    ByteWriter w;
    w.WriteU8(static_cast<std::uint8_t>(ServerOp::kQuery));
    const auto qbytes = q.Serialize();
    w.WriteU32(static_cast<std::uint32_t>(qbytes.size()));
    w.WriteRaw(qbytes);
    if (w.size() < kEventNotificationBytes) {
      w.WritePadding(kEventNotificationBytes - w.size());
    }
    std::vector<CxtItem> items;
    bool done = false;
    modem_b_->SendRequest(
        "infra.dynamos.fi", std::move(w).Take(),
        [&](Result<std::vector<std::byte>> r) {
          ASSERT_TRUE(r.ok());
          ByteReader reader{*r};
          ASSERT_EQ(reader.ReadU8().value(), 1);
          const auto count = reader.ReadU32().value();
          for (std::uint32_t i = 0; i < count; ++i) {
            auto item = CxtItem::Deserialize(reader);
            ASSERT_TRUE(item.ok());
            items.push_back(*std::move(item));
          }
          done = true;
        });
    while (!done && sim_.Step()) {
    }
    return items;
  }

  query::CxtQuery Q(const std::string& text) {
    auto q = query::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    q->id = sim_.ids().NextId("q");
    return *std::move(q);
  }

  ContextServer server_;
};

TEST_F(ContextServerTest, StoreAndQueryRoundTrip) {
  StoreViaModem("boat-1",
                MakeItem(vocab::kTemperature, 14.0, sim_.Now(), "i-1"));
  EXPECT_EQ(server_.stored_count(), 1u);
  const auto items = QueryViaModem(Q("SELECT temperature DURATION 1 min"));
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].value, CxtValue{14.0});
  EXPECT_EQ(items[0].source.kind, SourceKind::kExtInfra);
  EXPECT_EQ(items[0].source.address, "infra.dynamos.fi");
}

TEST_F(ContextServerTest, NewestItemPerEntityWins) {
  StoreViaModem("boat-1",
                MakeItem(vocab::kTemperature, 10.0, sim_.Now(), "i-1"));
  sim_.RunFor(5s);
  StoreViaModem("boat-1",
                MakeItem(vocab::kTemperature, 12.0, sim_.Now(), "i-2"));
  const auto items = QueryViaModem(Q("SELECT temperature DURATION 1 min"));
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].value, CxtValue{12.0});
}

TEST_F(ContextServerTest, MultipleEntitiesAllReport) {
  StoreViaModem("boat-1",
                MakeItem(vocab::kTemperature, 10.0, sim_.Now(), "i-1"));
  StoreViaModem("boat-2",
                MakeItem(vocab::kTemperature, 12.0, sim_.Now(), "i-2"));
  const auto items = QueryViaModem(Q("SELECT temperature DURATION 1 min"));
  EXPECT_EQ(items.size(), 2u);
}

TEST_F(ContextServerTest, FreshnessFiltersStale) {
  StoreViaModem("boat-1",
                MakeItem(vocab::kTemperature, 10.0, sim_.Now(), "i-1"));
  sim_.RunFor(2min);
  const auto items = QueryViaModem(
      Q("SELECT temperature FRESHNESS 30 sec DURATION 1 min"));
  EXPECT_TRUE(items.empty());
}

TEST_F(ContextServerTest, WhereFilters) {
  auto precise = MakeItem(vocab::kTemperature, 10.0, sim_.Now(), "i-1");
  precise.metadata.accuracy = 0.1;
  auto sloppy = MakeItem(vocab::kTemperature, 11.0, sim_.Now(), "i-2");
  sloppy.metadata.accuracy = 0.8;
  StoreViaModem("boat-1", precise);
  StoreViaModem("boat-2", sloppy);
  const auto items = QueryViaModem(
      Q("SELECT temperature WHERE accuracy<=0.2 DURATION 1 min"));
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].value, CxtValue{10.0});
}

TEST_F(ContextServerTest, RegionDestinationMatchesProducerLocation) {
  // Two boats, one inside the queried region.
  StoreViaModem("boat-in",
                MakeItem(vocab::kWind, 6.0, sim_.Now(), "i-1"),
                GeoPoint{60.15, 24.90});
  StoreViaModem("boat-out",
                MakeItem(vocab::kWind, 9.0, sim_.Now(), "i-2"),
                GeoPoint{60.40, 25.40});
  const auto items = QueryViaModem(
      Q("SELECT wind FROM extInfra region(60.15, 24.90, 2000) "
        "DURATION 1 min"));
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].value, CxtValue{6.0});
}

TEST_F(ContextServerTest, EntityDestinationMatchesEntity) {
  StoreViaModem("friend-7",
                MakeItem(vocab::kLocation, 1.0, sim_.Now(), "i-1"));
  StoreViaModem("stranger",
                MakeItem(vocab::kLocation, 2.0, sim_.Now(), "i-2"));
  const auto items = QueryViaModem(
      Q("SELECT location FROM extInfra entity(\"friend-7\") "
        "DURATION 1 min"));
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].value, CxtValue{1.0});
}

TEST_F(ContextServerTest, RingBufferEvictsOldest) {
  ContextServerConfig cfg;
  cfg.max_items_per_key = 4;
  ContextServer small{sim_, network_, "small.fi", cfg};
  for (int i = 0; i < 10; ++i) {
    small.StoreDirect(
        {MakeItem(vocab::kWind, i, sim_.Now(), "i-" + std::to_string(i)),
         "boat", std::nullopt});
  }
  EXPECT_EQ(small.stored_count(), 4u);
}

TEST_F(ContextServerTest, RegisteredPeriodicQueryPushes) {
  // Modem B registers a periodic query; modem A stores; pushes arrive on B
  // each EVERY period.
  auto q = Q("SELECT temperature DURATION 10 min EVERY 30 sec");
  ByteWriter w;
  w.WriteU8(static_cast<std::uint8_t>(ServerOp::kRegisterQuery));
  const auto qbytes = q.Serialize();
  w.WriteU32(static_cast<std::uint32_t>(qbytes.size()));
  w.WriteRaw(qbytes);
  bool registered = false;
  modem_b_->SendRequest("infra.dynamos.fi", std::move(w).Take(),
                        [&](Result<std::vector<std::byte>> r) {
                          ASSERT_TRUE(r.ok());
                          registered = true;
                        });
  while (!registered && sim_.Step()) {
  }
  EXPECT_EQ(server_.active_query_count(), 1u);

  int pushes = 0;
  modem_b_->SetPushHandler([&](const std::vector<std::byte>& frame) {
    const auto event = UnwrapEvent(frame);
    ASSERT_TRUE(event.ok());
    EXPECT_EQ(event->topic, "cxt." + q.id);
    ++pushes;
  });
  StoreViaModem("boat-1",
                MakeItem(vocab::kTemperature, 14.0, sim_.Now(), "i-1"));
  sim_.RunFor(3min);
  EXPECT_GE(pushes, 4);  // ~6 periods, allowing connection latencies
}

TEST_F(ContextServerTest, RegisteredEventQueryFiresOnCondition) {
  auto q = Q("SELECT temperature DURATION 10 min EVENT AVG(temperature)>25");
  ByteWriter w;
  w.WriteU8(static_cast<std::uint8_t>(ServerOp::kRegisterQuery));
  const auto qbytes = q.Serialize();
  w.WriteU32(static_cast<std::uint32_t>(qbytes.size()));
  w.WriteRaw(qbytes);
  bool registered = false;
  modem_b_->SendRequest("infra.dynamos.fi", std::move(w).Take(),
                        [&](Result<std::vector<std::byte>> r) {
                          ASSERT_TRUE(r.ok());
                          registered = true;
                        });
  while (!registered && sim_.Step()) {
  }
  int pushes = 0;
  modem_b_->SetPushHandler(
      [&](const std::vector<std::byte>&) { ++pushes; });
  StoreViaModem("boat-1",
                MakeItem(vocab::kTemperature, 20.0, sim_.Now(), "i-1"));
  sim_.RunFor(30s);
  EXPECT_EQ(pushes, 0);  // avg 20: below threshold
  StoreViaModem("boat-2",
                MakeItem(vocab::kTemperature, 35.0, sim_.Now(), "i-2"));
  sim_.RunFor(30s);
  EXPECT_GE(pushes, 1);  // avg 27.5 > 25
}

TEST_F(ContextServerTest, CancelStopsRegistration) {
  auto q = Q("SELECT temperature DURATION 10 min EVERY 10 sec");
  ByteWriter w;
  w.WriteU8(static_cast<std::uint8_t>(ServerOp::kRegisterQuery));
  const auto qbytes = q.Serialize();
  w.WriteU32(static_cast<std::uint32_t>(qbytes.size()));
  w.WriteRaw(qbytes);
  modem_b_->SendRequest("infra.dynamos.fi", std::move(w).Take(),
                        [](Result<std::vector<std::byte>>) {});
  sim_.RunFor(10s);
  ASSERT_EQ(server_.active_query_count(), 1u);

  ByteWriter c;
  c.WriteU8(static_cast<std::uint8_t>(ServerOp::kCancelQuery));
  c.WriteString(q.id);
  modem_b_->SendRequest("infra.dynamos.fi", std::move(c).Take(),
                        [](Result<std::vector<std::byte>>) {});
  sim_.RunFor(10s);
  EXPECT_EQ(server_.active_query_count(), 0u);
}

TEST_F(ContextServerTest, RegistrationExpiresWithDuration) {
  auto q = Q("SELECT temperature DURATION 1 min EVERY 10 sec");
  ByteWriter w;
  w.WriteU8(static_cast<std::uint8_t>(ServerOp::kRegisterQuery));
  const auto qbytes = q.Serialize();
  w.WriteU32(static_cast<std::uint32_t>(qbytes.size()));
  w.WriteRaw(qbytes);
  modem_b_->SendRequest("infra.dynamos.fi", std::move(w).Take(),
                        [](Result<std::vector<std::byte>>) {});
  sim_.RunFor(10s);
  ASSERT_EQ(server_.active_query_count(), 1u);
  sim_.RunFor(2min);
  // Expiry is lazy (checked on push ticks), so poke it via a store.
  StoreViaModem("boat-1",
                MakeItem(vocab::kTemperature, 1.0, sim_.Now(), "i-x"));
  EXPECT_EQ(server_.active_query_count(), 0u);
}

class RegattaServiceTest : public InfraFixture {
 protected:
  RegattaServiceTest()
      : service_(sim_, network_, "regatta.dynamos.fi",
                 {GeoPoint{60.150, 24.900}, GeoPoint{60.160, 24.920},
                  GeoPoint{60.170, 24.940}}) {}
  RegattaService service_;
};

TEST_F(RegattaServiceTest, ChecksCheckpointPassage) {
  service_.Report("Aurora", {60.150, 24.900}, 6.0);  // at checkpoint 1
  service_.Report("Borea", {60.100, 24.800}, 7.0);   // nowhere
  const auto standings = service_.Standings();
  ASSERT_EQ(standings.size(), 2u);
  EXPECT_EQ(standings[0].boat, "Aurora");
  EXPECT_EQ(standings[0].checkpoints_passed, 1);
  EXPECT_EQ(standings[1].checkpoints_passed, 0);
}

TEST_F(RegattaServiceTest, EarlierPassageBreaksTies) {
  service_.Report("Slow", {60.150, 24.900}, 5.0);
  sim_.RunFor(1min);
  service_.Report("Fast", {60.150, 24.900}, 8.0);
  const auto standings = service_.Standings();
  EXPECT_EQ(standings[0].boat, "Slow");  // passed first
}

TEST_F(RegattaServiceTest, NearCheckpointWithinRadiusCounts) {
  // ~100 m north of checkpoint 1 (radius 150 m).
  service_.Report("Near", {60.1509, 24.900}, 6.0);
  EXPECT_EQ(service_.Standings()[0].checkpoints_passed, 1);
}

TEST_F(RegattaServiceTest, CheckpointsMustBePassedInOrder) {
  service_.Report("Skipper", {60.170, 24.940}, 6.0);  // checkpoint 3 first
  EXPECT_EQ(service_.Standings()[0].checkpoints_passed, 0);
  service_.Report("Skipper", {60.150, 24.900}, 6.0);  // checkpoint 1
  EXPECT_EQ(service_.Standings()[0].checkpoints_passed, 1);
}

TEST_F(RegattaServiceTest, AverageSpeedTracked) {
  service_.Report("Aurora", {60.0, 24.0}, 4.0);
  service_.Report("Aurora", {60.0, 24.0}, 8.0);
  EXPECT_DOUBLE_EQ(service_.Standings()[0].avg_speed_knots, 6.0);
}

TEST_F(RegattaServiceTest, StandingsEncodingRoundTrips) {
  service_.Report("Aurora", {60.150, 24.900}, 6.0);
  const auto standings = service_.Standings();
  const auto wire = EncodeStandings(standings);
  ByteReader r{wire};
  const auto back = DecodeStandings(r);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ((*back)[0].boat, "Aurora");
  EXPECT_EQ((*back)[0].checkpoints_passed, 1);
}

TEST_F(RegattaServiceTest, ReportOverModemAndSubscribePushes) {
  // Subscribe from modem B.
  ByteWriter sub;
  sub.WriteU8(static_cast<std::uint8_t>(RegattaOp::kSubscribe));
  bool subscribed = false;
  modem_b_->SendRequest("regatta.dynamos.fi", std::move(sub).Take(),
                        [&](Result<std::vector<std::byte>> r) {
                          ASSERT_TRUE(r.ok());
                          subscribed = true;
                        });
  while (!subscribed && sim_.Step()) {
  }
  int pushes = 0;
  std::vector<RegattaStanding> last;
  modem_b_->SetPushHandler([&](const std::vector<std::byte>& frame) {
    const auto event = UnwrapEvent(frame);
    ASSERT_TRUE(event.ok());
    ByteReader r{event->payload};
    const auto standings = DecodeStandings(r);
    ASSERT_TRUE(standings.ok());
    last = *standings;
    ++pushes;
  });

  // Report a passage from modem A.
  ByteWriter rep;
  rep.WriteU8(static_cast<std::uint8_t>(RegattaOp::kReport));
  rep.WriteString("Aurora");
  rep.WriteF64(60.150);
  rep.WriteF64(24.900);
  rep.WriteF64(6.5);
  if (rep.size() < kEventNotificationBytes) {
    rep.WritePadding(kEventNotificationBytes - rep.size());
  }
  modem_a_->SendRequest("regatta.dynamos.fi", std::move(rep).Take(),
                        [](Result<std::vector<std::byte>>) {});
  sim_.RunFor(1min);
  EXPECT_GE(pushes, 1);
  ASSERT_FALSE(last.empty());
  EXPECT_EQ(last[0].boat, "Aurora");
}

}  // namespace
}  // namespace contory::infra
