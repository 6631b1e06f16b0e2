// Unit tests for the CxtPublisher: dual-channel publication (BT SDDB +
// SM tags), the BT item-poll micro-protocol, authenticated access, and
// interplay with the AccessController on the requester side.
#include <gtest/gtest.h>

#include "core/contory.hpp"
#include "testbed/testbed.hpp"

namespace contory::core {
namespace {

using namespace std::chrono_literals;

CxtItem Item(testbed::World& world, const std::string& type, double value) {
  CxtItem item;
  item.id = world.sim().ids().NextId("item");
  item.type = type;
  item.value = value;
  item.timestamp = world.Now();
  item.metadata.accuracy = 0.2;
  return item;
}

TEST(CxtGetProtocolTest, RequestRoundTrip) {
  const auto frame = BuildCxtGetRequest("temperature", "key-1");
  const auto parsed = ParseCxtGetRequest(frame);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type, "temperature");
  EXPECT_EQ(parsed->key, "key-1");
}

TEST(CxtGetProtocolTest, ResponseRoundTrip) {
  testbed::World world{950};
  const auto frame = BuildCxtGetResponse(Item(world, "wind", 6.0));
  const auto parsed = ParseCxtGetResponse(frame);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type, "wind");

  const auto missing = ParseCxtGetResponse(
      BuildCxtGetResponse(NotFound("nothing published")));
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(CxtGetProtocolTest, ForeignFramesRejected) {
  // NMEA payloads and random bytes must not parse as protocol frames.
  std::vector<std::byte> nmea(340, std::byte{'$'});
  EXPECT_FALSE(ParseCxtGetRequest(nmea).ok());
  EXPECT_FALSE(ParseCxtGetResponse(nmea).ok());
  EXPECT_FALSE(ParseCxtGetRequest({}).ok());
}

class PublisherTest : public ::testing::Test {
 protected:
  PublisherTest() : world_(951) {
    testbed::DeviceOptions opts;
    opts.name = "publisher";
    opts.with_wifi = true;
    opts.profile = phone::Nokia9500();
    opts.with_cellular = false;
    device_ = &world_.AddDevice(opts);
    EXPECT_TRUE(device_->contory().RegisterCxtServer(app_).ok());
  }

  testbed::World world_;
  testbed::Device* device_ = nullptr;
  CollectingClient app_;
};

TEST_F(PublisherTest, PublishesOnBothChannels) {
  ASSERT_TRUE(device_->contory()
                  .PublishCxtItem(Item(world_, vocab::kWind, 6.0), true)
                  .ok());
  world_.RunFor(1s);
  // SM tag exposed...
  EXPECT_TRUE(device_->sm()->tags().Has(CxtTagName(vocab::kWind)));
  // ...and a BT service record registered.
  EXPECT_TRUE(device_->contory().publisher().IsPublished(vocab::kWind));
  EXPECT_TRUE(
      device_->contory().publisher().CurrentItem(vocab::kWind, "").ok());
}

TEST_F(PublisherTest, RepublishUpdatesInPlace) {
  ASSERT_TRUE(device_->contory()
                  .PublishCxtItem(Item(world_, vocab::kWind, 6.0), true)
                  .ok());
  world_.RunFor(1s);
  ASSERT_TRUE(device_->contory()
                  .PublishCxtItem(Item(world_, vocab::kWind, 9.0), true)
                  .ok());
  world_.RunFor(1s);
  const auto current =
      device_->contory().publisher().CurrentItem(vocab::kWind, "");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->value, CxtValue{9.0});
  // Tag carries the fresh value too.
  const auto tag = device_->sm()->tags().Read(CxtTagName(vocab::kWind));
  ASSERT_TRUE(tag.ok());
  const auto item = ItemFromTagValue(tag->value);
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(item->value, CxtValue{9.0});
}

TEST_F(PublisherTest, AuthenticatedItemNeedsKey) {
  ASSERT_TRUE(device_->contory()
                  .PublishCxtItem(Item(world_, vocab::kLocation, 1.0), true,
                                  "sesame")
                  .ok());
  world_.RunFor(1s);
  EXPECT_EQ(device_->contory()
                .publisher()
                .CurrentItem(vocab::kLocation, "")
                .status()
                .code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(device_->contory()
                .publisher()
                .CurrentItem(vocab::kLocation, "wrong")
                .status()
                .code(),
            StatusCode::kPermissionDenied);
  EXPECT_TRUE(device_->contory()
                  .publisher()
                  .CurrentItem(vocab::kLocation, "sesame")
                  .ok());
}

TEST_F(PublisherTest, UnpublishRemovesEverything) {
  ASSERT_TRUE(device_->contory()
                  .PublishCxtItem(Item(world_, vocab::kWind, 6.0), true)
                  .ok());
  world_.RunFor(1s);
  ASSERT_TRUE(device_->contory()
                  .PublishCxtItem(Item(world_, vocab::kWind, 6.0), false)
                  .ok());
  EXPECT_FALSE(device_->contory().publisher().IsPublished(vocab::kWind));
  EXPECT_FALSE(device_->sm()->tags().Has(CxtTagName(vocab::kWind)));
  EXPECT_FALSE(
      device_->contory().publisher().CurrentItem(vocab::kWind, "").ok());
}

TEST_F(PublisherTest, ItemLifetimeExpiresTag) {
  auto item = Item(world_, vocab::kWind, 6.0);
  item.lifetime = SimDuration{30s};
  ASSERT_TRUE(device_->contory().PublishCxtItem(item, true).ok());
  world_.RunFor(10s);
  EXPECT_TRUE(device_->sm()->tags().Has(CxtTagName(vocab::kWind)));
  world_.RunFor(30s);
  // The SM tag expired with the item's validity.
  EXPECT_FALSE(device_->sm()->tags().Has(CxtTagName(vocab::kWind)));
}

TEST(AccessControlledPollTest, BlockedPublisherIsSkipped) {
  testbed::World world{952};
  auto& requester = world.AddDevice({.name = "requester"});
  testbed::DeviceOptions pub_opts;
  pub_opts.name = "shady-device";
  pub_opts.position = {5, 0};
  auto& publisher = world.AddDevice(pub_opts);
  CollectingClient pub_app;
  ASSERT_TRUE(publisher.contory().RegisterCxtServer(pub_app).ok());
  ASSERT_TRUE(publisher.contory()
                  .PublishCxtItem(Item(world, vocab::kWind, 6.0), true)
                  .ok());
  world.RunFor(1s);

  // The requester's access controller has blacklisted the device.
  requester.contory().access().Block("bt:shady-device");

  CollectingClient client;
  auto q = query::ParseQuery(
      "SELECT wind FROM adHocNetwork DURATION 1 min");
  q->id = world.sim().ids().NextId("q");
  const auto id = requester.contory().ProcessCxtQuery(*q, client);
  ASSERT_TRUE(id.ok());
  world.RunFor(30s);
  EXPECT_TRUE(client.items.empty());  // never polled the blocked device
}

// --- Parser robustness: garbage in, clean error out --------------------------

class ParserRobustnessTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ParserRobustnessTest, RandomTokenSoupNeverCrashes) {
  static const std::vector<std::string> kVocabulary = {
      "SELECT", "FROM",     "WHERE",  "DURATION", "EVERY",  "EVENT",
      "AND",    "OR",       "NOT",    "AVG",      "(",      ")",
      ",",      "=",        "<",      ">",        "<=",     ">=",
      "1",      "0.5",      "hour",   "sec",      "samples", "all",
      "temperature", "accuracy", "adHocNetwork", "intSensor",
      "\"x\"",  "region",   "entity", "@"};
  Rng rng{GetParam()};
  for (int i = 0; i < 300; ++i) {
    std::string soup;
    const int len = static_cast<int>(rng.UniformInt(1, 20));
    for (int j = 0; j < len; ++j) {
      soup += kVocabulary[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(kVocabulary.size()) - 1))];
      soup += ' ';
    }
    // Must not crash; must produce either a valid query or an error with
    // a message.
    const auto q = query::ParseQuery(soup);
    if (!q.ok()) {
      EXPECT_FALSE(q.status().message().empty()) << soup;
    } else {
      EXPECT_TRUE(q->Validate().ok()) << soup;
    }
  }
}

TEST_P(ParserRobustnessTest, RandomBytesNeverCrashDeserializers) {
  Rng rng{GetParam()};
  for (int i = 0; i < 200; ++i) {
    std::vector<std::byte> junk(
        static_cast<std::size_t>(rng.UniformInt(0, 300)));
    for (auto& b : junk) {
      b = static_cast<std::byte>(rng.Next() & 0xff);
    }
    (void)CxtItem::Deserialize(junk);
    (void)query::CxtQuery::Deserialize(junk);
    (void)sm::SmartMessage::Deserialize(junk);
    (void)ParseCxtGetRequest(junk);
    (void)ParseCxtGetResponse(junk);
    (void)infra::UnwrapEvent(junk);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustnessTest,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace contory::core
