// Unit tests for the Smart Messages platform: tag space, message
// serialization, runtime (admission, code cache, scheduler), migration,
// and content-based routing over the participation overlay.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/medium.hpp"
#include "net/wifi.hpp"
#include "phone/phone_profiles.hpp"
#include "phone/smart_phone.hpp"
#include "sim/simulation.hpp"
#include "sm/sm_runtime.hpp"
#include "sm/smart_message.hpp"
#include "sm/tag_space.hpp"

namespace contory::sm {
namespace {

using namespace std::chrono_literals;

TEST(TagSpaceTest, UpsertAndRead) {
  sim::Simulation sim;
  TagSpace tags{sim};
  tags.Upsert("temperature", "14C,1C,trusted");
  const auto tag = tags.Read("temperature");
  ASSERT_TRUE(tag.ok());
  EXPECT_EQ(tag->value, "14C,1C,trusted");
  EXPECT_EQ(tag->created, sim.Now());
}

TEST(TagSpaceTest, UpsertReplaces) {
  sim::Simulation sim;
  TagSpace tags{sim};
  tags.Upsert("t", "old");
  tags.Upsert("t", "new");
  EXPECT_EQ(tags.Read("t")->value, "new");
  EXPECT_EQ(tags.size(), 1u);
}

TEST(TagSpaceTest, MissingTagIsNotFound) {
  sim::Simulation sim;
  TagSpace tags{sim};
  EXPECT_EQ(tags.Read("nope").status().code(), StatusCode::kNotFound);
}

TEST(TagSpaceTest, LifetimeExpires) {
  sim::Simulation sim;
  TagSpace tags{sim};
  tags.Upsert("t", "v", SimDuration{30s});
  sim.RunFor(29s);
  EXPECT_TRUE(tags.Has("t"));
  sim.RunFor(2s);
  EXPECT_FALSE(tags.Has("t"));
  EXPECT_FALSE(tags.Read("t").ok());
}

TEST(TagSpaceTest, PurgeRemovesExpired) {
  sim::Simulation sim;
  TagSpace tags{sim};
  tags.Upsert("a", "1", SimDuration{10s});
  tags.Upsert("b", "2");
  sim.RunFor(11s);
  EXPECT_EQ(tags.PurgeExpired(), 1u);
  EXPECT_EQ(tags.size(), 1u);
}

TEST(TagSpaceTest, AuthenticatedAccess) {
  // "authenticated access locks the item with a key that must be known by
  // the requester" (Sec. 4.3).
  sim::Simulation sim;
  TagSpace tags{sim};
  tags.Upsert("secret", "classified", std::nullopt, "key123");
  EXPECT_EQ(tags.Read("secret").status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(tags.ReadWithKey("secret", "wrong").status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(tags.ReadWithKey("secret", "key123")->value, "classified");
}

TEST(TagSpaceTest, MatchByPrefixHidesLockedValues) {
  sim::Simulation sim;
  TagSpace tags{sim};
  tags.Upsert("cxt.temperature", "14");
  tags.Upsert("cxt.location", "60.1,24.9", std::nullopt, "key");
  tags.Upsert("other", "x");
  const auto hits = tags.Match("cxt.");
  ASSERT_EQ(hits.size(), 2u);
  for (const auto& t : hits) {
    if (t.name == "cxt.location") {
      EXPECT_TRUE(t.value.empty());
    }
    if (t.name == "cxt.temperature") {
      EXPECT_EQ(t.value, "14");
    }
  }
}

TEST(TagSpaceTest, UpsertReplacesInPlaceAndKeepsInsertionOrder) {
  sim::Simulation sim;
  TagSpace tags{sim};
  tags.Upsert("contory", "1");
  tags.Upsert("contory.node.7", "1");
  tags.Upsert("cxt.temperature", "14");
  tags.Upsert("contory.node.7", "2", 5s, "key");
  EXPECT_EQ(tags.size(), 3u);
  const auto all = tags.Match("");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].name, "contory");
  EXPECT_EQ(all[1].name, "contory.node.7");
  EXPECT_TRUE(all[1].value.empty());  // now key-locked
  EXPECT_EQ(all[2].name, "cxt.temperature");
  EXPECT_EQ(tags.ReadWithKey("contory.node.7", "key")->value, "2");
  EXPECT_TRUE(tags.Delete("contory").ok());
  EXPECT_EQ(tags.Match("").front().name, "contory.node.7");
  sim.RunFor(5s);
  EXPECT_EQ(tags.PurgeExpired(), 1u);
  EXPECT_EQ(tags.size(), 1u);
}

TEST(TagSpaceTest, DeleteWorks) {
  sim::Simulation sim;
  TagSpace tags{sim};
  tags.Upsert("t", "v");
  EXPECT_TRUE(tags.Delete("t").ok());
  EXPECT_FALSE(tags.Delete("t").ok());
}

TEST(SmartMessageTest, SerializeRoundTrip) {
  SmartMessage sm;
  sm.id = "sm-42";
  sm.code_brick = "contory.finder";
  sm.data = {std::byte{1}, std::byte{2}, std::byte{3}};
  sm.origin = 7;
  sm.target_tag = "cxt.temperature";
  sm.hop_count = 2;
  sm.max_hops = 3;
  sm.visited = {7, 9};
  sm.breakup.transfer = 100ms;

  const auto wire = sm.Serialize(500, false);
  const auto back = SmartMessage::Deserialize(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->id, "sm-42");
  EXPECT_EQ(back->code_brick, "contory.finder");
  EXPECT_EQ(back->data.size(), 3u);
  EXPECT_EQ(back->origin, 7u);
  EXPECT_EQ(back->target_tag, "cxt.temperature");
  EXPECT_EQ(back->hop_count, 2);
  EXPECT_EQ(back->max_hops, 3);
  EXPECT_EQ(back->visited, (std::vector<net::NodeId>{7, 9}));
  EXPECT_EQ(back->breakup.transfer, 100ms);
}

TEST(SmartMessageTest, CodeCachingShrinksWire) {
  SmartMessage sm;
  sm.id = "sm-1";
  sm.code_brick = "b";
  const std::size_t with_code = sm.WireBytes(800, false);
  const std::size_t without_code = sm.WireBytes(800, true);
  EXPECT_EQ(with_code - without_code, 800u);
}

TEST(SmartMessageTest, DeserializeGarbageFails) {
  EXPECT_FALSE(
      SmartMessage::Deserialize(std::vector<std::byte>(3, std::byte{9})).ok());
}

TEST(HopBreakupTest, Accumulates) {
  HopBreakup a{10ms, 20ms, 30ms, 40ms};
  HopBreakup b{1ms, 2ms, 3ms, 4ms};
  a += b;
  EXPECT_EQ(a.connect, 11ms);
  EXPECT_EQ(a.Total(), 11ms + 22ms + 33ms + 44ms);
}

/// Fixture: a line of communicators A - B - C - D, 80 m apart (100 m WiFi
/// range), all participating in the Contory overlay.
class SmRuntimeTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 4;

  SmRuntimeTest() {
    for (int i = 0; i < kNodes; ++i) {
      phones_.push_back(std::make_unique<phone::SmartPhone>(
          sim_, phone::Nokia9500(), "comm-" + std::to_string(i)));
      nodes_.push_back(
          medium_.Register("comm-" + std::to_string(i), {i * 80.0, 0}));
      wifis_.push_back(std::make_unique<net::WifiController>(
          sim_, wifi_bus_, *phones_.back(), nodes_.back()));
      wifis_.back()->SetEnabled(true);
      runtimes_.push_back(
          std::make_unique<SmRuntime>(sim_, sm_bus_, *wifis_.back()));
      runtimes_.back()->SetParticipating(true);
    }
  }

  SmartMessage MakeSm(const std::string& brick) {
    SmartMessage sm;
    sm.id = sim_.ids().NextId("sm");
    sm.code_brick = brick;
    sm.origin = nodes_[0];
    return sm;
  }

  sim::Simulation sim_{21};
  net::Medium medium_;
  net::WifiBus wifi_bus_{medium_};
  SmBus sm_bus_;
  std::vector<std::unique_ptr<phone::SmartPhone>> phones_;
  std::vector<net::NodeId> nodes_;
  std::vector<std::unique_ptr<net::WifiController>> wifis_;
  std::vector<std::unique_ptr<SmRuntime>> runtimes_;
};

TEST_F(SmRuntimeTest, ParticipationExposesTag) {
  EXPECT_TRUE(runtimes_[0]->participating());
  EXPECT_TRUE(runtimes_[0]->tags().Has("contory"));
  runtimes_[0]->SetParticipating(false);
  EXPECT_FALSE(runtimes_[0]->participating());
}

TEST_F(SmRuntimeTest, InjectExecutesHandlerAfterThreadSwitch) {
  bool ran = false;
  runtimes_[0]->RegisterCodeBrick("t", 100, [&](SmContext& ctx, SmartMessage) {
    EXPECT_EQ(ctx.node, nodes_[0]);
    ran = true;
  });
  const SimTime start = sim_.Now();
  ASSERT_TRUE(runtimes_[0]->Inject(MakeSm("t")).ok());
  sim_.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim_.Now() - start,
            phones_[0]->profile().wifi_thread_switch);
}

TEST_F(SmRuntimeTest, MissingBrickKillsSmSilently) {
  ASSERT_TRUE(runtimes_[0]->Inject(MakeSm("unknown")).ok());
  sim_.Run();
  EXPECT_EQ(runtimes_[0]->executed(), 1u);
}

TEST_F(SmRuntimeTest, AdmissionManagerRejectsWhenFull) {
  SmRuntimeConfig cfg;
  cfg.max_resident = 2;
  auto node = medium_.Register("tiny", {0, 80});
  phone::SmartPhone ph{sim_, phone::Nokia9500(), "tiny"};
  net::WifiController wifi{sim_, wifi_bus_, ph, node};
  wifi.SetEnabled(true);
  SmRuntime rt{sim_, sm_bus_, wifi, cfg};
  rt.RegisterCodeBrick("t", 10, [](SmContext&, SmartMessage) {});
  EXPECT_TRUE(rt.Inject(MakeSm("t")).ok());
  EXPECT_TRUE(rt.Inject(MakeSm("t")).ok());
  EXPECT_EQ(rt.Inject(MakeSm("t")).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rt.rejected(), 1u);
  sim_.Run();
  // After execution, capacity frees up.
  EXPECT_TRUE(rt.Inject(MakeSm("t")).ok());
}

TEST_F(SmRuntimeTest, MigrationDeliversToNeighbor) {
  int executed_at = -1;
  for (int i = 0; i < kNodes; ++i) {
    runtimes_[i]->RegisterCodeBrick(
        "probe", 400, [&, i](SmContext&, SmartMessage) { executed_at = i; });
  }
  SmartMessage sm = MakeSm("probe");
  runtimes_[0]->Migrate(std::move(sm), nodes_[1]);
  sim_.Run();
  EXPECT_EQ(executed_at, 1);
}

TEST_F(SmRuntimeTest, MigrationIncrementsHopCountAndVisited) {
  SmartMessage seen;
  for (int i = 0; i < kNodes; ++i) {
    runtimes_[i]->RegisterCodeBrick(
        "probe", 400, [&](SmContext&, SmartMessage sm) { seen = sm; });
  }
  runtimes_[0]->Migrate(MakeSm("probe"), nodes_[1]);
  sim_.Run();
  EXPECT_EQ(seen.hop_count, 1);
  ASSERT_EQ(seen.visited.size(), 1u);
  EXPECT_EQ(seen.visited[0], nodes_[1]);
}

TEST_F(SmRuntimeTest, MigrationToNonNeighborDies) {
  for (int i = 0; i < kNodes; ++i) {
    runtimes_[i]->RegisterCodeBrick("probe", 400,
                                    [](SmContext&, SmartMessage) {});
  }
  runtimes_[0]->Migrate(MakeSm("probe"), nodes_[2]);  // 160 m away
  sim_.Run();
  EXPECT_EQ(runtimes_[2]->executed(), 0u);
}

TEST_F(SmRuntimeTest, BreakupAccountsAllFourComponents) {
  SmartMessage seen;
  for (int i = 0; i < kNodes; ++i) {
    runtimes_[i]->RegisterCodeBrick(
        "probe", 600, [&](SmContext&, SmartMessage sm) { seen = sm; });
  }
  runtimes_[0]->Migrate(MakeSm("probe"), nodes_[1]);
  sim_.Run();
  EXPECT_GT(seen.breakup.connect, SimDuration::zero());
  EXPECT_GT(seen.breakup.serialize, SimDuration::zero());
  EXPECT_GT(seen.breakup.thread_switch, SimDuration::zero());
  EXPECT_GT(seen.breakup.transfer, SimDuration::zero());
  // Transfer dominates (51-54% in the paper) and connect is smallest.
  EXPECT_GT(seen.breakup.transfer, seen.breakup.serialize);
  EXPECT_LT(seen.breakup.connect, seen.breakup.thread_switch);
}

TEST_F(SmRuntimeTest, CodeCacheSkipsCodeBytesOnSecondMigration) {
  int count = 0;
  for (int i = 0; i < kNodes; ++i) {
    runtimes_[i]->RegisterCodeBrick("probe", 5000,
                                    [&](SmContext&, SmartMessage) { ++count; });
  }
  EXPECT_FALSE(runtimes_[1]->CodeCached("probe"));
  runtimes_[0]->Migrate(MakeSm("probe"), nodes_[1]);
  sim_.Run();
  EXPECT_TRUE(runtimes_[1]->CodeCached("probe"));

  // Second migration of the same brick is faster: code stays home.
  const SimTime start = sim_.Now();
  runtimes_[0]->Migrate(MakeSm("probe"), nodes_[1]);
  sim_.Run();
  const SimDuration second = sim_.Now() - start;
  // 5000 code bytes at ~147 us/byte serialization + ~0.93 s air time
  // would add ~1.6 s; the cached run must be well under that.
  EXPECT_LT(ToSeconds(second), 1.0);
  EXPECT_EQ(count, 2);
}

TEST_F(SmRuntimeTest, CodeCacheEvictsLru) {
  SmRuntimeConfig cfg;
  cfg.code_cache_capacity = 2;
  auto node = medium_.Register("cachey", {0, 80});
  phone::SmartPhone ph{sim_, phone::Nokia9500(), "cachey"};
  net::WifiController wifi{sim_, wifi_bus_, ph, node};
  wifi.SetEnabled(true);
  SmRuntime rt{sim_, sm_bus_, wifi, cfg};
  for (const char* b : {"a", "b", "c"}) {
    rt.RegisterCodeBrick(b, 10, [](SmContext&, SmartMessage) {});
  }
  SmartMessage sm = MakeSm("a");
  (void)rt.Inject(sm);
  sm.code_brick = "b";
  (void)rt.Inject(sm);
  sm.code_brick = "c";
  (void)rt.Inject(sm);
  EXPECT_FALSE(rt.CodeCached("a"));  // evicted
  EXPECT_TRUE(rt.CodeCached("b"));
  EXPECT_TRUE(rt.CodeCached("c"));
  sim_.Run();
}

TEST_F(SmRuntimeTest, NextHopTowardTagFollowsShortestPath) {
  runtimes_[3]->tags().Upsert("cxt.temperature", "14");
  const auto hop = runtimes_[0]->NextHopTowardTag("cxt.temperature");
  ASSERT_TRUE(hop.ok());
  EXPECT_EQ(*hop, nodes_[1]);
}

TEST_F(SmRuntimeTest, NextHopHonorsExclusion) {
  runtimes_[3]->tags().Upsert("cxt.t", "x");
  std::unordered_set<net::NodeId> exclude{nodes_[1]};
  // With B excluded the line topology has no path.
  EXPECT_FALSE(runtimes_[0]->NextHopTowardTag("cxt.t", exclude).ok());
}

TEST_F(SmRuntimeTest, NonParticipatingNodesDoNotRoute) {
  runtimes_[3]->tags().Upsert("cxt.t", "x");
  runtimes_[1]->SetParticipating(false);
  EXPECT_FALSE(runtimes_[0]->NextHopTowardTag("cxt.t").ok());
}

TEST_F(SmRuntimeTest, RoutingSeesTagSpaceChangesAtTheNextBfs) {
  runtimes_[3]->tags().Upsert("cxt.t", "x", 10s);
  ASSERT_EQ(runtimes_[0]->NextHopTowardTag("cxt.t").value(), nodes_[1]);
  // B drops the participation tag straight through its tag space.
  ASSERT_TRUE(runtimes_[1]->tags().Delete("contory").ok());
  EXPECT_FALSE(runtimes_[0]->NextHopTowardTag("cxt.t").ok());
  EXPECT_TRUE(runtimes_[0]->NodesWithTag("cxt.t").empty());
  // Re-exposing it restores the route.
  runtimes_[1]->tags().Upsert("contory", "1");
  EXPECT_EQ(runtimes_[0]->NextHopTowardTag("cxt.t").value(), nodes_[1]);
  EXPECT_EQ(runtimes_[0]->HopDistanceToTag("cxt.t").value(), 3);
  // The target tag expires: nothing to route toward any more.
  sim_.RunFor(10s);
  EXPECT_FALSE(runtimes_[0]->NextHopTowardTag("cxt.t").ok());
  EXPECT_FALSE(runtimes_[0]->HopDistanceToTag("cxt.t").ok());
  EXPECT_TRUE(runtimes_[0]->NodesWithTag("cxt.t").empty());
}

TEST_F(SmRuntimeTest, HopDistanceToTag) {
  runtimes_[2]->tags().Upsert("cxt.t", "x");
  EXPECT_EQ(runtimes_[0]->HopDistanceToTag("cxt.t").value(), 2);
  EXPECT_EQ(runtimes_[2]->HopDistanceToTag("cxt.t").value(), 0);
  EXPECT_FALSE(runtimes_[0]->HopDistanceToTag("absent").ok());
}

TEST_F(SmRuntimeTest, NodesWithTagRespectsMaxHops) {
  runtimes_[1]->tags().Upsert("cxt.t", "x");
  runtimes_[3]->tags().Upsert("cxt.t", "y");
  const auto all = runtimes_[0]->NodesWithTag("cxt.t");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, nodes_[1]);
  EXPECT_EQ(all[0].second, 1);
  EXPECT_EQ(all[1].second, 3);
  const auto near = runtimes_[0]->NodesWithTag("cxt.t", 2);
  ASSERT_EQ(near.size(), 1u);
  EXPECT_EQ(near[0].first, nodes_[1]);
}

TEST_F(SmRuntimeTest, ReplyHandlerDeliversOnce) {
  int replies = 0;
  runtimes_[0]->RegisterReplyHandler("sm-7", [&](SmartMessage) { ++replies; });
  SmartMessage sm;
  sm.id = "sm-7";
  EXPECT_TRUE(runtimes_[0]->DeliverReply(sm));
  EXPECT_FALSE(runtimes_[0]->DeliverReply(sm));  // one-shot
  EXPECT_EQ(replies, 1);
}

TEST_F(SmRuntimeTest, UnregisterReplyHandler) {
  runtimes_[0]->RegisterReplyHandler("sm-8", [](SmartMessage) { FAIL(); });
  runtimes_[0]->UnregisterReplyHandler("sm-8");
  SmartMessage sm;
  sm.id = "sm-8";
  EXPECT_FALSE(runtimes_[0]->DeliverReply(sm));
}

TEST_F(SmRuntimeTest, EndToEndFinderStyleRoundTrip) {
  // A miniature SM-FINDER: migrate toward the data tag at node 2, read it,
  // then route home toward a per-query "home" tag exposed at the origin —
  // the same pattern the Contory AdHocCxtProvider uses.
  runtimes_[2]->tags().Upsert("cxt.temperature", "14C");
  SmartMessage sm = MakeSm("finder");
  const std::string home_tag = "home." + sm.id;
  runtimes_[0]->tags().Upsert(home_tag, "1");
  for (int i = 0; i < kNodes; ++i) {
    runtimes_[i]->RegisterCodeBrick(
        "finder", 800, [home_tag](SmContext& ctx, SmartMessage m) {
          if (!m.data.empty()) {
            // Homeward leg.
            if (ctx.node == m.origin) {
              ctx.runtime.DeliverReply(std::move(m));
              return;
            }
            const auto next = ctx.runtime.NextHopTowardTag(home_tag);
            if (next.ok()) ctx.runtime.Migrate(std::move(m), *next);
            return;
          }
          const auto tag = ctx.runtime.tags().Read("cxt.temperature");
          if (tag.ok()) {
            for (const char c : tag->value) {
              m.data.push_back(static_cast<std::byte>(c));
            }
            if (ctx.node == m.origin) {
              ctx.runtime.DeliverReply(std::move(m));
              return;
            }
            const auto next = ctx.runtime.NextHopTowardTag(home_tag);
            if (next.ok()) ctx.runtime.Migrate(std::move(m), *next);
            return;
          }
          const auto next = ctx.runtime.NextHopTowardTag("cxt.temperature");
          if (next.ok()) ctx.runtime.Migrate(std::move(m), *next);
        });
  }
  std::string result;
  SmartMessage reply_probe;
  runtimes_[0]->RegisterReplyHandler(sm.id, [&](SmartMessage reply) {
    reply_probe = reply;
    for (const auto b : reply.data) result.push_back(static_cast<char>(b));
  });
  const SimTime start = sim_.Now();
  ASSERT_TRUE(runtimes_[0]->Inject(std::move(sm)).ok());
  sim_.Run();
  EXPECT_EQ(result, "14C");
  // 0->1->2 out, 2->1->0 home: 4 migrations.
  EXPECT_EQ(reply_probe.hop_count, 4);
  // Two-hop round trip took on the order of the paper's 1.4 s.
  const double secs = ToSeconds(sim_.Now() - start);
  EXPECT_GT(secs, 0.7);
  EXPECT_LT(secs, 3.0);
}

}  // namespace
}  // namespace contory::sm
