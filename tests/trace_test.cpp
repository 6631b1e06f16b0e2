// Hop-level distributed tracing tests: the SM-FINDER hop chain on a
// deterministic line topology. Every migration of a traced SM opens one
// "hop:<n>" span under the issuer's root, closed at the receiver ("ok"),
// on the loss path ("lost: ..."), or never opened at all when the next
// hop is unreachable (noted on the root instead) — so the finished span
// tree reconstructs exactly where a finder's hops went. Also covered
// here: the opt-in next-hop route cache counters, the tracer's open-span
// slot table holding at its concurrent peak under 100k-span churn, and
// the Chrome trace-event export that renders all of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/model/cxt_item.hpp"
#include "core/providers/adhoc_provider.hpp"
#include "core/query/parser.hpp"
#include "core/references/wifi_reference.hpp"
#include "net/medium.hpp"
#include "net/wifi.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/observability.hpp"
#include "phone/phone_profiles.hpp"
#include "phone/smart_phone.hpp"
#include "sim/simulation.hpp"
#include "sm/sm_runtime.hpp"

namespace contory {
namespace {

using namespace std::chrono_literals;

/// A line of four Contory nodes 80 m apart (100 m WiFi range), each with
/// the finder brick and its home tag — the same per-node setup
/// CityScenario bulk-builds, small enough to predict every hop.
class TraceTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 4;

  void SetUp() override {
    obs::Observability::ResetForTest();
    // Everything below Build() exercises COBS-gated instrumentation in
    // SmRuntime/WifiController; a CONTORY_OBS=OFF compile has nothing to
    // observe. (The local-tracer churn test carries no such gate.)
    if (!COBS_ON()) GTEST_SKIP() << "observability compiled out/disabled";
  }
  void TearDown() override { obs::Observability::ResetForTest(); }

  void Build() {
    for (int i = 0; i < kNodes; ++i) {
      phones_.push_back(std::make_unique<phone::SmartPhone>(
          sim_, phone::Nokia9500(), "trace-" + std::to_string(i)));
      nodes_.push_back(
          medium_.Register("trace-" + std::to_string(i), {i * 80.0, 0}));
      wifis_.push_back(std::make_unique<net::WifiController>(
          sim_, wifi_bus_, *phones_.back(), nodes_.back()));
      wifis_.back()->SetEnabled(true);
      runtimes_.push_back(std::make_unique<sm::SmRuntime>(
          sim_, sm_bus_, *wifis_.back(), sm::SmRuntimeConfig{}));
      runtimes_.back()->SetParticipating(true);
      core::RegisterFinderBrick(*runtimes_.back());
      runtimes_.back()->tags().Upsert(core::HomeTagName(nodes_.back()), "1");
    }
  }

  /// Publishes a temperature item on node `i`, CityScenario-style.
  void PublishItem(int i) {
    CxtItem item;
    item.id = "trace-item-" + std::to_string(nodes_[i]);
    item.type = "temperature";
    item.value = 21.0;
    item.timestamp = sim_.Now();
    item.source = {SourceKind::kAdHocNetwork,
                   "node:" + std::to_string(nodes_[i])};
    item.metadata.accuracy = 0.5;
    runtimes_[i]->tags().Upsert(core::CxtTagName("temperature"),
                                core::CxtTagValue(item));
  }

  /// Launches a traced SM-FINDER from node 0 (hop budget 10) and returns
  /// the root span handle; the reply (if any) lands in `reply`.
  std::uint64_t LaunchTracedFinder(const std::string& query_id,
                                   std::optional<sm::SmartMessage>& reply) {
    auto query = query::ParseQuery(
        "SELECT temperature FROM adHocNetwork(all,10) DURATION 1 hour");
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    query->id = query_id;
    core::FinderState state;
    state.query = *query;
    state.remaining_nodes = -1;

    sm::SmartMessage sm;
    sm.id = sim_.ids().NextId("trace-finder");
    sm.code_brick = core::kFinderBrick;
    sm.origin = nodes_[0];
    sm.target_tag = core::CxtTagName("temperature");
    sm.max_hops = 10;
    sm.data = state.Encode();
    const std::uint64_t root =
        obs::Observability::tracer().BeginQuery(query_id, sim_.Now());
    sm.trace_parent = root;
    runtimes_[0]->RegisterReplyHandler(
        sm.id, [&reply](sm::SmartMessage r) { reply = std::move(r); });
    EXPECT_TRUE(runtimes_[0]->Inject(std::move(sm)).ok());
    return root;
  }

  sim::Simulation sim_{7};
  net::Medium medium_;
  net::WifiBus wifi_bus_{medium_};
  sm::SmBus sm_bus_;
  std::vector<std::unique_ptr<phone::SmartPhone>> phones_;
  std::vector<net::NodeId> nodes_;
  std::vector<std::unique_ptr<net::WifiController>> wifis_;
  std::vector<std::unique_ptr<sm::SmRuntime>> runtimes_;
};

TEST_F(TraceTest, HopChainMatchesReplyHopCount) {
  Build();
  PublishItem(3);  // provider at the far end: 3 hops out, 3 home

  std::optional<sm::SmartMessage> reply;
  const std::uint64_t root = LaunchTracedFinder("q-hops", reply);
  sim_.Run();

  ASSERT_TRUE(reply.has_value());
  ASSERT_GE(reply->hop_count, 2);
  auto& tracer = obs::Observability::tracer();
  ASSERT_NE(tracer.EndQuery(root, sim_.Now(), "ok"), nullptr);

  // Exactly one hop span per hop the reply reports, numbered 1..N, all
  // under the root, each closed "ok" at its receiver with the sender's
  // radio energy metered through its own probe.
  std::vector<obs::Span> hops;
  for (const obs::Span& s : tracer.FinishedFor("q-hops")) {
    if (s.name.rfind("hop:", 0) != 0) continue;
    EXPECT_EQ(s.parent, root);
    EXPECT_EQ(s.status, "ok");
    EXPECT_GE(s.energy_joules(), 0.0);
    EXPECT_GT(s.duration(), SimDuration::zero());
    ASSERT_FALSE(s.notes.empty());
    EXPECT_EQ(s.notes[0].rfind("from:", 0), 0u);
    hops.push_back(s);
  }
  ASSERT_EQ(hops.size(), static_cast<std::size_t>(reply->hop_count));
  std::vector<std::string> names;
  for (const obs::Span& s : hops) names.push_back(s.name);
  std::sort(names.begin(), names.end());
  for (int n = 1; n <= reply->hop_count; ++n) {
    EXPECT_NE(std::find(names.begin(), names.end(),
                        "hop:" + std::to_string(n)),
              names.end());
  }

  // Nothing in flight, nothing stranded in the side table.
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(tracer.double_closes(), 0u);
  EXPECT_EQ(sm_bus_.pending_traces(), 0u);
}

TEST_F(TraceTest, UnreachableNextHopNotesRootAndOpensNoHopSpan) {
  Build();
  auto& tracer = obs::Observability::tracer();
  const std::uint64_t root = tracer.BeginQuery("q-dead", sim_.Now());

  sm::SmartMessage sm;
  sm.id = sim_.ids().NextId("trace-dead");
  sm.code_brick = core::kFinderBrick;
  sm.origin = nodes_[0];
  sm.trace_parent = root;
  runtimes_[0]->Migrate(std::move(sm), nodes_[2]);  // 160 m: not a neighbor
  sim_.Run();

  const obs::Span* open_root = tracer.FindOpen(root);
  ASSERT_NE(open_root, nullptr);
  ASSERT_EQ(open_root->notes.size(), 1u);
  EXPECT_EQ(open_root->notes[0],
            "sm-dead:unreachable@" + std::to_string(nodes_[0]));
  EXPECT_EQ(tracer.spans_started(), 1u);  // the root; no hop span
  ASSERT_NE(tracer.EndQuery(root, sim_.Now(), "dead"), nullptr);
}

TEST_F(TraceTest, LostFrameClosesHopSpanWithLossStatus) {
  Build();
  auto& tracer = obs::Observability::tracer();
  const std::uint64_t root = tracer.BeginQuery("q-lost", sim_.Now());

  sm::SmartMessage sm;
  sm.id = sim_.ids().NextId("trace-lost");
  sm.code_brick = core::kFinderBrick;
  sm.origin = nodes_[0];
  sm.trace_parent = root;
  runtimes_[0]->Migrate(std::move(sm), nodes_[1]);
  // The receiver's radio dies while the frame is in flight: the done
  // callback reports the loss and the in-flight hop span must close.
  wifis_[1]->SetEnabled(false);
  sim_.Run();

  EXPECT_EQ(tracer.open_count(), 1u);  // only the root survives
  EXPECT_EQ(sm_bus_.pending_traces(), 0u);
  bool saw_lost_hop = false;
  for (const obs::Span& s : tracer.FinishedFor("q-lost")) {
    if (s.name != "hop:1") continue;
    saw_lost_hop = true;
    EXPECT_EQ(s.parent, root);
    EXPECT_EQ(s.status.rfind("lost: ", 0), 0u) << s.status;
  }
  EXPECT_TRUE(saw_lost_hop);
  ASSERT_NE(tracer.EndQuery(root, sim_.Now(), "timeout"), nullptr);
}

// Plain TEST: a local tracer needs no topology and no COBS gate, so this
// also runs in the CONTORY_OBS=OFF compile.
TEST(TracerChurnTest, SlotTableHoldsConcurrentPeakUnderChurn) {
  // 100k short-lived stage spans under one immortal root: every stage
  // reopens the slot the previous one freed, so the table stays at the
  // two concurrently open spans however many have been started.
  obs::QueryTracer tracer;
  const std::uint64_t root = tracer.BeginQuery("q-churn", kSimEpoch);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t stage =
        tracer.BeginStage(root, "provision", "adHocNetwork", kSimEpoch);
    ASSERT_NE(stage, 0u);
    ASSERT_NE(tracer.EndStage(stage, kSimEpoch + 1s, "ok"), nullptr);
    ASSERT_EQ(tracer.slot_count(), 2u);
  }
  EXPECT_EQ(tracer.open_count(), 1u);

  ASSERT_NE(tracer.EndQuery(root, kSimEpoch + 2s, "DONE"), nullptr);
  EXPECT_EQ(tracer.slot_count(), 2u);
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(tracer.double_closes(), 0u);
  // The finished deque stayed bounded and counted what it shed.
  EXPECT_EQ(tracer.finished().size(), tracer.capacity());
  EXPECT_EQ(tracer.spans_dropped(), 100'001u - tracer.capacity());
}

TEST_F(TraceTest, ChromeTraceExportRendersSpansAndCounters) {
  Build();
  PublishItem(3);
  std::optional<sm::SmartMessage> reply;
  const std::uint64_t root = LaunchTracedFinder("q-export", reply);
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  obs::Observability::tracer().EndQuery(root, sim_.Now(), "ok");

  obs::RecorderConfig rec;
  rec.capacity = 8;
  rec.prefixes = {"radio_"};
  obs::Observability::recorder().Configure(std::move(rec));
  obs::Observability::recorder().Sample(sim_.Now());

  const std::string json = obs::ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"q-export\""), std::string::npos);
  EXPECT_NE(json.find("\"hop:1\""), std::string::npos);
  // Hop spans ride their root's track: its id is every hop's tid.
  EXPECT_NE(json.find("\"tid\": " + std::to_string(root)),
            std::string::npos);
  // Recorder columns render as counter tracks under the spans.
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("radio_tx_frames_total"), std::string::npos);

  const std::string path = ::testing::TempDir() + "trace_test_export.json";
  ASSERT_TRUE(obs::ExportChromeTrace(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_GT(std::ftell(f), 0L);
  std::fclose(f);
}

}  // namespace
}  // namespace contory
