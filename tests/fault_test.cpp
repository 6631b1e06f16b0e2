// Chaos harness tests: the FaultPlan schedule language, the seeded retry
// policy, scripted fault windows on every substrate, the degraded-mode
// opt-out, and byte-identical determinism of whole injected timelines.
// Whole degrade/retry/route-chaos timelines are .scn cases in
// tests/scenarios/cases.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/retry.hpp"
#include "core/contory.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "testbed/testbed.hpp"

namespace contory {
namespace {

using namespace std::chrono_literals;
using testbed::NewQuery;

// --- FaultPlan schedule language ------------------------------------------

TEST(FaultPlanTest, ParsesScheduleDurations) {
  const auto ms = fault::ParseScheduleDuration("250ms");
  ASSERT_TRUE(ms.ok());
  EXPECT_EQ(*ms, 250ms);

  const auto sec = fault::ParseScheduleDuration("13s");
  ASSERT_TRUE(sec.ok());
  EXPECT_EQ(*sec, 13s);

  const auto mins = fault::ParseScheduleDuration("2.5min");
  ASSERT_TRUE(mins.ok());
  EXPECT_EQ(*mins, 150s);

  const auto us = fault::ParseScheduleDuration("90us");
  ASSERT_TRUE(us.ok());
  EXPECT_EQ(us->count(), 90);

  EXPECT_FALSE(fault::ParseScheduleDuration("5").ok());     // no unit
  EXPECT_FALSE(fault::ParseScheduleDuration("ms").ok());    // no number
  EXPECT_FALSE(fault::ParseScheduleDuration("5parsec").ok());
  EXPECT_FALSE(fault::ParseScheduleDuration("-3s").ok());
}

TEST(FaultPlanTest, ParsesScheduleLines) {
  const auto plan = fault::ParseFaultPlan(
      "# Fig. 5 chaos variant\n"
      "\n"
      "at=155s gps.off gps-1 for=145s\n"
      "at=160s bt.loss phone-A rate=0.3 for=2min  # interference\n"
      "at=240s node.leave boat-7\n");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->size(), 3u);

  const auto& a = plan->actions();
  EXPECT_EQ(a[0].at, kSimEpoch + 155s);
  EXPECT_EQ(a[0].kind, fault::FaultKind::kGpsOff);
  EXPECT_EQ(a[0].target, "gps-1");
  EXPECT_EQ(a[0].duration, 145s);

  EXPECT_EQ(a[1].kind, fault::FaultKind::kBtLoss);
  EXPECT_EQ(a[1].target, "phone-A");
  EXPECT_DOUBLE_EQ(a[1].param, 0.3);
  EXPECT_EQ(a[1].duration, 120s);

  EXPECT_EQ(a[2].kind, fault::FaultKind::kNodeLeave);
  EXPECT_EQ(a[2].duration, SimDuration::zero());
}

TEST(FaultPlanTest, RoundTripsThroughText) {
  fault::FaultPlan plan;
  plan.Window(kSimEpoch + 10s, fault::FaultKind::kWifiLatency, "phone-B",
              30s, 250.0);
  plan.Window(kSimEpoch + 60s, fault::FaultKind::kBrokerOutage,
              "infra.dynamos.fi", 90s);
  plan.Add({kSimEpoch + 200s, fault::FaultKind::kCellOff, "phone-B",
            SimDuration::zero(), 0.0});

  const std::string text = plan.ToText();
  const auto reparsed = fault::ParseFaultPlan(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->ToText(), text);
  EXPECT_EQ(reparsed->size(), plan.size());
}

TEST(FaultPlanTest, RejectsMalformedLines) {
  // Unknown kind, with the line number in the diagnostic.
  const auto bad_kind = fault::ParseFaultPlan("at=1s gps.explode gps-1\n");
  ASSERT_FALSE(bad_kind.ok());
  EXPECT_NE(bad_kind.status().message().find("line 1"), std::string::npos);

  // rate= outside [0, 1].
  EXPECT_FALSE(
      fault::ParseFaultPlan("at=1s bt.loss phone rate=1.5\n").ok());
  // A loss kind without its rate= argument.
  EXPECT_FALSE(fault::ParseFaultPlan("at=1s bt.loss phone\n").ok());
  // Unknown trailing argument.
  EXPECT_FALSE(
      fault::ParseFaultPlan("at=1s gps.off gps-1 until=9s\n").ok());
  // Missing at= prefix.
  EXPECT_FALSE(fault::ParseFaultPlan("5s gps.off gps-1\n").ok());
}

// --- RetryPolicy -----------------------------------------------------------

TEST(RetryPolicyTest, ClassifiesTransience) {
  EXPECT_TRUE(IsTransient(Unavailable("coverage hole")));
  EXPECT_TRUE(IsTransient(DeadlineExceeded("request timed out")));
  EXPECT_FALSE(IsTransient(NotFound("no such source")));
  EXPECT_FALSE(IsTransient(Internal("bug")));
  EXPECT_FALSE(IsTransient(Status::Ok()));
}

TEST(RetryPolicyTest, BackoffSequenceIsDeterministicPerSeed) {
  RetryPolicyConfig cfg;
  cfg.max_attempts = 6;
  cfg.total_deadline = SimDuration::zero();  // unbounded for this test

  const auto collect = [&](std::uint64_t seed) {
    RetryState state{cfg, Rng{seed}};
    state.Begin(kSimEpoch);
    std::vector<std::int64_t> backoffs;
    SimTime now = kSimEpoch;
    for (;;) {
      const auto b = state.NextBackoff(now);
      if (!b.ok()) break;
      backoffs.push_back(b->count());
      now += *b;
    }
    return backoffs;
  };

  const auto a = collect(42);
  const auto b = collect(42);
  EXPECT_EQ(a, b);  // same seed, byte-identical schedule
  ASSERT_EQ(a.size(), 5u);  // max_attempts - 1 retries

  // Jittered exponential growth, capped at max_backoff * (1 + jitter).
  const double cap = static_cast<double>(cfg.max_backoff.count()) *
                     (1.0 + cfg.jitter);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GT(a[i], 0);
    EXPECT_LE(static_cast<double>(a[i]), cap);
  }
  EXPECT_GT(a.back(), a.front());  // it does actually grow
}

TEST(RetryPolicyTest, BudgetExhaustionAndReset) {
  RetryPolicyConfig cfg;
  cfg.max_attempts = 3;
  cfg.jitter = 0.0;
  cfg.total_deadline = SimDuration::zero();
  RetryState state{cfg, Rng{7}};

  state.Begin(kSimEpoch);
  EXPECT_TRUE(state.NextBackoff(kSimEpoch + 1s).ok());
  EXPECT_TRUE(state.NextBackoff(kSimEpoch + 2s).ok());
  const auto spent = state.NextBackoff(kSimEpoch + 3s);
  ASSERT_FALSE(spent.ok());
  EXPECT_EQ(spent.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(state.attempts(), 3);
  EXPECT_EQ(state.retries(), 2);

  // A success resets the budget for the next incident.
  state.Reset();
  state.Begin(kSimEpoch + 10s);
  EXPECT_TRUE(state.NextBackoff(kSimEpoch + 11s).ok());
}

TEST(RetryPolicyTest, TotalDeadlineStopsRetries) {
  RetryPolicyConfig cfg;
  cfg.max_attempts = 100;
  cfg.jitter = 0.0;
  cfg.total_deadline = 5s;
  RetryState state{cfg, Rng{7}};

  state.Begin(kSimEpoch);
  EXPECT_TRUE(state.NextBackoff(kSimEpoch + 1s).ok());
  // Far past the deadline epoch: no further retries are scheduled.
  const auto late = state.NextBackoff(kSimEpoch + 6s);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
}

// --- FaultInjector ---------------------------------------------------------

TEST(FaultInjectorTest, ValidatesTargetsEagerly) {
  testbed::World world{7};
  const auto status =
      world.injector().ExecuteText("at=1s gps.off no-such-gps\n");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(world.injector().injected(), 0u);
  EXPECT_TRUE(world.injector().log().empty());
}

TEST(FaultInjectorTest, WindowedFaultAppliesAndReverts) {
  testbed::World world{7};
  testbed::DeviceOptions opts;
  opts.with_contory = false;
  auto& device = world.AddDevice(opts);

  ASSERT_TRUE(
      world.injector().ExecuteText("at=1s bt.fail phone for=2s\n").ok());
  world.RunFor(2s);
  EXPECT_TRUE(device.bt()->failed());
  world.RunFor(2s);
  EXPECT_FALSE(device.bt()->failed());

  // One counted transition each for the fault and its revert.
  EXPECT_EQ(world.injector().injected(), 2u);
  ASSERT_EQ(world.injector().log().size(), 2u);
  const std::string log = world.injector().LogAsText();
  EXPECT_NE(log.find("bt.fail phone on"), std::string::npos);
  EXPECT_NE(log.find("bt.fail phone off"), std::string::npos);
}

TEST(FaultInjectorTest, NodeLeaveUnregistersFromMedium) {
  testbed::World world{7};
  testbed::DeviceOptions opts;
  opts.name = "boat-7";
  opts.with_contory = false;
  auto& device = world.AddDevice(opts);
  const net::NodeId node = device.node();
  ASSERT_TRUE(world.medium().Exists(node));

  ASSERT_TRUE(world.injector().ExecuteText("at=1s node.leave boat-7\n").ok());
  world.RunFor(2s);
  EXPECT_FALSE(world.medium().Exists(node));
  EXPECT_FALSE(world.medium().GetPosition(node).ok());
}

// --- Medium tie-break (deterministic range queries) ------------------------

TEST(MediumTest, NodesWithinBreaksDistanceTiesByNodeId) {
  net::Medium medium;
  const auto center = medium.Register("center", {0, 0});
  // Three equidistant peers (10 m) plus one closer one, registered in an
  // order that does not match the expected output by accident.
  const auto east = medium.Register("east", {10, 0});
  const auto north = medium.Register("north", {0, 10});
  const auto west = medium.Register("west", {-10, 0});
  const auto near = medium.Register("near", {0, 5});

  const auto hits = medium.NodesWithin(center, 20.0);
  // Nearest first; the exact 10 m tie resolves by ascending NodeId.
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0], near);
  EXPECT_EQ(hits[1], east);
  EXPECT_EQ(hits[2], north);
  EXPECT_EQ(hits[3], west);
}

// --- ResourcesMonitor ------------------------------------------------------

class TestReference : public core::Reference {
 public:
  explicit TestReference(const char* name) : name_(name) {}
  [[nodiscard]] const char* name() const noexcept override { return name_; }
  [[nodiscard]] bool Available() const override { return true; }
  void Fire(const std::string& reason) { NotifyFailure(reason); }

 private:
  const char* name_;
};

TEST(ResourcesMonitorTest, LookupRejectsUnknownVariables) {
  sim::Simulation sim{1};
  phone::SmartPhone phone{sim, phone::Nokia6630(), "phone"};
  core::ResourcesMonitor monitor{sim, phone};

  const auto battery = monitor.Lookup("batteryPercent");
  ASSERT_TRUE(battery.ok());
  EXPECT_GT(*battery->AsNumber(), 0.0);

  EXPECT_FALSE(monitor.Lookup("noSuchVariable").ok());
  EXPECT_FALSE(monitor.Lookup("").ok());
}

TEST(ResourcesMonitorTest, CountsFailuresAcrossAttachedReferences) {
  sim::Simulation sim{1};
  phone::SmartPhone phone{sim, phone::Nokia6630(), "phone"};
  core::ResourcesMonitor monitor{sim, phone};

  std::vector<std::string> reported;
  monitor.SetFailureHandler(
      [&](const std::string& module, const std::string& reason) {
        reported.push_back(module + ": " + reason);
      });

  TestReference bt{"BTReference"};
  TestReference cell{"2G/3GReference"};
  monitor.Attach(bt);
  monitor.Attach(cell);
  EXPECT_EQ(monitor.failures_observed(), 0u);

  bt.Fire("inquiry aborted");
  bt.Fire("link supervision timeout");
  cell.Fire("coverage lost");
  EXPECT_EQ(monitor.failures_observed(), 3u);
  ASSERT_EQ(reported.size(), 3u);
  EXPECT_EQ(reported[0], "BTReference: inquiry aborted");
  EXPECT_EQ(reported[2], "2G/3GReference: coverage lost");
}

// --- Network-level fault shims ---------------------------------------------

class BtShimTest : public ::testing::Test {
 protected:
  BtShimTest()
      : sim_(42),
        bus_(medium_),
        node_a_(medium_.Register("a", {0, 0})),
        node_b_(medium_.Register("b", {5, 0})),
        phone_a_(sim_, phone::Nokia6630(), "a"),
        phone_b_(sim_, phone::Nokia6630(), "b"),
        bt_a_(sim_, bus_, phone_a_, node_a_),
        bt_b_(sim_, bus_, phone_b_, node_b_) {
    bt_a_.SetEnabled(true);
    bt_b_.SetEnabled(true);
    bt_a_.Connect(node_b_, [this](Result<net::BtLinkId> link) {
      ASSERT_TRUE(link.ok());
      link_ = *link;
    });
    sim_.RunFor(1s);
    EXPECT_NE(link_, 0u);
  }

  // Sends 40 bytes from a to b; returns the delivery status and whether
  // b's data handler saw the payload.
  std::pair<Status, bool> SendOnce() {
    bool arrived = false;
    bt_b_.SetDataHandler(
        [&](net::BtLinkId, net::NodeId, const std::vector<std::byte>&) {
          arrived = true;
        });
    Status delivered = Internal("never reported");
    bt_a_.Send(link_, std::vector<std::byte>(40),
               [&](Status s) { delivered = s; });
    sim_.RunFor(5s);
    return {delivered, arrived};
  }

  sim::Simulation sim_;
  net::Medium medium_;
  net::BluetoothBus bus_;
  net::NodeId node_a_;
  net::NodeId node_b_;
  phone::SmartPhone phone_a_;
  phone::SmartPhone phone_b_;
  net::BluetoothController bt_a_;
  net::BluetoothController bt_b_;
  net::BtLinkId link_ = 0;
};

TEST_F(BtShimTest, LossRateDropsPayloadsOnTheAir) {
  bt_a_.SetLossRate(1.0);
  const auto [lost_status, lost_arrived] = SendOnce();
  EXPECT_EQ(lost_status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(lost_arrived);
  EXPECT_TRUE(bt_a_.LinkAlive(link_));  // the link itself survives

  bt_a_.SetLossRate(0.0);
  const auto [ok_status, ok_arrived] = SendOnce();
  EXPECT_TRUE(ok_status.ok());
  EXPECT_TRUE(ok_arrived);
}

TEST_F(BtShimTest, ExtraLatencyDelaysDelivery) {
  SimTime arrival{};
  bt_b_.SetDataHandler(
      [&](net::BtLinkId, net::NodeId, const std::vector<std::byte>&) {
        arrival = sim_.Now();
      });

  const SimTime start = sim_.Now();
  bt_a_.Send(link_, std::vector<std::byte>(40));
  sim_.RunFor(5s);
  ASSERT_NE(arrival, SimTime{});
  const SimDuration baseline = arrival - start;

  bt_a_.SetExtraLatency(500ms);
  arrival = SimTime{};
  const SimTime start2 = sim_.Now();
  bt_a_.Send(link_, std::vector<std::byte>(40));
  sim_.RunFor(5s);
  ASSERT_NE(arrival, SimTime{});
  // Transfer times carry per-send jitter, so bound rather than equate:
  // the shim must add its 500 ms on top of a normal-looking transfer.
  EXPECT_GE(arrival - start2, 500ms);
  EXPECT_LT(arrival - start2, baseline + 600ms);
}

TEST(CellularFaultTest, MidTransferAbortReportsUnavailable) {
  testbed::World world{9};
  world.AddContextServer("infra.test");
  testbed::DeviceOptions opts;
  opts.with_bt = false;
  opts.with_contory = false;
  auto& device = world.AddDevice(opts);
  device.modem()->SetTransferAbortRate(1.0);

  Status outcome = Status::Ok();
  device.modem()->SendRequest(
      "infra.test", std::vector<std::byte>(64),
      [&](Result<std::vector<std::byte>> response) {
        outcome = response.status();
      });
  world.RunFor(30s);
  EXPECT_EQ(outcome.code(), StatusCode::kUnavailable);
  EXPECT_NE(outcome.message().find("mid-transfer"), std::string::npos);
}

TEST(SensorFaultTest, NanBurstPoisonsSamplesOnlyInsideWindow) {
  testbed::World world{11};
  testbed::DeviceOptions opts;
  opts.with_bt = false;
  opts.with_cellular = false;
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);

  ASSERT_TRUE(world.injector()
                  .ExecuteText("at=30s sensor.nan temperature@phone for=30s\n")
                  .ok());

  core::CollectingClient client;
  ASSERT_TRUE(device.contory()
                  .ProcessCxtQuery(
                      NewQuery(world.sim(),
                               "SELECT temperature FROM intSensor "
                               "DURATION 2 min EVERY 5 sec"),
                      client)
                  .ok());
  world.RunFor(2min);

  int nan_inside = 0;
  for (const CxtItem& item : client.items) {
    const auto number = item.value.AsNumber();
    ASSERT_TRUE(number.ok());
    // Margins around the window edges avoid same-instant event-order
    // ambiguity between the fault transition and a sample.
    if (item.timestamp > kSimEpoch + 31s && item.timestamp < kSimEpoch + 59s) {
      EXPECT_TRUE(std::isnan(*number))
          << "sample at " << FormatTime(item.timestamp);
      ++nan_inside;
    } else if (item.timestamp < kSimEpoch + 29s ||
               item.timestamp > kSimEpoch + 61s) {
      EXPECT_FALSE(std::isnan(*number))
          << "sample at " << FormatTime(item.timestamp);
    }
  }
  EXPECT_GE(nan_inside, 3);
  EXPECT_GT(client.items.size(), 15u);
}

// --- BTReference listener multiplexing --------------------------------------

/// A BTReference over b's radio; frames come from a over one link.
class BtListenerTest : public ::testing::Test {
 protected:
  BtListenerTest()
      : sim_(42),
        bus_(medium_),
        node_a_(medium_.Register("a", {0, 0})),
        node_b_(medium_.Register("b", {5, 0})),
        phone_a_(sim_, phone::Nokia6630(), "a"),
        phone_b_(sim_, phone::Nokia6630(), "b"),
        bt_a_(sim_, bus_, phone_a_, node_a_),
        bt_b_(sim_, bus_, phone_b_, node_b_),
        ref_(sim_, &bt_b_) {
    bt_a_.SetEnabled(true);
    bt_b_.SetEnabled(true);
    Connect();
  }

  void Connect() {
    link_ = 0;
    bt_a_.Connect(node_b_, [this](Result<net::BtLinkId> link) {
      ASSERT_TRUE(link.ok());
      link_ = *link;
    });
    sim_.RunFor(1s);
    ASSERT_NE(link_, 0u);
  }

  /// One frame from a; returns the listeners b's reference called.
  std::vector<std::string> Frame() {
    calls_.clear();
    bt_a_.Send(link_, std::vector<std::byte>(8));
    sim_.RunFor(5s);
    return calls_;
  }

  /// Drops the link from a's side; returns the listeners b's reference
  /// called, then reconnects.
  std::vector<std::string> Drop() {
    calls_.clear();
    bt_a_.SetEnabled(false);
    sim_.RunFor(1s);
    bt_a_.SetEnabled(true);
    auto called = calls_;
    Connect();
    return called;
  }

  core::BTReference::ListenerId AddData(const std::string& tag) {
    return ref_.AddDataListener(
        [this, tag](net::BtLinkId, net::NodeId, const std::vector<std::byte>&) {
          calls_.push_back(tag);
        });
  }

  sim::Simulation sim_;
  net::Medium medium_;
  net::BluetoothBus bus_;
  net::NodeId node_a_;
  net::NodeId node_b_;
  phone::SmartPhone phone_a_;
  phone::SmartPhone phone_b_;
  net::BluetoothController bt_a_;
  net::BluetoothController bt_b_;
  core::BTReference ref_;
  net::BtLinkId link_ = 0;
  std::vector<std::string> calls_;
};

using Calls = std::vector<std::string>;

TEST_F(BtListenerTest, DispatchFollowsRegistrationOrderAcrossAddsAndRemoves) {
  const auto l1 = AddData("l1");
  const auto l2 = AddData("l2");
  AddData("l3");
  ref_.RemoveDataListener(l2);
  AddData("l4");
  ref_.RemoveDataListener(l1);
  AddData("l5");
  EXPECT_EQ(Frame(), (Calls{"l3", "l4", "l5"}));

  // Removing an unknown, an already removed or the 0 id is a no-op.
  ref_.RemoveDataListener(l2);
  ref_.RemoveDataListener(l1);
  ref_.RemoveDataListener(0);
  ref_.RemoveDataListener(999);
  EXPECT_EQ(Frame(), (Calls{"l3", "l4", "l5"}));

  // Many removals compact the list; order still holds.
  std::vector<core::BTReference::ListenerId> churn;
  for (int i = 0; i < 20; ++i) churn.push_back(AddData("x"));
  for (const auto id : churn) ref_.RemoveDataListener(id);
  AddData("l6");
  EXPECT_EQ(Frame(), (Calls{"l3", "l4", "l5", "l6"}));
}

TEST_F(BtListenerTest, ListenerAddedDuringDispatchHearsTheNextFrame) {
  bool added = false;
  ref_.AddDataListener(
      [&](net::BtLinkId, net::NodeId, const std::vector<std::byte>&) {
        calls_.push_back("adder");
        if (!added) {
          added = true;
          AddData("late");
        }
      });
  AddData("after");
  EXPECT_EQ(Frame(), (Calls{"adder", "after"}));
  EXPECT_EQ(Frame(), (Calls{"adder", "after", "late"}));
}

TEST_F(BtListenerTest, ListenerRemovedDuringDispatchStillHearsThatFrame) {
  core::BTReference::ListenerId victim = 0;
  ref_.AddDataListener(
      [&](net::BtLinkId, net::NodeId, const std::vector<std::byte>&) {
        calls_.push_back("remover");
        ref_.RemoveDataListener(victim);
      });
  victim = AddData("victim");
  AddData("after");
  EXPECT_EQ(Frame(), (Calls{"remover", "victim", "after"}));
  EXPECT_EQ(Frame(), (Calls{"remover", "after"}));
}

TEST_F(BtListenerTest, DisconnectListenersFollowTheSameRules) {
  const auto add = [this](const std::string& tag) {
    return ref_.AddDisconnectListener(
        [this, tag](net::BtLinkId, net::NodeId) { calls_.push_back(tag); });
  };
  const auto d1 = add("d1");
  add("d2");
  core::BTReference::ListenerId d3 = 0;
  ref_.AddDisconnectListener([&](net::BtLinkId, net::NodeId) {
    calls_.push_back("remover");
    ref_.RemoveDisconnectListener(d3);
  });
  d3 = add("d3");
  ref_.RemoveDisconnectListener(d1);
  ref_.RemoveDisconnectListener(d1);
  ref_.RemoveDisconnectListener(0);
  EXPECT_EQ(Drop(), (Calls{"d2", "remover", "d3"}));
  EXPECT_EQ(Drop(), (Calls{"d2", "remover"}));
}

// --- Graceful degradation --------------------------------------------------
// The degrade-and-recover scenarios live in tests/scenarios/cases
// (fault_to_degraded_recovery, on_demand_stale_answer); this fixture keeps
// their world (a GPS-equipped phone-A) for the opt-out case.

class DegradedModeTest : public ::testing::Test {
 protected:
  DegradedModeTest() : world_(321) {
    testbed::DeviceOptions opts;
    opts.name = "phone-A";
    core::ContextFactoryConfig cfg;
    cfg.failover.recovery_probe_period = 15s;
    opts.factory_config = cfg;
    world_.AddDevice(opts);
    world_.AddGps("gps-1", {3, 0});
  }

  testbed::World world_;
};

TEST_F(DegradedModeTest, DisabledDegradedModeFailsHard) {
  core::ContextFactoryConfig cfg;
  cfg.failover.enable_degraded_mode = false;
  testbed::DeviceOptions opts;
  opts.name = "phone-C";
  opts.position = {100, 100};  // out of BT range of the fixture devices
  opts.factory_config = cfg;
  auto& device = world_.AddDevice(opts);

  core::CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world_.sim(), "SELECT location DURATION 5 min EVERY 5 sec"),
      client);
  ASSERT_TRUE(id.ok());
  world_.RunFor(2min);

  EXPECT_FALSE(client.errors.empty());
  EXPECT_EQ(device.contory().degraded_deliveries(), 0u);
  EXPECT_FALSE(device.contory().IsDegraded(*id));
}

// --- Determinism (acceptance: two same-seed runs are byte-identical) -------

std::string RunChaosScenario(std::uint64_t seed) {
  testbed::World world{seed};

  testbed::DeviceOptions phone_opts;
  phone_opts.name = "phone-A";
  core::ContextFactoryConfig cfg;
  cfg.failover.recovery_probe_period = 20s;
  phone_opts.factory_config = cfg;
  auto& device = world.AddDevice(phone_opts);
  world.AddGps("gps-1", {3, 0});

  testbed::DeviceOptions neighbor_opts;
  neighbor_opts.name = "phone-B";
  neighbor_opts.position = {6, 0};
  auto& neighbor = world.AddDevice(neighbor_opts);
  core::CollectingClient neighbor_client;
  EXPECT_TRUE(neighbor.contory().RegisterCxtServer(neighbor_client).ok());
  sim::PeriodicTask publish{world.sim(), 5s, [&] {
                              CxtItem item;
                              item.id = world.sim().ids().NextId("nb-item");
                              item.type = vocab::kLocation;
                              item.value =
                                  sensors::ToGeo(neighbor.position());
                              item.timestamp = world.Now();
                              item.metadata.accuracy = 30.0;
                              (void)neighbor.contory().PublishCxtItem(item,
                                                                      true);
                            }};

  EXPECT_TRUE(world.injector()
                  .ExecuteText(
                      "at=30s bt.loss phone-A rate=0.3 for=60s\n"
                      "at=45s gps.off gps-1 for=60s\n"
                      "at=100s bt.latency phone-A ms=250 for=30s\n")
                  .ok());

  core::CollectingClient client;
  EXPECT_TRUE(device.contory()
                  .ProcessCxtQuery(
                      NewQuery(world.sim(),
                               "SELECT location DURATION 5 min EVERY 5 sec"),
                      client)
                  .ok());
  world.RunFor(3min);

  // Everything observable, concatenated: the fault log, every delivered
  // item with its timestamp, every error, every recorded switch.
  std::string out = world.injector().LogAsText();
  for (const CxtItem& item : client.items) {
    out += FormatTime(item.timestamp) + ' ' + item.ToString() + '\n';
  }
  for (const auto& e : client.errors) out += e + '\n';
  for (const auto& s : device.contory().switch_log()) {
    out += FormatTime(s.at) + ' ' + s.query_id + '\n';
  }
  return out;
}

TEST(ChaosDeterminismTest, SameSeedSamePlanIsByteIdentical) {
  const std::string first = RunChaosScenario(777);
  const std::string second = RunChaosScenario(777);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace contory
