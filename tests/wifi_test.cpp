// Unit tests for the simulated WiFi ad hoc radio.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "net/medium.hpp"
#include "net/wifi.hpp"
#include "phone/phone_profiles.hpp"
#include "phone/smart_phone.hpp"
#include "sim/simulation.hpp"

namespace contory::net {
namespace {

using namespace std::chrono_literals;

class WifiTest : public ::testing::Test {
 protected:
  WifiTest() {
    // Three communicators in a line, as in the paper's 2-hop topology.
    node_a_ = medium_.Register("comm-A", {0, 0});
    node_b_ = medium_.Register("comm-B", {80, 0});
    node_c_ = medium_.Register("comm-C", {160, 0});
    wifi_a_ = std::make_unique<WifiController>(sim_, bus_, phone_a_, node_a_);
    wifi_b_ = std::make_unique<WifiController>(sim_, bus_, phone_b_, node_b_);
    wifi_c_ = std::make_unique<WifiController>(sim_, bus_, phone_c_, node_c_);
    wifi_a_->SetEnabled(true);
    wifi_b_->SetEnabled(true);
    wifi_c_->SetEnabled(true);
  }

  sim::Simulation sim_{11};
  Medium medium_;
  WifiBus bus_{medium_};
  phone::SmartPhone phone_a_{sim_, phone::Nokia9500(), "comm-A"};
  phone::SmartPhone phone_b_{sim_, phone::Nokia9500(), "comm-B"};
  phone::SmartPhone phone_c_{sim_, phone::Nokia9500(), "comm-C"};
  NodeId node_a_{}, node_b_{}, node_c_{};
  std::unique_ptr<WifiController> wifi_a_, wifi_b_, wifi_c_;
};

TEST_F(WifiTest, EnableAppliesConstantDrain) {
  // "having WiFi connected at full signal ... average power consumption of
  // 1190 mW" with backlight on: 1113.8 (wifi) + 76.20 (display ladder).
  phone_a_.SetBacklightOn(true);
  EXPECT_NEAR(phone_a_.energy().CurrentPowerMilliwatts(), 1190.0, 0.1);
  wifi_a_->SetEnabled(false);
  EXPECT_NEAR(phone_a_.energy().CurrentPowerMilliwatts(), 76.20, 1e-6);
}

TEST_F(WifiTest, LineTopologyNeighborhoods) {
  // 100 m range, 80 m spacing: A-B and B-C are neighbors, A-C are not.
  EXPECT_TRUE(wifi_a_->IsNeighbor(node_b_));
  EXPECT_FALSE(wifi_a_->IsNeighbor(node_c_));
  EXPECT_TRUE(wifi_b_->IsNeighbor(node_a_));
  EXPECT_TRUE(wifi_b_->IsNeighbor(node_c_));
  std::vector<NodeId> neighbors;
  wifi_b_->NeighborsInto(neighbors);
  EXPECT_EQ(neighbors, (std::vector<NodeId>{node_a_, node_c_}));
}

TEST_F(WifiTest, DisabledNodeIsNotANeighbor) {
  wifi_b_->SetEnabled(false);
  EXPECT_FALSE(wifi_a_->IsNeighbor(node_b_));
  std::vector<NodeId> neighbors;
  wifi_a_->NeighborsInto(neighbors);
  EXPECT_TRUE(neighbors.empty());
}

TEST_F(WifiTest, FrameDeliveredToNeighbor) {
  std::vector<std::byte> received;
  NodeId from = kInvalidNode;
  wifi_b_->SetFrameHandler(
      [&](NodeId f, const std::vector<std::byte>& data) {
        from = f;
        received = data;
      });
  bool ok = false;
  wifi_a_->SendFrame(node_b_, std::vector<std::byte>(500, std::byte{1}),
                     [&](Status s) { ok = s.ok(); });
  sim_.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(from, node_a_);
  EXPECT_EQ(received.size(), 500u);
}

TEST_F(WifiTest, FrameToNonNeighborFails) {
  Status status = Status::Ok();
  wifi_a_->SendFrame(node_c_, std::vector<std::byte>(10),
                     [&](Status s) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(WifiTest, FrameWithRadioOffFails) {
  wifi_a_->SetEnabled(false);
  Status status = Status::Ok();
  wifi_a_->SendFrame(node_b_, std::vector<std::byte>(10),
                     [&](Status s) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(WifiTest, FrameLatencyIncludesConnectAndTransfer) {
  const SimTime start = sim_.Now();
  wifi_a_->SendFrame(node_b_, std::vector<std::byte>(1000, std::byte{1}));
  sim_.Run();
  const double ms = ToMillis(sim_.Now() - start);
  // 17 ms connect + 8000 bits / 32 kbps = 250 ms transfer.
  EXPECT_NEAR(ms, 17.0 + 250.0, 10.0);
}

TEST_F(WifiTest, PeerLeavingMidFlightDropsFrame) {
  Status status = Status::Ok();
  wifi_a_->SendFrame(node_b_, std::vector<std::byte>(2000, std::byte{1}),
                     [&](Status s) { status = s; });
  // B moves out of range while the frame is in the air.
  sim_.ScheduleAfter(10ms, [&] {
    ASSERT_TRUE(medium_.SetPosition(node_b_, {5000, 0}).ok());
  });
  sim_.Run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(WifiTest, InrushTripReportedWhenMeterInserted) {
  wifi_a_->SetEnabled(false);
  phone_a_.battery().SetMeterInserted(true);
  int trips = 0;
  phone_a_.battery().SetTripListener([&](SimTime) { ++trips; });
  wifi_a_->SetEnabled(true);
  // The paper's communicator tripped its protection circuit this way.
  EXPECT_EQ(trips, 1);
  // The radio still joins (the authors reasoned from partial logs).
  EXPECT_TRUE(wifi_a_->enabled());
}

TEST_F(WifiTest, NoTripWithoutMeter) {
  wifi_a_->SetEnabled(false);
  int trips = 0;
  phone_a_.battery().SetTripListener([&](SimTime) { ++trips; });
  wifi_a_->SetEnabled(true);
  EXPECT_EQ(trips, 0);
}

TEST_F(WifiTest, FailureCutsDrainAndReachability) {
  wifi_b_->SetFailed(true);
  EXPECT_FALSE(wifi_b_->enabled());
  EXPECT_FALSE(wifi_a_->IsNeighbor(node_b_));
  EXPECT_DOUBLE_EQ(
      phone_b_.energy().ComponentPowerMilliwatts("wifi.connected"), 0.0);
}

// --- The kept neighbor list vs. a fresh range scan --------------------------

/// Every radio's NeighborsInto against the Medium range scan it keeps,
/// computed here without the kept list, in the same order.
class NeighborListTest : public WifiTest {
 protected:
  std::vector<NodeId> Scanned(const WifiController& wifi) const {
    if (!wifi.enabled()) return {};
    return medium_.NodesWithin(wifi.node(), wifi.range_m(), [&](NodeId n) {
      const WifiController* peer = bus_.Find(n);
      return peer != nullptr && peer->enabled();
    });
  }

  std::vector<NodeId> Kept(const WifiController& wifi) const {
    std::vector<NodeId> out;
    wifi.NeighborsInto(out);
    return out;
  }

  /// Checks every live radio, which also leaves every kept list warm for
  /// the next mutation to invalidate.
  void ExpectKeptEqualsScanned() const {
    for (const auto* wifi : {&wifi_a_, &wifi_b_, &wifi_c_, &wifi_d_}) {
      if (*wifi == nullptr) continue;
      EXPECT_EQ(Kept(**wifi), Scanned(**wifi)) << "node " << (*wifi)->node();
    }
  }

  void SetUp() override { ExpectKeptEqualsScanned(); }

  phone::SmartPhone phone_d_{sim_, phone::Nokia9500(), "comm-D"};
  std::unique_ptr<WifiController> wifi_d_;  // added by some cases
};

TEST_F(NeighborListTest, MoveInsideACell) {
  // B stays in its 100 m cell but is now nearer C than A.
  ASSERT_EQ(medium_.cell_size_m(), 100.0);
  ASSERT_TRUE(medium_.SetPosition(node_b_, {90, 0}).ok());
  EXPECT_EQ(Kept(*wifi_b_), (std::vector<NodeId>{node_c_, node_a_}));
  ExpectKeptEqualsScanned();
}

TEST_F(NeighborListTest, MoveAcrossCells) {
  ASSERT_TRUE(medium_.SetPosition(node_c_, {40, 0}).ok());
  EXPECT_EQ(Kept(*wifi_a_), (std::vector<NodeId>{node_c_, node_b_}));
  ExpectKeptEqualsScanned();
}

TEST_F(NeighborListTest, RegisterANode) {
  const std::uint64_t epoch = medium_.topology_epoch();
  const NodeId d = medium_.Register("comm-D", {40, 0});
  EXPECT_NE(medium_.topology_epoch(), epoch);
  ExpectKeptEqualsScanned();  // a node without a radio is no neighbor
  wifi_d_ = std::make_unique<WifiController>(sim_, bus_, phone_d_, d);
  ExpectKeptEqualsScanned();  // nor is a radio that is off
  wifi_d_->SetEnabled(true);
  EXPECT_EQ(Kept(*wifi_a_), (std::vector<NodeId>{d, node_b_}));
  ExpectKeptEqualsScanned();
}

TEST_F(NeighborListTest, UnregisterANode) {
  medium_.Unregister(node_b_);
  EXPECT_TRUE(Kept(*wifi_a_).empty());
  EXPECT_TRUE(Kept(*wifi_b_).empty());  // its radio is still on
  ExpectKeptEqualsScanned();
}

TEST_F(NeighborListTest, AttachARadio) {
  const NodeId d = medium_.Register("comm-D", {120, 0});
  ExpectKeptEqualsScanned();
  const std::uint64_t epoch = bus_.epoch();
  wifi_d_ = std::make_unique<WifiController>(sim_, bus_, phone_d_, d);
  EXPECT_NE(bus_.epoch(), epoch);
  wifi_d_->SetEnabled(true);
  EXPECT_EQ(Kept(*wifi_c_), (std::vector<NodeId>{d, node_b_}));
  ExpectKeptEqualsScanned();
}

TEST_F(NeighborListTest, DestroyARadio) {
  wifi_b_.reset();
  EXPECT_TRUE(Kept(*wifi_a_).empty());
  ExpectKeptEqualsScanned();
}

TEST_F(NeighborListTest, DisableAndReEnableARadio) {
  wifi_c_->SetEnabled(false);
  EXPECT_EQ(Kept(*wifi_b_), (std::vector<NodeId>{node_a_}));
  ExpectKeptEqualsScanned();
  wifi_c_->SetEnabled(true);
  EXPECT_EQ(Kept(*wifi_b_), (std::vector<NodeId>{node_a_, node_c_}));
  ExpectKeptEqualsScanned();
}

TEST_F(NeighborListTest, FailAndRecoverARadio) {
  wifi_a_->SetFailed(true);
  EXPECT_EQ(Kept(*wifi_b_), (std::vector<NodeId>{node_c_}));
  ExpectKeptEqualsScanned();
  wifi_a_->SetFailed(false);
  EXPECT_EQ(Kept(*wifi_b_), (std::vector<NodeId>{node_a_, node_c_}));
  ExpectKeptEqualsScanned();
}

TEST_F(NeighborListTest, RegridAndOracleKeepTheEpoch) {
  // A short radio range re-derives the cell size and rebuilds the grid;
  // the linear oracle answers the same. Neither changes a result, so
  // neither moves the epoch.
  const std::uint64_t epoch = medium_.topology_epoch();
  medium_.NoteRadioRange(10.0);
  EXPECT_NE(medium_.cell_size_m(), 100.0);
  ExpectKeptEqualsScanned();
  medium_.set_use_grid(false);
  ExpectKeptEqualsScanned();
  EXPECT_EQ(medium_.topology_epoch(), epoch);
}

TEST_F(NeighborListTest, DisabledRadioAppendsNothing) {
  wifi_b_->SetEnabled(false);
  std::vector<NodeId> out{kInvalidNode};
  wifi_b_->NeighborsInto(out);
  EXPECT_EQ(out, std::vector<NodeId>{kInvalidNode});
  wifi_b_->SetEnabled(true);
  wifi_b_->SetFailed(true);
  wifi_b_->NeighborsInto(out);
  EXPECT_EQ(out, std::vector<NodeId>{kInvalidNode});
}

TEST_F(WifiTest, WifiIdleCostDwarfsBtScan) {
  // The headline energy observation: WiFi connected is >100x BT inquiry
  // scan mode. Compare one minute of each.
  const auto mark = phone_a_.energy().Mark();
  sim_.RunFor(60s);
  const double wifi_joules = phone_a_.energy().JoulesSince(mark);
  const double bt_scan_joules = 8.47 / 1e3 * 60.0;  // paper's 8.47 mW
  EXPECT_GT(wifi_joules, 100.0 * bt_scan_joules);
}

}  // namespace
}  // namespace contory::net
