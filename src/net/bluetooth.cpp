#include "net/bluetooth.hpp"

#include <cmath>
#include <utility>

#include "obs/observability.hpp"

namespace contory::net {
namespace {
// Energy-ledger component names for this radio.
constexpr const char* kScan = "bt.scan";
constexpr const char* kInquiry = "bt.inquiry";
constexpr const char* kSdp = "bt.sdp";
constexpr const char* kLink = "bt.link";
constexpr const char* kTransfer = "bt.transfer";
}  // namespace

void BluetoothBus::Attach(NodeId id, BluetoothController* c) {
  if (id >= controllers_.size()) controllers_.resize(id + 1, nullptr);
  controllers_[id] = c;
}

BluetoothController::BluetoothController(sim::Simulation& sim,
                                         BluetoothBus& bus,
                                         phone::SmartPhone& phone,
                                         NodeId node, BluetoothConfig config)
    : sim_(sim), bus_(bus), phone_(phone), node_(node), config_(config) {
  bus_.Attach(node_, this);
  // Feed the medium's spatial index its cell-size derivation hint.
  bus_.medium().NoteRadioRange(config_.range_m);
}

BluetoothController::~BluetoothController() { bus_.Detach(node_); }

void BluetoothController::SetEnabled(bool enabled) {
  if (enabled_ == enabled) return;
  enabled_ = enabled;
  phone_.energy().SetComponentPower(
      kScan, enabled ? phone_.profile().bt_scan_power_mw : 0.0);
  if (!enabled) DropAllLinks(/*silent_local=*/false);
}

void BluetoothController::SetFailed(bool failed) {
  if (failed_ == failed) return;
  failed_ = failed;
  if (failed) {
    // The device falls off the air: peers find out via supervision
    // timeout; locally the stack is simply gone (no callbacks).
    DropAllLinks(/*silent_local=*/true);
  }
}

bool BluetoothController::Reachable(NodeId remote) const {
  const BluetoothController* peer = bus_.Find(remote);
  return peer != nullptr && peer->enabled() &&
         bus_.medium().InRange(node_, remote, config_.range_m);
}

void BluetoothController::StartInquiry(InquiryCallback done) {
  if (!done) return;
  if (!enabled()) {
    done(Unavailable("bluetooth radio is off"));
    return;
  }
  if (inquiry_active_) {
    done(FailedPrecondition("inquiry already in progress"));
    return;
  }
  inquiry_active_ = true;
  phone_.energy().SetComponentPower(kInquiry,
                                    phone_.profile().bt_inquiry_power_mw);
  const SimDuration window = SimDuration{static_cast<std::int64_t>(
      phone_.rng().Jitter(
          static_cast<double>(phone_.profile().bt_inquiry_duration.count()),
          0.04))};
  sim_.ScheduleAfter(window, [this, done = std::move(done)] {
    inquiry_active_ = false;
    phone_.energy().SetComponentPower(kInquiry, 0.0);
    if (!enabled()) {
      done(Unavailable("bluetooth radio switched off during inquiry"));
      return;
    }
    std::vector<NodeId> ids;
    bus_.medium().NodesWithinInto(node_, config_.range_m, ids,
                                  [this](NodeId n) { return Reachable(n); });
    std::vector<BtDeviceInfo> found;
    for (const NodeId id : ids) {
      found.push_back(
          BtDeviceInfo{id, bus_.medium().GetName(id).value_or("?")});
    }
    done(std::move(found));
  }, "bt.inquiry.done");
}

void BluetoothController::RegisterService(
    ServiceRecord record, std::function<void(Result<ServiceHandle>)> done) {
  // Building the DataElement and inserting it into the SDDB is the 140 ms
  // measured for BT publishCxtItem (Table 1) — CPU-bound on the phone.
  const SimDuration cost = SimDuration{static_cast<std::int64_t>(
      phone_.rng().Jitter(
          static_cast<double>(phone_.profile().bt_register_latency.count()),
          0.01))};
  phone_.ChargeCpu(cost);
  sim_.ScheduleAfter(cost, [this, record = std::move(record),
                            done = std::move(done)]() mutable {
    const ServiceHandle handle = next_service_++;
    sddb_.emplace(handle, std::move(record));
    if (done) done(handle);
  }, "bt.sdp.register");
}

void BluetoothController::UnregisterService(ServiceHandle handle) {
  sddb_.erase(handle);
}

Status BluetoothController::UpdateService(ServiceHandle handle,
                                          std::vector<std::byte> data) {
  const auto it = sddb_.find(handle);
  if (it == sddb_.end()) {
    return NotFound("no service record " + std::to_string(handle));
  }
  it->second.data_element = std::move(data);
  return Status::Ok();
}

void BluetoothController::DiscoverServices(NodeId device,
                                           std::string name_prefix,
                                           SdpCallback done) {
  if (!done) return;
  if (!enabled()) {
    done(Unavailable("bluetooth radio is off"));
    return;
  }
  if (!Reachable(device)) {
    done(Unavailable("device " + std::to_string(device) +
                     " not reachable over bluetooth"));
    return;
  }
  phone_.energy().SetComponentPower(kSdp, phone_.profile().bt_sdp_power_mw);
  const SimDuration window = SimDuration{static_cast<std::int64_t>(
      phone_.rng().Jitter(
          static_cast<double>(phone_.profile().bt_sdp_duration.count()),
          0.05))};
  sim_.ScheduleAfter(window, [this, device, name_prefix = std::move(name_prefix),
                              done = std::move(done)] {
    phone_.energy().SetComponentPower(kSdp, 0.0);
    BluetoothController* peer = bus_.Find(device);
    if (peer == nullptr || !Reachable(device)) {
      done(Unavailable("device vanished during service discovery"));
      return;
    }
    std::vector<ServiceRecord> records;
    for (const auto& [handle, rec] : peer->sddb_) {
      if (rec.service_name.rfind(name_prefix, 0) == 0) {
        records.push_back(rec);
      }
    }
    done(std::move(records));
  }, "bt.sdp.discover");
}

void BluetoothController::Connect(NodeId remote, ConnectCallback done) {
  if (!done) return;
  if (!enabled()) {
    done(Unavailable("bluetooth radio is off"));
    return;
  }
  sim_.ScheduleAfter(phone_.profile().bt_connect_latency, [this, remote,
                                                           done] {
    BluetoothController* peer = bus_.Find(remote);
    if (peer == nullptr || !Reachable(remote)) {
      done(Unavailable("page timeout: device " + std::to_string(remote) +
                       " unreachable"));
      return;
    }
    const BtLinkId local = next_link_++;
    const BtLinkId remote_link = peer->next_link_++;
    links_.emplace(local, Link{remote, remote_link, true});
    peer->links_.emplace(remote_link, Link{node_, local, true});
    UpdateLinkPower();
    peer->UpdateLinkPower();
    done(local);
  }, "bt.page");
}

std::size_t BluetoothController::WireBytes(std::size_t payload_bytes) const {
  const auto& p = phone_.profile();
  const auto segs = static_cast<std::size_t>(
      std::ceil(static_cast<double>(payload_bytes) /
                static_cast<double>(p.bt_segment_payload_bytes)));
  return payload_bytes +
         segs * static_cast<std::size_t>(p.bt_segment_overhead_bytes);
}

SimDuration BluetoothController::TransferTime(
    std::size_t payload_bytes) const {
  const double bits = static_cast<double>(WireBytes(payload_bytes)) * 8.0;
  return FromSeconds(bits / phone_.profile().bt_throughput_bps);
}

void BluetoothController::BeginTransferPower() {
  if (++active_transfers_ == 1) {
    phone_.energy().SetComponentPower(kTransfer,
                                      phone_.profile().bt_transfer_power_mw);
  }
}

void BluetoothController::EndTransferPower() {
  if (--active_transfers_ == 0) {
    phone_.energy().SetComponentPower(kTransfer, 0.0);
  }
}

void BluetoothController::UpdateLinkPower() {
  std::size_t alive = 0;
  for (const auto& [id, link] : links_) {
    if (link.alive) ++alive;
  }
  phone_.energy().SetComponentPower(
      kLink, alive > 0 ? phone_.profile().bt_link_power_mw : 0.0);
}

void BluetoothController::Send(BtLinkId link, std::vector<std::byte> payload,
                               std::function<void(Status)> delivered) {
  const auto it = links_.find(link);
  if (it == links_.end() || !it->second.alive || !enabled()) {
    if (delivered) delivered(Unavailable("link not alive"));
    return;
  }
  const NodeId peer_id = it->second.peer;
  const BtLinkId peer_link = it->second.peer_link;
  if (!Reachable(peer_id)) {
    // Peer moved away or died: supervision timeout then drop.
    sim_.ScheduleAfter(config_.supervision_timeout, [this, link] {
      OnPeerLinkDropped(link);
    }, "bt.supervision");
    if (delivered) delivered(Unavailable("peer unreachable; link dropping"));
    return;
  }

  BluetoothController* peer = bus_.Find(peer_id);
  // Office-environment noise: a few percent jitter on the air time, plus
  // any injected latency spike.
  const SimDuration air =
      SimDuration{static_cast<std::int64_t>(phone_.rng().Jitter(
          static_cast<double>(TransferTime(payload.size()).count()), 0.04))} +
      extra_latency_;
  // Injected packet loss. Drawn only when a loss window is active so the
  // rng stream of loss-free runs is unchanged.
  const bool lost = loss_rate_ > 0.0 && phone_.rng().Bernoulli(loss_rate_);
  // Per-segment radio overhead on both endpoints.
  const auto segments = static_cast<double>(
      (payload.size() + phone_.profile().bt_segment_payload_bytes - 1) /
      phone_.profile().bt_segment_payload_bytes);
  phone_.energy().AddEnergyJoules(
      segments * phone_.profile().bt_segment_energy_mj / 1e3);
  peer->phone_.energy().AddEnergyJoules(
      segments * peer->phone_.profile().bt_segment_energy_mj / 1e3);
  COBS({
    static obs::Counter& frames = obs::Observability::metrics().GetCounter(
        "radio_tx_frames_total", {{"radio", "bt"}});
    static obs::Counter& bytes = obs::Observability::metrics().GetCounter(
        "radio_tx_bytes_total", {{"radio", "bt"}});
    frames.Inc();
    bytes.Inc(payload.size());
  });
  BeginTransferPower();
  peer->BeginTransferPower();
  sim_.ScheduleAfter(
      air,
      [this, peer_id, peer_link, link, lost, payload = std::move(payload),
       delivered = std::move(delivered)]() mutable {
        EndTransferPower();
        BluetoothController* peer = bus_.Find(peer_id);
        if (peer != nullptr) {
          peer->EndTransferPower();
          if (!lost && peer->enabled()) {
            const auto lk = peer->links_.find(peer_link);
            if (lk != peer->links_.end() && lk->second.alive &&
                peer->data_handler_) {
              peer->data_handler_(peer_link, node_, payload);
            }
          }
        }
        if (lost) {
          COBS({
            static obs::Counter& dropped =
                obs::Observability::metrics().GetCounter(
                    "radio_frames_lost_total", {{"radio", "bt"}});
            dropped.Inc();
          });
        }
        if (delivered) {
          if (lost) {
            delivered(Unavailable("payload lost in the air"));
            return;
          }
          const bool ok = peer != nullptr && peer->enabled() &&
                          links_.contains(link);
          delivered(ok ? Status::Ok()
                       : Unavailable("peer lost during transfer"));
        }
      },
      "bt.transfer");
}

void BluetoothController::Disconnect(BtLinkId link) {
  const auto it = links_.find(link);
  if (it == links_.end()) return;
  const NodeId peer_id = it->second.peer;
  const BtLinkId peer_link = it->second.peer_link;
  links_.erase(it);
  UpdateLinkPower();
  BluetoothController* peer = bus_.Find(peer_id);
  if (peer != nullptr) peer->OnPeerLinkDropped(peer_link);
}

bool BluetoothController::LinkAlive(BtLinkId link) const noexcept {
  const auto it = links_.find(link);
  return it != links_.end() && it->second.alive;
}

std::vector<BtLinkId> BluetoothController::AliveLinks() const {
  std::vector<BtLinkId> out;
  for (const auto& [id, link] : links_) {
    if (link.alive) out.push_back(id);
  }
  return out;
}

Result<NodeId> BluetoothController::LinkPeer(BtLinkId link) const {
  const auto it = links_.find(link);
  if (it == links_.end()) return NotFound("no such link");
  return it->second.peer;
}

void BluetoothController::OnPeerLinkDropped(BtLinkId local_link) {
  const auto it = links_.find(local_link);
  if (it == links_.end()) return;
  const NodeId peer = it->second.peer;
  links_.erase(it);
  UpdateLinkPower();
  if (disconnect_handler_) disconnect_handler_(local_link, peer);
}

void BluetoothController::DropAllLinks(bool silent_local) {
  auto links = std::move(links_);
  links_.clear();
  UpdateLinkPower();
  for (const auto& [id, link] : links) {
    if (!link.alive) continue;
    BluetoothController* peer = bus_.Find(link.peer);
    if (peer != nullptr) {
      // Peers learn after the supervision timeout.
      const BtLinkId peer_link = link.peer_link;
      const NodeId peer_id = link.peer;
      sim_.ScheduleAfter(config_.supervision_timeout,
                         [this, peer_id, peer_link] {
                           BluetoothController* p = bus_.Find(peer_id);
                           if (p != nullptr) p->OnPeerLinkDropped(peer_link);
                         },
                         "bt.supervision");
    }
    if (!silent_local && disconnect_handler_) {
      disconnect_handler_(id, link.peer);
    }
  }
}

}  // namespace contory::net
