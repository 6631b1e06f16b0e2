#include "net/wifi.hpp"

#include <utility>

#include "common/logging.hpp"
#include "obs/observability.hpp"

namespace contory::net {
namespace {
constexpr const char* kModule = "wifi";
constexpr const char* kConnected = "wifi.connected";
}  // namespace

void WifiBus::Attach(NodeId id, WifiController* c) {
  if (id >= controllers_.size()) controllers_.resize(id + 1, nullptr);
  controllers_[id] = c;
  ++epoch_;
}

WifiController::WifiController(sim::Simulation& sim, WifiBus& bus,
                               phone::SmartPhone& phone, NodeId node,
                               WifiConfig config)
    : sim_(sim), bus_(bus), phone_(phone), node_(node), config_(config) {
  bus_.Attach(node_, this);
  // Feed the medium's spatial index its cell-size derivation hint.
  bus_.medium().NoteRadioRange(config_.range_m);
}

WifiController::~WifiController() { bus_.Detach(node_); }

void WifiController::SetEnabled(bool enabled) {
  if (enabled_ == enabled) return;
  enabled_ = enabled;
  ++bus_.epoch_;
  const double drain = phone_.profile().wifi_connected_power_mw;
  if (enabled) {
    if (phone_.battery().InrushTrips(drain)) {
      CLOG_WARN(kModule,
                "node %u: WiFi in-rush tripped the protection circuit "
                "(meter in series)",
                node_);
      phone_.battery().ReportTrip();
    }
    phone_.energy().SetComponentPower(kConnected, drain);
  } else {
    phone_.energy().SetComponentPower(kConnected, 0.0);
  }
}

void WifiController::SetFailed(bool failed) {
  failed_ = failed;
  ++bus_.epoch_;
  if (failed) phone_.energy().SetComponentPower(kConnected, 0.0);
}

void WifiController::NeighborsInto(std::vector<NodeId>& out) const {
  if (!enabled()) return;
  const Medium& medium = bus_.medium();
  if (neighbors_topology_epoch_ != medium.topology_epoch() ||
      neighbors_bus_epoch_ != bus_.epoch()) {
    neighbors_.clear();
    medium.NodesWithinInto(node_, config_.range_m, neighbors_,
                           [this](NodeId n) {
                             const WifiController* peer = bus_.Find(n);
                             return peer != nullptr && peer->enabled();
                           });
    neighbors_topology_epoch_ = medium.topology_epoch();
    neighbors_bus_epoch_ = bus_.epoch();
  }
  out.insert(out.end(), neighbors_.begin(), neighbors_.end());
}

bool WifiController::IsNeighbor(NodeId other) const {
  if (!enabled()) return false;
  const WifiController* peer = bus_.Find(other);
  return peer != nullptr && peer->enabled() &&
         bus_.medium().InRange(node_, other, config_.range_m);
}

SimDuration WifiController::TransferTime(std::size_t payload_bytes) const {
  const double bits = static_cast<double>(payload_bytes) * 8.0;
  return FromSeconds(bits / phone_.profile().wifi_throughput_bps);
}

void WifiController::SendFrame(NodeId to, std::vector<std::byte> payload,
                               std::function<void(Status)> done) {
  if (!enabled()) {
    if (done) done(Unavailable("wifi radio is off"));
    return;
  }
  if (!IsNeighbor(to)) {
    if (done) done(Unavailable("node " + std::to_string(to) +
                               " is not a wifi neighbor"));
    return;
  }
  // Office-environment noise: a few percent jitter on the air time, plus
  // any injected latency spike.
  const SimDuration latency =
      SimDuration{static_cast<std::int64_t>(phone_.rng().Jitter(
          static_cast<double>((phone_.profile().wifi_connect_latency +
                               TransferTime(payload.size()))
                                  .count()),
          0.04))} +
      extra_latency_;
  // Injected frame loss. Drawn only when a loss window is active so the
  // rng stream of loss-free runs is unchanged.
  const bool lost = loss_rate_ > 0.0 && phone_.rng().Bernoulli(loss_rate_);
  COBS({
    static obs::Counter& frames = obs::Observability::metrics().GetCounter(
        "radio_tx_frames_total", {{"radio", "wifi"}});
    static obs::Counter& bytes = obs::Observability::metrics().GetCounter(
        "radio_tx_bytes_total", {{"radio", "wifi"}});
    // Per-frame airtime (connect + transfer + jitter + injected spikes):
    // the per-hop transfer distribution the SM hop spans decompose.
    static obs::Histogram& airtime =
        obs::Observability::metrics().GetHistogram("radio_frame_airtime_ms",
                                                   {{"radio", "wifi"}});
    frames.Inc();
    bytes.Inc(payload.size());
    airtime.Observe(ToMillis(latency));
  });
  sim_.ScheduleAfter(
      latency,
      [this, to, lost, payload = std::move(payload), done = std::move(done)] {
        if (lost) {
          COBS({
            static obs::Counter& dropped =
                obs::Observability::metrics().GetCounter(
                    "radio_frames_lost_total", {{"radio", "wifi"}});
            dropped.Inc();
          });
          if (done) done(Unavailable("frame lost in the air"));
          return;
        }
        WifiController* peer = bus_.Find(to);
        if (peer == nullptr || !peer->enabled() || !IsNeighbor(to)) {
          if (done) done(Unavailable("peer lost during transfer"));
          return;
        }
        if (peer->frame_handler_) peer->frame_handler_(node_, payload);
        if (done) done(Status::Ok());
      },
      "wifi.frame");
}

}  // namespace contory::net
