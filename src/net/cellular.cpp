#include "net/cellular.hpp"

#include <utility>

#include "obs/observability.hpp"

namespace contory::net {
namespace {
constexpr const char* kRrc = "cell.rrc";
/// FACH -> DCH promotion is much cheaper than a cold connect.
constexpr SimDuration kFachPromotion = std::chrono::milliseconds{420};
}  // namespace

Status CellularNetwork::RegisterServer(const std::string& address,
                                       ServerHandler handler) {
  if (!handler) return InvalidArgument("null server handler");
  if (servers_.contains(address)) {
    return AlreadyExists("server already registered at " + address);
  }
  servers_.emplace(address, std::move(handler));
  return Status::Ok();
}

void CellularNetwork::UnregisterServer(const std::string& address) {
  servers_.erase(address);
}

CellularNetwork::ServerHandler* CellularNetwork::FindServer(
    const std::string& address) {
  const auto it = servers_.find(address);
  return it == servers_.end() ? nullptr : &it->second;
}

Status CellularNetwork::PushToClient(NodeId client,
                                     std::vector<std::byte> payload) {
  const auto it = modems_.find(client);
  if (it == modems_.end()) {
    return NotFound("no modem for node " + std::to_string(client));
  }
  if (!it->second->radio_on()) {
    return Unavailable("client radio is off");
  }
  it->second->DeliverPush(std::move(payload));
  return Status::Ok();
}

CellularModem::CellularModem(sim::Simulation& sim, phone::SmartPhone& phone,
                             CellularNetwork& network, NodeId node)
    : sim_(sim), phone_(phone), network_(network), node_(node) {
  network_.Attach(node_, this);
}

CellularModem::~CellularModem() {
  CancelDecay();
  network_.Detach(node_);
}

void CellularModem::SetRadioOn(bool on) {
  if (radio_on_ == on) return;
  radio_on_ = on;
  phone_.SetGsmRadioOn(on);
  if (!on) {
    CancelDecay();
    EnterState(RrcState::kIdle);
    // Pending connects fail.
    auto waiters = std::move(connect_waiters_);
    connect_waiters_.clear();
    for (auto& w : waiters) w(Unavailable("radio switched off"));
  }
}

SimDuration CellularModem::TransferTime(std::size_t bytes) const {
  const double bits = static_cast<double>(bytes) * 8.0;
  return FromSeconds(bits / phone_.profile().cell_throughput_bps);
}

void CellularModem::EnterState(RrcState s) {
  if (state_ == s) return;
  state_ = s;
  const auto& p = phone_.profile();
  double mw = 0.0;
  switch (s) {
    case RrcState::kIdle: mw = 0.0; break;
    case RrcState::kConnecting: mw = p.cell_connect_power_mw; break;
    case RrcState::kDch: mw = p.cell_dch_power_mw; break;
    case RrcState::kDchTail: mw = p.cell_dch_tail_power_mw; break;
    case RrcState::kFach: mw = p.cell_fach_power_mw; break;
  }
  phone_.energy().SetComponentPower(kRrc, mw);
  // While a dedicated/shared channel is up, the phone is not doing idle
  // paging wakeups on the side.
  phone_.SetPagingSuppressed(s != RrcState::kIdle);
}

void CellularModem::CancelDecay() {
  if (decay_timer_ != sim::kInvalidTimer) {
    sim_.Cancel(decay_timer_);
    decay_timer_ = sim::kInvalidTimer;
  }
}

void CellularModem::ArmDecay() {
  CancelDecay();
  if (in_flight_ > 0 || state_ == RrcState::kIdle) return;
  const auto& p = phone_.profile();
  if (state_ == RrcState::kDch || state_ == RrcState::kDchTail) {
    EnterState(RrcState::kDchTail);
    decay_timer_ = sim_.ScheduleAfter(p.cell_dch_tail, [this] {
      decay_timer_ = sim::kInvalidTimer;
      if (in_flight_ > 0) return;
      EnterState(RrcState::kFach);
      ArmDecay();
    }, "cell.dch_tail");
  } else if (state_ == RrcState::kFach) {
    decay_timer_ = sim_.ScheduleAfter(p.cell_fach_tail, [this] {
      decay_timer_ = sim::kInvalidTimer;
      if (in_flight_ > 0) return;
      EnterState(RrcState::kIdle);
    }, "cell.fach_tail");
  }
}

void CellularModem::EnsureDch(std::function<void(Status)> ready) {
  if (!radio_on_) {
    ready(Unavailable("cellular radio is off"));
    return;
  }
  CancelDecay();
  switch (state_) {
    case RrcState::kDch:
    case RrcState::kDchTail:
      EnterState(RrcState::kDch);
      ready(Status::Ok());
      return;
    case RrcState::kConnecting:
      connect_waiters_.push_back(std::move(ready));
      return;
    case RrcState::kFach: {
      EnterState(RrcState::kConnecting);
      connect_waiters_.push_back(std::move(ready));
      sim_.ScheduleAfter(kFachPromotion, [this] {
        if (state_ != RrcState::kConnecting) return;
        EnterState(RrcState::kDch);
        auto waiters = std::move(connect_waiters_);
        connect_waiters_.clear();
        for (auto& w : waiters) w(Status::Ok());
      }, "cell.promote");
      return;
    }
    case RrcState::kIdle: {
      EnterState(RrcState::kConnecting);
      connect_waiters_.push_back(std::move(ready));
      const auto& p = phone_.profile();
      // Cold connect: heavy-tailed, "ranging from 703 msec up to 2766".
      const double ms =
          phone_.rng().LogNormal(p.cell_connect_mu_ms, p.cell_connect_sigma);
      const bool fails = phone_.rng().Bernoulli(connect_failure_rate_);
      sim_.ScheduleAfter(FromMillis(ms), [this, fails] {
        if (state_ != RrcState::kConnecting) return;
        auto waiters = std::move(connect_waiters_);
        connect_waiters_.clear();
        if (fails) {
          EnterState(RrcState::kIdle);
          for (auto& w : waiters) {
            w(Unavailable("connection setup failed (handover/coverage)"));
          }
          return;
        }
        EnterState(RrcState::kDch);
        for (auto& w : waiters) w(Status::Ok());
      }, "cell.connect");
      return;
    }
  }
}

void CellularModem::SendRequest(
    const std::string& address, std::vector<std::byte> request,
    std::function<void(Result<std::vector<std::byte>>)> done,
    SimDuration timeout) {
  if (!done) return;
  // Shared completion state so the timeout and the response race safely.
  struct Pending {
    bool finished = false;
    std::function<void(Result<std::vector<std::byte>>)> done;
  };
  auto pending = std::make_shared<Pending>();
  pending->done = std::move(done);

  ++in_flight_;
  auto finish = [this, pending](Result<std::vector<std::byte>> result) {
    if (pending->finished) return;
    pending->finished = true;
    --in_flight_;
    ArmDecay();
    pending->done(std::move(result));
  };

  sim_.ScheduleAfter(timeout, [finish] {
    finish(DeadlineExceeded("no response from infrastructure"));
  }, "cell.timeout");

  EnsureDch([this, address, request = std::move(request), finish](
                Status s) mutable {
    if (!s.ok()) {
      finish(std::move(s));
      return;
    }
    auto* handler = network_.FindServer(address);
    if (handler == nullptr) {
      finish(NotFound("no server at " + address));
      return;
    }
    // Uplink air time, then server turnaround, then the server's reply
    // comes back over the downlink.
    const SimDuration uplink = TransferTime(request.size());
    // Injected mid-transfer abort: the bearer drops partway through the
    // uplink (handover). Drawn only when an abort window is active so the
    // rng stream of fault-free runs is unchanged.
    if (transfer_abort_rate_ > 0.0 &&
        phone_.rng().Bernoulli(transfer_abort_rate_)) {
      const auto partial = SimDuration{static_cast<std::int64_t>(
          static_cast<double>(uplink.count()) * phone_.rng().NextDouble())};
      sim_.ScheduleAfter(partial, [finish] {
        finish(Unavailable("bearer lost mid-transfer (handover)"));
      }, "cell.abort");
      return;
    }
    COBS({
      static obs::Counter& frames = obs::Observability::metrics().GetCounter(
          "radio_tx_frames_total", {{"radio", "cellular"}});
      static obs::Counter& bytes = obs::Observability::metrics().GetCounter(
          "radio_tx_bytes_total", {{"radio", "cellular"}});
      frames.Inc();
      bytes.Inc(request.size());
    });
    sim_.ScheduleAfter(
        uplink + phone_.profile().cell_server_turnaround,
        [this, handler, request = std::move(request), finish]() mutable {
          (*handler)(node_, request,
                     [this, finish](std::vector<std::byte> response) {
                       const SimDuration downlink =
                           TransferTime(response.size());
                       sim_.ScheduleAfter(
                           downlink,
                           [finish, response = std::move(response)]() mutable {
                             finish(std::move(response));
                           },
                           "cell.downlink");
                     });
        },
        "cell.uplink");
  });
}

void CellularModem::DeliverPush(std::vector<std::byte> payload) {
  ++in_flight_;
  EnsureDch([this, payload = std::move(payload)](Status s) mutable {
    if (!s.ok()) {
      --in_flight_;
      ArmDecay();
      return;
    }
    const SimDuration downlink = TransferTime(payload.size());
    sim_.ScheduleAfter(downlink, [this, payload = std::move(payload)] {
      --in_flight_;
      ArmDecay();
      if (push_handler_) push_handler_(payload);
    }, "cell.push");
  });
}

}  // namespace contory::net
