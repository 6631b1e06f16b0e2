// Simulated cellular data (GPRS/UMTS) — the extInfra transport.
//
// The paper's extInfra numbers are shaped by three effects we model
// explicitly:
//  * connection-open cost: "the maximum power consumption, which
//    corresponds to when the connection is opened and the request for the
//    item is sent, is 1000 mW" and latencies "ranging from 703 msec up to
//    2766 msec" — a heavy-tailed (lognormal) setup time;
//  * radio tail energy: after the transfer, the radio lingers in
//    high-power states (DCH tail, then FACH) before returning to idle —
//    this is what makes one on-demand UMTS item cost 14 J while "sending
//    and retrieving larger groups of items in the same time slot largely
//    reduces the energy consumption per item";
//  * idle paging peaks (450-481 mW every 50-60 s) once the GSM radio is
//    on — those are owned by phone::SmartPhone and show up in Fig. 4.
//
// CellularNetwork is the operator core + internet: servers register by
// address; modems send request/response exchanges and can receive pushes
// (the event-notification channel the Fuego middleware provides).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/time.hpp"
#include "net/medium.hpp"
#include "phone/smart_phone.hpp"
#include "sim/simulation.hpp"

namespace contory::net {

class CellularModem;

/// The operator core network plus the fixed internet behind it.
class CellularNetwork {
 public:
  explicit CellularNetwork(sim::Simulation& sim) : sim_(sim) {}

  /// A server's request handler: must eventually call `respond` exactly
  /// once (immediately or later) with the response payload.
  using Respond = std::function<void(std::vector<std::byte>)>;
  using ServerHandler = std::function<void(
      NodeId from, const std::vector<std::byte>& request, Respond respond)>;

  Status RegisterServer(const std::string& address, ServerHandler handler);
  void UnregisterServer(const std::string& address);

  /// Pushes an asynchronous notification to a client modem (event-based
  /// interface). Fails if the client is unknown or its radio is off.
  Status PushToClient(NodeId client, std::vector<std::byte> payload);

 private:
  friend class CellularModem;
  void Attach(NodeId id, CellularModem* modem) { modems_[id] = modem; }
  void Detach(NodeId id) { modems_.erase(id); }
  [[nodiscard]] ServerHandler* FindServer(const std::string& address);

  sim::Simulation& sim_;
  std::unordered_map<std::string, ServerHandler> servers_;
  std::unordered_map<NodeId, CellularModem*> modems_;
};

/// Radio-resource-control states of the modem.
enum class RrcState { kIdle, kConnecting, kDch, kDchTail, kFach };

class CellularModem {
 public:
  CellularModem(sim::Simulation& sim, phone::SmartPhone& phone,
                CellularNetwork& network, NodeId node);
  ~CellularModem();

  CellularModem(const CellularModem&) = delete;
  CellularModem& operator=(const CellularModem&) = delete;

  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] RrcState rrc_state() const noexcept { return state_; }

  /// Powers the GSM/UMTS radio; also drives the phone's paging bursts.
  void SetRadioOn(bool on);
  [[nodiscard]] bool radio_on() const noexcept { return radio_on_; }

  /// Failure injection: fraction of connection attempts that fail (models
  /// the 2G/3G handover and coverage problems the field trial hit).
  void SetConnectFailureRate(double rate) noexcept {
    connect_failure_rate_ = rate;
  }
  [[nodiscard]] double connect_failure_rate() const noexcept {
    return connect_failure_rate_;
  }

  /// Failure injection: fraction of in-flight request exchanges that abort
  /// mid-transfer (bearer drop during a handover). Unlike the connect
  /// failure above, this hits sends that already reached DCH, so callers
  /// see kUnavailable partway through the uplink — the case provider
  /// retry policies must absorb.
  void SetTransferAbortRate(double rate) noexcept {
    transfer_abort_rate_ = rate;
  }
  [[nodiscard]] double transfer_abort_rate() const noexcept {
    return transfer_abort_rate_;
  }

  /// Sends `request` to the server at `address` and reports the response
  /// (or failure) via `done`. Latency and energy follow the RRC machine:
  /// connection setup if idle, uplink air time, server turnaround,
  /// downlink air time, then tail decay.
  void SendRequest(const std::string& address, std::vector<std::byte> request,
                   std::function<void(Result<std::vector<std::byte>>)> done,
                   SimDuration timeout = std::chrono::seconds{30});

  /// Handler for server-initiated pushes (event notifications).
  using PushHandler = std::function<void(const std::vector<std::byte>&)>;
  void SetPushHandler(PushHandler handler) {
    push_handler_ = std::move(handler);
  }

  /// Air time of a payload over the UMTS bearer.
  [[nodiscard]] SimDuration TransferTime(std::size_t bytes) const;

 private:
  friend class CellularNetwork;
  void DeliverPush(std::vector<std::byte> payload);

  /// Brings the radio to DCH, then runs `ready` (Status::Ok) or reports
  /// why it could not (radio off, connect failure).
  void EnsureDch(std::function<void(Status)> ready);
  void EnterState(RrcState s);
  /// (Re)arms the DCH->DchTail->FACH->Idle decay; any activity calls this.
  void ArmDecay();
  void CancelDecay();

  sim::Simulation& sim_;
  phone::SmartPhone& phone_;
  CellularNetwork& network_;
  NodeId node_;
  bool radio_on_ = false;
  RrcState state_ = RrcState::kIdle;
  double connect_failure_rate_ = 0.0;
  double transfer_abort_rate_ = 0.0;
  PushHandler push_handler_;
  std::deque<std::function<void(Status)>> connect_waiters_;
  int in_flight_ = 0;  // active request/push exchanges (defer decay)
  sim::TimerId decay_timer_ = sim::kInvalidTimer;
};

}  // namespace contory::net
