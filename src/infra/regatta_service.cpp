#include "infra/regatta_service.hpp"

#include <algorithm>

#include "infra/event_envelope.hpp"

namespace contory::infra {

void RegattaStanding::Encode(ByteWriter& w) const {
  w.WriteString(boat);
  w.WriteI64(checkpoints_passed);
  w.WriteI64(last_passage.time_since_epoch().count());
  w.WriteF64(last_speed_knots);
  w.WriteF64(avg_speed_knots);
}

Result<RegattaStanding> RegattaStanding::Decode(ByteReader& r) {
  RegattaStanding s;
  auto boat = r.ReadString();
  if (!boat.ok()) return boat.status();
  s.boat = *std::move(boat);
  const auto cp = r.ReadI64();
  if (!cp.ok()) return cp.status();
  s.checkpoints_passed = static_cast<int>(*cp);
  const auto t = r.ReadI64();
  if (!t.ok()) return t.status();
  s.last_passage = SimTime{SimDuration{*t}};
  const auto last = r.ReadF64();
  if (!last.ok()) return last.status();
  s.last_speed_knots = *last;
  const auto avg = r.ReadF64();
  if (!avg.ok()) return avg.status();
  s.avg_speed_knots = *avg;
  return s;
}

std::vector<std::byte> EncodeStandings(
    const std::vector<RegattaStanding>& standings) {
  ByteWriter w;
  w.WriteU32(static_cast<std::uint32_t>(standings.size()));
  for (const auto& s : standings) s.Encode(w);
  return std::move(w).Take();
}

Result<std::vector<RegattaStanding>> DecodeStandings(ByteReader& r) {
  const auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  std::vector<RegattaStanding> out;
  out.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto s = RegattaStanding::Decode(r);
    if (!s.ok()) return s.status();
    out.push_back(*std::move(s));
  }
  return out;
}

RegattaService::RegattaService(sim::Simulation& sim,
                               net::CellularNetwork& network,
                               std::string address,
                               std::vector<GeoPoint> checkpoints,
                               double checkpoint_radius_m)
    : sim_(sim),
      network_(network),
      address_(std::move(address)),
      checkpoints_(std::move(checkpoints)),
      radius_m_(checkpoint_radius_m) {
  const Status s = network_.RegisterServer(
      address_, [this](net::NodeId from, const std::vector<std::byte>& req,
                       net::CellularNetwork::Respond respond) {
        HandleRequest(from, req, std::move(respond));
      });
  if (!s.ok()) {
    throw std::invalid_argument("RegattaService: " + s.ToString());
  }
}

RegattaService::~RegattaService() { network_.UnregisterServer(address_); }

void RegattaService::Report(const std::string& boat, GeoPoint position,
                            double speed_knots) {
  BoatState& state = boats_[boat];
  state.last_speed = speed_knots;
  state.speed_sum += speed_knots;
  ++state.reports;
  bool advanced = false;
  while (state.next_checkpoint < checkpoints_.size() &&
         DistanceMeters(position, checkpoints_[state.next_checkpoint]) <=
             radius_m_) {
    ++state.next_checkpoint;
    state.last_passage = sim_.Now();
    advanced = true;
  }
  if (advanced) PushStandings();
}

std::vector<RegattaStanding> RegattaService::Standings() const {
  std::vector<RegattaStanding> out;
  out.reserve(boats_.size());
  for (const auto& [boat, state] : boats_) {
    RegattaStanding s;
    s.boat = boat;
    s.checkpoints_passed = static_cast<int>(state.next_checkpoint);
    s.last_passage = state.last_passage;
    s.last_speed_knots = state.last_speed;
    s.avg_speed_knots =
        state.reports > 0
            ? state.speed_sum / static_cast<double>(state.reports)
            : 0.0;
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const RegattaStanding& a, const RegattaStanding& b) {
              if (a.checkpoints_passed != b.checkpoints_passed) {
                return a.checkpoints_passed > b.checkpoints_passed;
              }
              if (a.last_passage != b.last_passage) {
                return a.last_passage < b.last_passage;
              }
              return a.boat < b.boat;
            });
  return out;
}

void RegattaService::PushStandings() {
  if (subscribers_.empty()) return;
  const auto frame =
      WrapEvent("regatta.standings", EncodeStandings(Standings()));
  for (const net::NodeId sub : subscribers_) {
    (void)network_.PushToClient(sub, frame);
  }
}

void RegattaService::HandleRequest(net::NodeId from,
                                   const std::vector<std::byte>& request,
                                   net::CellularNetwork::Respond respond) {
  const auto nack = [&respond](const std::string& msg) {
    ByteWriter w;
    w.WriteU8(0);
    w.WriteString(msg);
    respond(std::move(w).Take());
  };
  ByteReader r{request};
  const auto op = r.ReadU8();
  if (!op.ok()) {
    nack("empty request");
    return;
  }
  switch (static_cast<RegattaOp>(*op)) {
    case RegattaOp::kReport: {
      auto boat = r.ReadString();
      if (!boat.ok()) {
        nack("missing boat");
        return;
      }
      const auto lat = r.ReadF64();
      const auto lon = r.ReadF64();
      const auto speed = r.ReadF64();
      if (!lat.ok() || !lon.ok() || !speed.ok()) {
        nack("bad report");
        return;
      }
      Report(*boat, GeoPoint{*lat, *lon}, *speed);
      ByteWriter w;
      w.WriteU8(1);
      if (w.size() < kEventNotificationBytes) {
        w.WritePadding(kEventNotificationBytes - w.size());
      }
      respond(std::move(w).Take());
      return;
    }
    case RegattaOp::kStandings: {
      ByteWriter w;
      w.WriteU8(1);
      w.WriteRaw(EncodeStandings(Standings()));
      if (w.size() < kEventNotificationBytes) {
        w.WritePadding(kEventNotificationBytes - w.size());
      }
      respond(std::move(w).Take());
      return;
    }
    case RegattaOp::kSubscribe: {
      if (std::find(subscribers_.begin(), subscribers_.end(), from) ==
          subscribers_.end()) {
        subscribers_.push_back(from);
      }
      ByteWriter w;
      w.WriteU8(1);
      respond(std::move(w).Take());
      return;
    }
  }
  nack("unknown opcode");
}

}  // namespace contory::infra
