#include "sim/mobility.hpp"

#include <algorithm>
#include <cmath>

#include "obs/observability.hpp"

namespace contory::sim {
namespace {

/// Straight-line step of at most `step_m` from `from` toward `to`.
/// Returns true when the target was reached this step.
bool StepToward(net::Position& from, net::Position to, double step_m) {
  const double d = net::Distance(from, to);
  if (d <= step_m) {
    from = to;
    return true;
  }
  const double f = step_m / d;
  from.x += (to.x - from.x) * f;
  from.y += (to.y - from.y) * f;
  return false;
}

}  // namespace

net::Position RandomPointIn(const MobilityArea& area, Rng& rng) {
  return net::Position{rng.Uniform(0.0, area.width_m),
                       rng.Uniform(0.0, area.height_m)};
}

MobilityModel::MobilityModel(Simulation& sim, net::Medium& medium,
                             SimDuration tick, std::uint64_t seed)
    : sim_(sim), medium_(medium), tick_(tick), rng_(seed) {}

MobilityModel::~MobilityModel() = default;

void MobilityModel::Manage(net::NodeId id) {
  const auto pos = medium_.GetPosition(id);
  if (!pos.ok()) return;  // unregistered nodes cannot move
  nodes_.push_back(Managed{id, *pos});
  OnManaged(nodes_.size() - 1);
}

void MobilityModel::Start() {
  if (task_ != nullptr) return;
  task_ = std::make_unique<PeriodicTask>(sim_, tick_, [this] { Tick(); });
}

void MobilityModel::Stop() { task_.reset(); }

void MobilityModel::Tick() {
  ++ticks_;
  const std::uint64_t before = position_updates_;
  Advance(ToSeconds(tick_));
  COBS({
    static obs::Counter& updates = obs::Observability::metrics().GetCounter(
        "mobility_position_updates_total");
    updates.Inc(position_updates_ - before);
  });
}

void MobilityModel::CommitPosition(std::size_t index, net::Position pos) {
  Managed& m = nodes_[index];
  m.pos = pos;
  // A node removed from the Medium (e.g. a kNodeLeave fault) keeps its
  // model-side walk so RNG draws stay in step, but is not counted.
  if (medium_.SetPosition(m.id, pos).ok()) ++position_updates_;
}

// --- Random waypoint ----------------------------------------------------

RandomWaypoint::RandomWaypoint(Simulation& sim, net::Medium& medium,
                               RandomWaypointConfig config,
                               std::uint64_t seed)
    : MobilityModel(sim, medium, config.tick, seed), config_(config) {}

void RandomWaypoint::PickWaypoint(State& state) {
  state.target = RandomPointIn(config_.area, rng());
  state.speed_mps = rng().Uniform(config_.speed_min_mps,
                                  config_.speed_max_mps);
}

void RandomWaypoint::OnManaged(std::size_t /*index*/) {
  State state;
  PickWaypoint(state);
  states_.push_back(state);
}

void RandomWaypoint::Advance(double dt_s) {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    State& st = states_[i];
    if (st.pause_left_s > 0.0) {
      st.pause_left_s -= dt_s;
      continue;
    }
    net::Position pos = nodes()[i].pos;
    const bool arrived = StepToward(pos, st.target, st.speed_mps * dt_s);
    CommitPosition(i, pos);
    if (arrived) {
      st.pause_left_s = rng().Uniform(ToSeconds(config_.pause_min),
                                      ToSeconds(config_.pause_max));
      PickWaypoint(st);
    }
  }
}

// --- Commuter flows -----------------------------------------------------

CommuterFlow::CommuterFlow(Simulation& sim, net::Medium& medium,
                           CommuterFlowConfig config, std::uint64_t seed)
    : MobilityModel(sim, medium, config.tick, seed), config_(config) {
  hubs_.reserve(config_.hubs);
  for (std::size_t i = 0; i < config_.hubs; ++i) {
    hubs_.push_back(RandomPointIn(config_.area, rng()));
  }
}

double CommuterFlow::DayPhase(SimTime t) const noexcept {
  const double day_s = ToSeconds(config_.day);
  const double now_s = ToSeconds(t - kSimEpoch);
  return std::fmod(now_s, day_s) / day_s;
}

void CommuterFlow::OnManaged(std::size_t index) {
  State state;
  state.home = nodes()[index].pos;  // where the scenario scattered them
  const net::Position hub =
      hubs_.empty() ? state.home
                    : hubs_[static_cast<std::size_t>(rng().UniformInt(
                          0, static_cast<std::int64_t>(hubs_.size()) - 1))];
  state.work = net::Position{
      std::clamp(hub.x + rng().Normal(0.0, config_.hub_radius_m), 0.0,
                 config_.area.width_m),
      std::clamp(hub.y + rng().Normal(0.0, config_.hub_radius_m), 0.0,
                 config_.area.height_m)};
  state.departure_offset = rng().Uniform(0.0, 0.2);
  states_.push_back(state);
}

void CommuterFlow::Advance(double dt_s) {
  const double phase = DayPhase(sim().Now());
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const State& st = states_[i];
    // First half of the day: head to work once your (jittered) departure
    // phase has passed; second half: head home the same way.
    const bool to_work = phase < 0.5;
    const double half_phase = to_work ? phase * 2.0 : (phase - 0.5) * 2.0;
    if (half_phase < st.departure_offset) continue;  // not departed yet
    const net::Position target = to_work ? st.work : st.home;
    net::Position pos = nodes()[i].pos;
    if (pos.x == target.x && pos.y == target.y) continue;  // arrived
    StepToward(pos, target, config_.speed_mps * dt_s);
    CommitPosition(i, pos);
  }
}

}  // namespace contory::sim
