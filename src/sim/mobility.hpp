// Mobility subsystem: deterministic movement models over the Medium.
//
// The paper's field trial moved a handful of sailing boats by hand-fed
// GPS tracks; city-scale scenarios need thousands of phones moving under
// synthetic models instead. Each model manages a set of registered
// Medium nodes and batch-updates their positions from one PeriodicTask
// tick on the simulation event loop, so runs stay exactly reproducible:
//
//   Determinism rules (see docs/ARCHITECTURE.md "Medium & mobility"):
//   1. every stochastic draw comes from the model's own seeded Rng;
//   2. draws happen only at Manage() time and inside Advance(), always
//      iterating managed nodes in Manage() order;
//   3. position writes go through Medium::SetPosition on the sim thread,
//      one batch per tick — the spatial grid migrates cells in place.
//
// Models: RandomWaypoint (pick a waypoint, walk to it, pause, repeat —
// the MANET literature's default) and CommuterFlow (homes scattered over
// the area, workplaces clustered around a few hubs, everyone commuting
// on a shared day cycle — rush-hour density waves for SM-FINDER stress).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/medium.hpp"
#include "sim/simulation.hpp"

namespace contory::sim {

/// Axis-aligned world rectangle [0, width] x [0, height], meters.
struct MobilityArea {
  double width_m = 1000.0;
  double height_m = 1000.0;
};

/// Uniform random point in `area` (used for initial scatter and
/// waypoints; one draw for x, one for y — stream-stable).
[[nodiscard]] net::Position RandomPointIn(const MobilityArea& area, Rng& rng);

class MobilityModel {
 public:
  MobilityModel(Simulation& sim, net::Medium& medium, SimDuration tick,
                std::uint64_t seed);
  virtual ~MobilityModel();

  MobilityModel(const MobilityModel&) = delete;
  MobilityModel& operator=(const MobilityModel&) = delete;

  /// Takes over movement of `id`, starting from its current Medium
  /// position. Nodes advance in Manage() order every tick.
  void Manage(net::NodeId id);

  /// Arms the periodic tick (idempotent). Models start stopped so a
  /// scenario can bulk-Manage its fleet first.
  void Start();
  void Stop();
  [[nodiscard]] bool running() const noexcept { return task_ != nullptr; }

  [[nodiscard]] SimDuration tick() const noexcept { return tick_; }
  [[nodiscard]] std::size_t managed_count() const noexcept {
    return nodes_.size();
  }
  /// Total successful SetPosition writes (the grid-migration traffic);
  /// writes to a node no longer in the Medium are not counted.
  [[nodiscard]] std::uint64_t position_updates() const noexcept {
    return position_updates_;
  }
  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }

 protected:
  struct Managed {
    net::NodeId id;
    net::Position pos;  // model-side copy; Medium holds the truth too
  };

  /// Moves every managed node forward by `dt_s` seconds of model time.
  virtual void Advance(double dt_s) = 0;
  /// Called after a node is appended to nodes_ (draw per-node state).
  virtual void OnManaged(std::size_t index) = 0;

  /// Writes a node's new position into the Medium (incremental grid
  /// cell migration) and the model-side copy.
  void CommitPosition(std::size_t index, net::Position pos);

  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  [[nodiscard]] Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] net::Medium& medium() noexcept { return medium_; }
  [[nodiscard]] std::vector<Managed>& nodes() noexcept { return nodes_; }

 private:
  void Tick();

  Simulation& sim_;
  net::Medium& medium_;
  SimDuration tick_;
  Rng rng_;
  std::vector<Managed> nodes_;
  std::unique_ptr<PeriodicTask> task_;
  std::uint64_t position_updates_ = 0;
  std::uint64_t ticks_ = 0;
};

// --- Random waypoint ----------------------------------------------------

struct RandomWaypointConfig {
  MobilityArea area;
  double speed_min_mps = 0.5;  // pedestrian stroll
  double speed_max_mps = 2.0;  // brisk walk
  SimDuration pause_min = SimDuration::zero();
  SimDuration pause_max = std::chrono::seconds{30};
  SimDuration tick = std::chrono::seconds{1};
};

class RandomWaypoint final : public MobilityModel {
 public:
  RandomWaypoint(Simulation& sim, net::Medium& medium,
                 RandomWaypointConfig config, std::uint64_t seed);

 protected:
  void Advance(double dt_s) override;
  void OnManaged(std::size_t index) override;

 private:
  struct State {
    net::Position target;
    double speed_mps = 1.0;
    double pause_left_s = 0.0;
  };
  void PickWaypoint(State& state);

  RandomWaypointConfig config_;
  std::vector<State> states_;
};

// --- Commuter flows -----------------------------------------------------

struct CommuterFlowConfig {
  MobilityArea area;
  /// Workplaces cluster around this many hub points (drawn once from the
  /// model seed), giving the morning rush its density spikes.
  std::size_t hubs = 4;
  double hub_radius_m = 150.0;
  double speed_mps = 8.0;  // vehicular commute
  /// One simulated day cycle: home -> work -> home per `day`.
  SimDuration day = std::chrono::minutes{10};
  SimDuration tick = std::chrono::seconds{1};
};

class CommuterFlow final : public MobilityModel {
 public:
  CommuterFlow(Simulation& sim, net::Medium& medium,
               CommuterFlowConfig config, std::uint64_t seed);

  /// Phase in [0,1) of the shared day cycle at `t`; first half heads to
  /// work, second half heads home.
  [[nodiscard]] double DayPhase(SimTime t) const noexcept;

 protected:
  void Advance(double dt_s) override;
  void OnManaged(std::size_t index) override;

 private:
  struct State {
    net::Position home;
    net::Position work;
    /// Per-node departure jitter in [0, 0.2) of a half day, so the fleet
    /// does not move in lockstep.
    double departure_offset = 0.0;
  };

  CommuterFlowConfig config_;
  std::vector<net::Position> hubs_;
  std::vector<State> states_;
};

}  // namespace contory::sim
