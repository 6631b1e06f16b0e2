// City-scale scenario builder: 1k-100k lightweight phones on one Medium.
//
// The paper's testbed assembled a handful of full Nokia phones; the
// ROADMAP's city-scale workload needs orders of magnitude more. A full
// testbed::Device carries BT, cellular, the fault-injector registry and a
// whole Contory pipeline per phone — far more than a crowd extra needs.
// CityScenario bulk-constructs *lightweight* phones instead: one shared
// hardware profile, WiFi + Smart-Messages runtime only (the multi-hop
// SM-FINDER substrate), no BT/cellular/Contory wiring. A configurable
// fraction of phones publishes a context tag (the "providers"); every
// phone participates in the SM overlay and exposes its home tag so
// finders can route back.
//
// Movement comes from the sim/mobility models; queries are raw SM-FINDER
// rounds launched straight at the SM runtime — the same code bricks the
// AdHocCxtProvider uses, without per-phone middleware overhead — so the
// scenario measures the *network and runtime* cost of city-scale context
// lookup (success rate, hops, energy), not pipeline bookkeeping.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/medium.hpp"
#include "net/wifi.hpp"
#include "phone/phone_profiles.hpp"
#include "phone/smart_phone.hpp"
#include "sim/mobility.hpp"
#include "sim/simulation.hpp"
#include "sm/sm_runtime.hpp"

namespace contory::testbed {

struct CityOptions {
  std::size_t phones = 1000;
  /// Square world side; 0 = auto-scale so node density stays constant
  /// (~1 node / 100 m^2-ish: side = 100 * sqrt(phones)), keeping the
  /// WiFi degree — and so the routing difficulty — comparable across
  /// fleet sizes.
  double area_m = 0.0;
  double wifi_range_m = 100.0;
  /// Fraction of phones exposing the context tag (the providers).
  double provider_fraction = 0.25;
  std::string cxt_type = "temperature";
  std::uint64_t seed = 1;

  enum class Mobility : std::uint8_t { kNone, kRandomWaypoint, kCommuter };
  Mobility mobility = Mobility::kRandomWaypoint;
  SimDuration mobility_tick = std::chrono::seconds{1};
  /// RandomWaypoint speeds; CommuterFlow uses its own vehicular speed.
  double speed_min_mps = 0.5;
  double speed_max_mps = 2.0;
};

class CityScenario {
 public:
  explicit CityScenario(CityOptions options);
  ~CityScenario();

  CityScenario(const CityScenario&) = delete;
  CityScenario& operator=(const CityScenario&) = delete;

  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] net::Medium& medium() noexcept { return medium_; }
  [[nodiscard]] const CityOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] double area_side_m() const noexcept { return side_m_; }

  [[nodiscard]] std::size_t phone_count() const noexcept {
    return phones_.size();
  }
  [[nodiscard]] std::size_t provider_count() const noexcept {
    return provider_count_;
  }
  [[nodiscard]] net::NodeId node(std::size_t i) const {
    return wifis_.at(i)->node();
  }
  [[nodiscard]] phone::SmartPhone& phone(std::size_t i) {
    return *phones_.at(i);
  }
  [[nodiscard]] sm::SmRuntime& runtime(std::size_t i) {
    return *runtimes_.at(i);
  }
  [[nodiscard]] bool is_provider(std::size_t i) const {
    return provider_flags_.at(i);
  }
  /// nullptr when options.mobility == kNone.
  [[nodiscard]] sim::MobilityModel* mobility() noexcept {
    return mobility_.get();
  }

  /// Outcome of one SM-FINDER round, reported to the launch callback.
  struct FinderOutcome {
    bool success = false;     // >= 1 valid item back before the timeout
    bool replied = false;     // finder made it home at all
    int hops = 0;             // hop_count of the returning SM
    std::size_t items = 0;    // results surviving the hopCnt<=numHops rule
    SimDuration latency{};    // launch -> reply (or timeout)
  };
  using FinderCallback = std::function<void(FinderOutcome)>;

  /// Launches an SM-FINDER for the scenario's context type from phone
  /// `issuer`: same code brick and routing as AdHocCxtProvider's WiFi
  /// transport. `num_nodes` = how many provider items to collect
  /// (-1 = all reachable), `num_hops` = hop budget (0 = unbounded).
  void LaunchFinder(std::size_t issuer, int num_nodes, int num_hops,
                    SimDuration timeout, FinderCallback done);

  /// Re-publishes provider items stamped at the current sim time (for
  /// freshness-sensitive sweeps).
  void RefreshTags();

  /// Sum of every phone's energy ledger, integrated to now (Joules).
  [[nodiscard]] double TotalEnergyJoules() const;

 private:
  void PublishProviderItem(std::size_t i);

  CityOptions options_;
  double side_m_ = 0.0;
  sim::Simulation sim_;
  net::Medium medium_;
  net::WifiBus wifi_bus_;
  sm::SmBus sm_bus_;
  phone::PhoneProfile profile_;  // shared by the whole fleet
  std::vector<std::unique_ptr<phone::SmartPhone>> phones_;
  std::vector<std::unique_ptr<net::WifiController>> wifis_;
  std::vector<std::unique_ptr<sm::SmRuntime>> runtimes_;
  std::vector<bool> provider_flags_;
  std::size_t provider_count_ = 0;
  std::unique_ptr<sim::MobilityModel> mobility_;
  /// obs::Clock installation owned by this scenario (0 = superseded).
  std::uint64_t clock_token_ = 0;
};

}  // namespace contory::testbed
