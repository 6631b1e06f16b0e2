// city_mobile and city_static: SM-FINDER lookup over a city of phones.
//
// Both build city_scale's fleet: area 70 * sqrt(N) m, 25% providers, hop
// budget 10 and city_scale's finder timeout. city_mobile moves the fleet
// with RandomWaypoint (20 s of dispersal in set-up) and runs sequential
// finder rounds while it keeps moving, so the mobility tick and Medium
// cell migration carry the host time. city_static turns mobility off and
// launches finders open-loop at a fixed simulated rate from seeded
// issuers, so SM routing, NodesWithin reads, WiFi frames and event
// scheduling carry it. There is no ContextFactory in either.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/references/wifi_reference.hpp"
#include "obs/observability.hpp"
#include "probes.hpp"
#include "testbed/city_scenario.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace contory;
using namespace std::chrono_literals;
using FinderOutcome = testbed::CityScenario::FinderOutcome;

/// Fleet sizes. The mobility tick touches every phone every second; past
/// about 10k phones its random Medium updates miss the caches and swing
/// with the memory traffic of whatever shares the host, so the moving
/// fleet is kept at 5k and the static one at 10k.
constexpr std::size_t kMobilePhones = 5'000;
constexpr std::size_t kStaticPhones = 10'000;
constexpr int kHopBudget = 10;
constexpr int kSetups = 5;
/// city_scale's finder timeout: the SM hop budget AdHocCxtProvider uses.
constexpr SimDuration kTimeout =
    std::chrono::milliseconds{1500 * 2 * (kHopBudget + 1)};
/// A mobile round is one launch, then the timeout plus 5 s of movement.
constexpr std::uint64_t kRoundSeconds = 33 + 5;
constexpr std::uint64_t kExactRounds = 20;
/// city_static's open-loop rate, finders per simulated second.
constexpr std::uint64_t kStaticRate = 4;
constexpr std::uint64_t kExactStaticSeconds = 150;
/// Set-up of the static city ends with this much of its open loop, longer
/// than a finder's timeout.
constexpr std::uint64_t kWarmupSeconds = 40;
/// Simulated seconds per measurement window, about 20 ms of host time: two
/// finder rounds of the mobile city, eight seconds of the static one.
constexpr std::size_t kMobileWindowSeconds = 2 * kRoundSeconds;
constexpr std::size_t kStaticWindowSeconds = 8;
/// Phones sampled for the NodesWithin / NextHopTowardTag timings.
constexpr std::size_t kProbePhones = 256;

/// One launched finder; filled in when its outcome arrives.
struct FinderSlot {
  bool settled = false;
  FinderOutcome outcome;
};

struct City {
  City(std::uint64_t seed, bool mobile)
      : phones(mobile ? kMobilePhones : kStaticPhones) {
    testbed::CityOptions options;
    options.phones = phones;
    options.area_m = 70.0 * std::sqrt(static_cast<double>(phones));
    options.provider_fraction = 0.25;
    options.seed = seed;
    options.mobility = mobile ? testbed::CityOptions::Mobility::kRandomWaypoint
                              : testbed::CityOptions::Mobility::kNone;
    city = std::make_unique<testbed::CityScenario>(options);
    if (mobile) city->sim().RunFor(20s);  // disperse from the uniform scatter
  }

  /// Launches one finder from `issuer`; its outcome lands in finders.
  void Launch(std::size_t issuer) {
    const std::size_t slot = finders.size();
    finders.emplace_back();
    if (spans != nullptr) spans->Begin("LaunchFinder", "sm");
    city->LaunchFinder(issuer, /*num_nodes=*/-1, kHopBudget, kTimeout,
                       [this, slot](FinderOutcome o) {
                         finders[slot].settled = true;
                         finders[slot].outcome = o;
                       });
    if (spans != nullptr) launch_us.push_back(spans->End() / 1e3);
  }

  [[nodiscard]] std::uint64_t SumAdmitted() {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < phones; ++i) n += city->runtime(i).admitted();
    return n;
  }
  [[nodiscard]] std::uint64_t SumRejected() {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < phones; ++i) n += city->runtime(i).rejected();
    return n;
  }

  std::size_t phones;
  std::unique_ptr<testbed::CityScenario> city;
  std::vector<FinderSlot> finders;
  /// Non-null while launches are traced.
  SpanRecorder* spans = nullptr;
  std::vector<double> launch_us;
};

/// Drives either city workload, one simulated second at a time.
class CityRun {
 public:
  CityRun(const RunConfig& config, bool mobile)
      : config_(config), mobile_(mobile), pick_(IssuerSeed()) {}

  Outcome Run(SpanRecorder& spans);

 private:
  [[nodiscard]] std::uint64_t IssuerSeed() const {
    return config_.seed ^ 0xc1f7ULL;
  }
  /// Builds the city; the static one then runs kWarmupSeconds of its open
  /// loop so the timed phase starts with its steady in-flight finders.
  void SetUp();
  /// Schedules one simulated second of the static city's open loop.
  void ScheduleLaunches();
  /// Issues this simulated second's launches, then advances the clock by
  /// one second.
  void Second(SecondStepper& stepper, bool traced, SpanRecorder& spans);
  [[nodiscard]] std::int64_t PhoneIndexMax() const {
    return static_cast<std::int64_t>(c_->phones) - 1;
  }
  [[nodiscard]] std::uint64_t ExactSeconds() const {
    return mobile_ ? kExactRounds * kRoundSeconds : kExactStaticSeconds;
  }
  [[nodiscard]] std::size_t WindowSeconds() const {
    return mobile_ ? kMobileWindowSeconds : kStaticWindowSeconds;
  }
  /// The exact (per-seed) outputs: finders [first, last) and the fleet's
  /// energy over the exact window.
  void SetExactMetrics(std::size_t first, std::size_t last, double joules,
                       Outcome& out) const;

  RunConfig config_;
  bool mobile_;
  Rng pick_;
  std::unique_ptr<City> c_;
  std::uint64_t seconds_ = 0;
};

void CityRun::SetUp() {
  c_.reset();  // tear down the previous city before building the next
  obs::Observability::ResetForTest();
  pick_ = Rng{IssuerSeed()};
  c_ = std::make_unique<City>(config_.seed, mobile_);
  if (!mobile_) {
    for (std::uint64_t i = 0; i < kWarmupSeconds; ++i) {
      ScheduleLaunches();
      c_->city->sim().RunFor(1s);
    }
  }
}

void CityRun::ScheduleLaunches() {
  City& c = *c_;
  sim::Simulation& sim = c.city->sim();
  for (std::uint64_t i = 0; i < kStaticRate; ++i) {
    const auto issuer =
        static_cast<std::size_t>(pick_.UniformInt(0, PhoneIndexMax()));
    sim.ScheduleAt(sim.Now() + i * std::chrono::milliseconds{1000} /
                                   kStaticRate,
                   [&c, issuer] { c.Launch(issuer); }, "perfbench.launch");
  }
}

void CityRun::Second(SecondStepper& stepper, bool traced,
                     SpanRecorder& spans) {
  if (!mobile_) {
    ScheduleLaunches();
  } else if (seconds_ % kRoundSeconds == 0) {
    c_->Launch(static_cast<std::size_t>(pick_.UniformInt(0, PhoneIndexMax())));
  }
  if (traced) {
    stepper.AdvanceTraced(spans);
  } else {
    stepper.Advance();
  }
  ++seconds_;
}

void CityRun::SetExactMetrics(std::size_t first, std::size_t last,
                              double joules, Outcome& out) const {
  const std::size_t exact_finders = last - first;
  std::size_t success = 0;
  std::size_t items = 0;
  std::vector<double> latency_ms;
  double hops = 0.0;
  for (std::size_t i = first; i < last; ++i) {
    const FinderOutcome& o = c_->finders[i].outcome;
    success += o.success ? 1 : 0;
    items += o.items;
    if (o.replied) {
      latency_ms.push_back(ToSeconds(o.latency) * 1e3);
      hops += o.hops;
    }
  }
  const auto n = static_cast<double>(std::max<std::size_t>(exact_finders, 1));
  MetricSet& layer = out.per_layer;
  layer.Set("sm.finder_success_rate", static_cast<double>(success) / n,
            exact_finders);
  SetPercentile(layer, "sm.finder_latency_p50_ms", latency_ms, 0.50);
  layer.Set("sm.hops_per_finder",
            latency_ms.empty() ? 0.0
                               : hops / static_cast<double>(latency_ms.size()),
            latency_ms.size());
  layer.Set("sm.items_per_finder", static_cast<double>(items) / n,
            exact_finders);
  const double mw = joules / static_cast<double>(ExactSeconds()) /
                    static_cast<double>(c_->phones) * 1e3;
  layer.Set("sim.avg_power_mw", mw, ExactSeconds());
  char note[200];
  std::snprintf(note, sizeof note,
                "exact over the first %llu simulated s: %zu finders, "
                "success %.4f, latency p50 %.3f ms, %.4f mW per phone",
                static_cast<unsigned long long>(ExactSeconds()), exact_finders,
                static_cast<double>(success) / n,
                layer.Get("sm.finder_latency_p50_ms").value, mw);
  out.notes.push_back(note);
}

Outcome CityRun::Run(SpanRecorder& spans) {
  Outcome out;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = NowNs();
    SetUp();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  City& c = *c_;
  testbed::CityScenario& city = *c.city;
  sim::Simulation& sim = city.sim();
  sim::MobilityModel* mobility = city.mobility();
  SecondStepper stepper(sim, [mobility] {
    return StepSignals{mobility != nullptr ? mobility->ticks() : 0, 0,
                       WifiFrames(), NeighborQueries()};
  });

  // Untraced phase: one simulated second per operation, at least the
  // exact window's worth.
  const double untraced_s =
      config_.trace ? config_.seconds / 2 : config_.seconds;
  Windows windows{WindowSeconds()};
  double rss_mb = 0.0;
  double exact_joules = 0.0;
  const std::size_t first_finder = c.finders.size();
  std::size_t exact_end = first_finder;
  const double joules0 = city.TotalEnergyJoules();
  const std::int64_t start = NowNs();
  windows.Start();
  const auto budget = static_cast<std::int64_t>(untraced_s * 1e9);
  while (true) {
    const std::int64_t t0 = NowNs();
    Second(stepper, false, spans);
    const std::int64_t t1 = NowNs();
    windows.Add(static_cast<double>(t1 - t0) / 1e3);
    if (seconds_ == ExactSeconds()) {
      rss_mb = PeakRssMb();
      exact_joules = city.TotalEnergyJoules() - joules0;
      exact_end = c.finders.size();
    }
    if (seconds_ >= ExactSeconds() && t1 - start >= budget) break;
  }

  SetSetupTime(setup_s, out);
  out.end_to_end.Set("peak_rss_mb", rss_mb, 1);
  windows.SetEndToEnd("one simulated second (throughput = simulated s "
                      "per host s)",
                      out);

  MetricSet& layer = out.per_layer;
  if (config_.trace) {
    const std::uint64_t events0 = sim.events_dispatched();
    const std::uint64_t updates0 =
        mobility != nullptr ? mobility->position_updates() : 0;
    const std::uint64_t frames0 =
        HistogramCount("radio_frame_airtime_ms", {{"radio", "wifi"}});
    const std::uint64_t neighbor0 = NeighborQueries();
    const std::uint64_t admitted0 = c.SumAdmitted();
    std::size_t steps = 0;
    Windows traced_windows{WindowSeconds()};
    c.spans = &spans;
    const std::int64_t t0 = NowNs();
    const auto traced_budget =
        static_cast<std::int64_t>(config_.seconds / 2 * 1e9);
    spans.Begin(mobile_ ? "city_mobile" : "city_static", "harness");
    while (steps == 0 || NowNs() - t0 < traced_budget) {
      const std::int64_t s0 = NowNs();
      Second(stepper, true, spans);
      traced_windows.Add(static_cast<double>(NowNs() - s0) / 1e3);
      ++steps;
    }
    spans.End();
    c.spans = nullptr;
    const std::uint64_t updates =
        (mobility != nullptr ? mobility->position_updates() : 0) - updates0;

    layer.Set("sim.events",
              static_cast<double>(sim.events_dispatched() - events0 -
                                  stepper.sentinels()),
              1);
    SetPercentile(layer, "sim.step_us_p50", stepper.step_us(), 0.50);
    SetPercentile(layer, "sim.step_us_p99", stepper.step_us(), 0.99);
    layer.Set("sim.pending_peak", static_cast<double>(stepper.pending_peak()),
              stepper.step_us().size());
    SetPercentile(layer, "sim.mobility.tick_ms_p50", stepper.tick_ms(), 0.50);
    layer.Set("sim.mobility.position_updates", static_cast<double>(updates),
              1);
    layer.Set("sim.mobility.ns_per_update",
              updates > 0 ? stepper.tick_ns_total() /
                                static_cast<double>(updates)
                          : 0.0,
              updates);
    layer.Set("net.medium.neighbor_queries",
              static_cast<double>(NeighborQueries() - neighbor0), 1);
    layer.Set("net.wifi.frames",
              static_cast<double>(HistogramCount("radio_frame_airtime_ms",
                                                 {{"radio", "wifi"}}) -
                                  frames0),
              1);
    layer.Set("sm.migrations",
              static_cast<double>(c.SumAdmitted() - admitted0), 1);
    SetPercentile(layer, "sm.finder_launch_us_p50", c.launch_us, 0.50);
    SetHostShares(spans, layer);
    layer.Set("obs.tracing_overhead_pct",
              OverheadPct(windows, traced_windows), 2);

    // Single-call timings from sampled phones, after the run.
    const double range = city.options().wifi_range_m;
    const std::string tag = core::CxtTagName(city.options().cxt_type);
    std::vector<double> within_us;
    std::vector<double> next_hop_us;
    for (std::size_t i = 0; i < c.phones; i += c.phones / kProbePhones) {
      std::int64_t t = NowNs();
      const auto hits = city.medium().NodesWithin(city.node(i), range);
      within_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
      t = NowNs();
      const auto hop = city.runtime(i).NextHopTowardTag(tag);
      next_hop_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
      if (hits.size() > c.phones ||
          (hop.ok() && *hop == net::kInvalidNode)) {
        std::abort();  // keeps both results observable
      }
    }
    SetPercentile(layer, "net.medium.nodes_within_us_p50", within_us, 0.50);
    SetPercentile(layer, "sm.next_hop_us_p50", next_hop_us, 0.50);
    layer.Set("net.medium.occupied_cells",
              static_cast<double>(city.medium().occupied_cells()), 1);
    layer.Set("net.medium.mean_cell_occupancy",
              city.medium().mean_cell_occupancy(),
              city.medium().occupied_cells());
  }

  // Quiescence: no more launches; let every finder settle.
  sim.RunFor(kTimeout + 5s);
  SetExactMetrics(first_finder, exact_end, exact_joules, out);
  const std::vector<FinderSlot>& f = c.finders;
  std::size_t unsettled = 0;
  std::size_t over_budget = 0;
  for (const FinderSlot& s : f) {
    unsettled += s.settled ? 0 : 1;
    if (s.outcome.replied && s.outcome.hops > 2 * kHopBudget) ++over_budget;
  }
  out.CountOps(f.size(), unsettled, "finders never settled");
  if (mobile_) {
    // Moving phones re-route the homeward leg hop by hop over a changing
    // topology, so the round trip has no enforced bound; report it only.
    out.notes.push_back(std::to_string(over_budget) + " of " +
                        std::to_string(f.size()) +
                        " replies took over twice the hop budget");
  } else {
    // On a static topology the outbound leg stops at the hop budget and
    // the homeward leg is a shortest path back, so a round trip takes at
    // most twice the budget.
    out.CountOps(f.size(), over_budget,
                 "finder replies over twice the hop budget");
  }
  const std::uint64_t rejects = c.SumRejected();
  layer.Set("sm.admission_rejects", static_cast<double>(rejects), 1);
  CheckQuiescentSpans(out);
  return out;
}

}  // namespace

Outcome RunCityMobile(const RunConfig& config, SpanRecorder& spans) {
  return CityRun(config, /*mobile=*/true).Run(spans);
}

Outcome RunCityStatic(const RunConfig& config, SpanRecorder& spans) {
  return CityRun(config, /*mobile=*/false).Run(spans);
}

}  // namespace perfbench
