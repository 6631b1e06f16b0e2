#include "testbed/city_scenario.hpp"

#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "common/logging.hpp"
#include "core/model/cxt_item.hpp"
#include "core/providers/adhoc_provider.hpp"
#include "core/query/parser.hpp"
#include "core/references/wifi_reference.hpp"
#include "obs/clock.hpp"
#include "obs/observability.hpp"

namespace contory::testbed {
namespace {

constexpr const char* kModule = "city";

}  // namespace

CityScenario::CityScenario(CityOptions options)
    : options_(std::move(options)),
      sim_(options_.seed),
      wifi_bus_(medium_),
      profile_(phone::Nokia9500()) {
  clock_token_ = obs::Clock::Install([this] { return sim_.Now(); });
  // Constant density unless the caller pinned the area: the WiFi degree
  // (~pi * range^2 * density) stays flat across fleet sizes, so hop
  // counts measure scale, not crowding.
  side_m_ = options_.area_m > 0.0
                ? options_.area_m
                : 100.0 * std::sqrt(static_cast<double>(options_.phones));
  const sim::MobilityArea area{side_m_, side_m_};

  Rng scatter = sim_.rng().Fork();
  phones_.reserve(options_.phones);
  wifis_.reserve(options_.phones);
  runtimes_.reserve(options_.phones);
  provider_flags_.reserve(options_.phones);

  const net::WifiConfig wifi_config{options_.wifi_range_m};
  for (std::size_t i = 0; i < options_.phones; ++i) {
    const net::Position pos = sim::RandomPointIn(area, scatter);
    const net::NodeId node =
        medium_.Register("city-" + std::to_string(i), pos);
    phones_.push_back(std::make_unique<phone::SmartPhone>(
        sim_, profile_, "city-" + std::to_string(i)));
    wifis_.push_back(std::make_unique<net::WifiController>(
        sim_, wifi_bus_, *phones_.back(), node, wifi_config));
    wifis_.back()->SetEnabled(true);
    runtimes_.push_back(std::make_unique<sm::SmRuntime>(
        sim_, sm_bus_, *wifis_.back(), sm::SmRuntimeConfig{}));
    sm::SmRuntime& rt = *runtimes_.back();
    rt.SetParticipating(true);
    core::RegisterFinderBrick(rt);
    // Home tag: finders route back to their issuer by content-based
    // naming, exactly as ContextFactory-equipped phones advertise it.
    rt.tags().Upsert(core::HomeTagName(node), "1");

    const bool provider = scatter.Bernoulli(options_.provider_fraction);
    provider_flags_.push_back(provider);
    if (provider) {
      ++provider_count_;
      PublishProviderItem(i);
    }
  }

  switch (options_.mobility) {
    case CityOptions::Mobility::kNone:
      break;
    case CityOptions::Mobility::kRandomWaypoint: {
      sim::RandomWaypointConfig config;
      config.area = area;
      config.speed_min_mps = options_.speed_min_mps;
      config.speed_max_mps = options_.speed_max_mps;
      config.tick = options_.mobility_tick;
      mobility_ = std::make_unique<sim::RandomWaypoint>(
          sim_, medium_, config, options_.seed ^ 0x9e3779b97f4a7c15ULL);
      break;
    }
    case CityOptions::Mobility::kCommuter: {
      sim::CommuterFlowConfig config;
      config.area = area;
      config.tick = options_.mobility_tick;
      mobility_ = std::make_unique<sim::CommuterFlow>(
          sim_, medium_, config, options_.seed ^ 0x9e3779b97f4a7c15ULL);
      break;
    }
  }
  if (mobility_ != nullptr) {
    for (std::size_t i = 0; i < phone_count(); ++i) {
      mobility_->Manage(node(i));
    }
    mobility_->Start();
  }
}

CityScenario::~CityScenario() { obs::Clock::Uninstall(clock_token_); }

void CityScenario::PublishProviderItem(std::size_t i) {
  CxtItem item;
  item.id = "city-item-" + std::to_string(node(i));
  item.type = options_.cxt_type;
  // Deterministic pseudo-reading: no rng draw, so republishing never
  // perturbs any other subsystem's stream.
  item.value = 10.0 + static_cast<double>(i % 100) * 0.1;
  item.timestamp = sim_.Now();
  item.source = {SourceKind::kAdHocNetwork,
                 "node:" + std::to_string(node(i))};
  item.metadata.accuracy = 0.5;
  runtimes_[i]->tags().Upsert(core::CxtTagName(options_.cxt_type),
                              core::CxtTagValue(item));
}

void CityScenario::RefreshTags() {
  for (std::size_t i = 0; i < phone_count(); ++i) {
    if (provider_flags_[i]) PublishProviderItem(i);
  }
}

double CityScenario::TotalEnergyJoules() const {
  double joules = 0.0;
  for (const auto& p : phones_) joules += p->energy().TotalEnergyJoules();
  return joules;
}

void CityScenario::LaunchFinder(std::size_t issuer, int num_nodes,
                                int num_hops, SimDuration timeout,
                                FinderCallback done) {
  sm::SmRuntime& rt = runtime(issuer);

  const std::string scope =
      (num_nodes < 0 ? std::string("all") : std::to_string(num_nodes)) +
      "," + std::to_string(num_hops);
  auto query = query::ParseQuery("SELECT " + options_.cxt_type +
                                 " FROM adHocNetwork(" + scope +
                                 ") DURATION 1 hour");
  if (!query.ok()) {
    CLOG_WARN(kModule, "finder query did not parse: %s",
              query.status().ToString().c_str());
    if (done) done(FinderOutcome{});
    return;
  }
  query->id = sim_.ids().NextId("city-q");

  core::FinderState state;
  state.query = *query;
  state.remaining_nodes = num_nodes < 0 ? -1 : num_nodes;

  sm::SmartMessage sm;
  sm.id = sim_.ids().NextId("city-finder");
  sm.code_brick = core::kFinderBrick;
  sm.origin = rt.node();
  sm.target_tag = core::CxtTagName(options_.cxt_type);
  sm.max_hops = num_hops;
  sm.data = state.Encode();

  struct Pending {
    sim::TimerId timer = sim::kInvalidTimer;
    SimTime launched;
    bool settled = false;
    /// Synthetic tracer root for this finder round (0 = obs off): the
    /// hop chain nests under it, so a city trace shows the full route.
    std::uint64_t root_span = 0;
  };
  auto pending = std::make_shared<Pending>();
  pending->launched = sim_.Now();
  COBS({
    phone::SmartPhone& issuer_phone = phone(issuer);
    pending->root_span = obs::Observability::tracer().BeginQuery(
        query->id, sim_.Now(),
        [&issuer_phone] { return issuer_phone.energy().TotalEnergyJoules(); });
    sm.trace_parent = pending->root_span;
  });

  const std::string finder_id = sm.id;
  rt.RegisterReplyHandler(
      finder_id, [this, pending, num_hops, done](sm::SmartMessage reply) {
        if (pending->settled) return;
        pending->settled = true;
        sim_.Cancel(pending->timer);
        FinderOutcome outcome;
        outcome.replied = true;
        outcome.hops = reply.hop_count;
        outcome.latency = sim_.Now() - pending->launched;
        if (const auto state = core::FinderState::Decode(reply.data);
            state.ok()) {
          for (const auto& collected : state->results) {
            // "if hopCnt>numHops the receiver discards the result" — the
            // same rule AdHocCxtProvider applies to returning finders.
            if (num_hops > 0 && collected.hop > num_hops) continue;
            ++outcome.items;
          }
        }
        outcome.success = outcome.items > 0;
        COBS({
          static obs::Histogram& hops =
              obs::Observability::metrics().GetHistogram(
                  "sm_finder_hops", {}, obs::DefaultHopBounds());
          hops.Observe(static_cast<double>(reply.hop_count));
          auto& tracer = obs::Observability::tracer();
          tracer.AddItems(pending->root_span, outcome.items);
          tracer.EndQuery(pending->root_span, sim_.Now(),
                          outcome.success ? "ok" : "replied-empty");
        });
        if (done) done(outcome);
      });

  pending->timer = sim_.ScheduleAfter(
      timeout,
      [this, pending, issuer, finder_id, done] {
        if (pending->settled) return;
        pending->settled = true;
        runtime(issuer).UnregisterReplyHandler(finder_id);
        FinderOutcome outcome;
        outcome.latency = sim_.Now() - pending->launched;
        COBS(obs::Observability::tracer().EndQuery(pending->root_span,
                                                   sim_.Now(), "timeout"));
        if (done) done(outcome);
      },
      "city.finder_timeout");

  const Status injected = rt.Inject(std::move(sm));
  if (!injected.ok() && !pending->settled) {
    pending->settled = true;
    sim_.Cancel(pending->timer);
    rt.UnregisterReplyHandler(finder_id);
    COBS(obs::Observability::tracer().EndQuery(pending->root_span, sim_.Now(),
                                               "rejected:admission"));
    FinderOutcome outcome;
    if (done) done(outcome);
  }
}

}  // namespace contory::testbed
