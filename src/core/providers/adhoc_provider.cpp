#include "core/providers/adhoc_provider.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/logging.hpp"
#include "core/publisher.hpp"
#include "core/query/predicate.hpp"
#include "obs/observability.hpp"

namespace contory::core {
namespace {

constexpr const char* kModule = "adhoc";
constexpr SimDuration kDiscoveryMaxAge = std::chrono::seconds{60};
/// Per-hop budget for the finder round-trip timeout: a hop costs ~0.4 s
/// (Table 1 break-up); allow generous margin.
constexpr SimDuration kPerHopTimeout = std::chrono::milliseconds{1'500};

}  // namespace

std::string HomeTagName(net::NodeId node) {
  return "contory.node." + std::to_string(node);
}

std::vector<std::byte> FinderState::Encode() const {
  ByteWriter w;
  const auto qbytes = query.Serialize();
  w.WriteU32(static_cast<std::uint32_t>(qbytes.size()));
  w.WriteRaw(qbytes);
  w.WriteI64(remaining_nodes);
  w.WriteBool(homeward);
  w.WriteU32(static_cast<std::uint32_t>(results.size()));
  for (const auto& c : results) {
    c.item.Encode(w);
    w.WriteI64(c.hop);
  }
  return std::move(w).Take();
}

Result<FinderState> FinderState::Decode(const std::vector<std::byte>& data) {
  ByteReader r{data};
  FinderState state;
  const auto qlen = r.ReadU32();
  if (!qlen.ok()) return qlen.status();
  const auto qbytes = r.ReadBytes(*qlen);
  if (!qbytes.ok()) return qbytes.status();
  auto q = query::CxtQuery::Deserialize(*qbytes);
  if (!q.ok()) return q.status();
  state.query = *std::move(q);
  const auto remaining = r.ReadI64();
  if (!remaining.ok()) return remaining.status();
  state.remaining_nodes = static_cast<int>(*remaining);
  const auto homeward = r.ReadBool();
  if (!homeward.ok()) return homeward.status();
  state.homeward = *homeward;
  const auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto item = CxtItem::Deserialize(r);
    if (!item.ok()) return item.status();
    const auto hop = r.ReadI64();
    if (!hop.ok()) return hop.status();
    state.results.push_back(
        Collected{*std::move(item), static_cast<int>(*hop)});
  }
  return state;
}

namespace {

/// One step of SM-FINDER execution at the current node. Factored out of
/// the brick lambda for testability.
void FinderStep(sm::SmContext& ctx, sm::SmartMessage sm) {
  auto state = FinderState::Decode(sm.data);
  if (!state.ok()) {
    CLOG_WARN(kModule, "finder %s: bad state, dying: %s", sm.id.c_str(),
              state.status().ToString().c_str());
    return;
  }
  const std::string home_tag = HomeTagName(sm.origin);
  const std::string cxt_tag = CxtTagName(state->query.select_type);

  const auto go_home = [&](FinderState st) {
    st.homeward = true;
    sm.data = st.Encode();
    if (ctx.node == sm.origin) {
      ctx.runtime.DeliverReply(std::move(sm));
      return;
    }
    const auto next = ctx.runtime.NextHopTowardTag(home_tag);
    if (next.ok()) {
      ctx.runtime.Migrate(std::move(sm), *next);
    }
    // No route home: the SM dies; the issuer's timeout covers it.
  };

  if (state->homeward) {
    go_home(*std::move(state));
    return;
  }

  // Collect at this node (never at the origin itself: adHocNetwork asks
  // *other* nodes).
  if (ctx.node != sm.origin && ctx.runtime.tags().Has(cxt_tag)) {
    const auto tag = ctx.runtime.tags().Read(cxt_tag);  // public items only
    if (tag.ok()) {
      const auto bytes = FromHex(tag->value);
      if (bytes.ok()) {
        auto item = CxtItem::Deserialize(*bytes);
        if (item.ok()) {
          // "WHERE, FRESHNESS and EVENTS requirements specified in the
          // query are evaluated" at the provider's node.
          bool matches = !item->IsExpired(ctx.sim.Now());
          if (matches && state->query.freshness.has_value()) {
            matches = item->IsFresh(ctx.sim.Now(), *state->query.freshness);
          }
          if (matches && state->query.where.has_value()) {
            const auto ok = query::EvalWhere(*state->query.where, *item);
            matches = ok.ok() && *ok;
          }
          const bool already =
              std::any_of(state->results.begin(), state->results.end(),
                          [&](const FinderState::Collected& c) {
                            return c.item.id == item->id;
                          });
          if (matches && !already) {
            item->source = {SourceKind::kAdHocNetwork,
                            "node:" + std::to_string(ctx.node)};
            state->results.push_back(
                FinderState::Collected{*std::move(item), sm.hop_count});
            if (state->remaining_nodes > 0) --state->remaining_nodes;
          }
        }
      }
    }
  }

  // Budget checks: enough nodes collected, or hop budget exhausted.
  if (state->remaining_nodes == 0 ||
      (sm.max_hops > 0 && sm.hop_count >= sm.max_hops)) {
    go_home(*std::move(state));
    return;
  }

  // Continue outward toward the nearest *unvisited* node with the tag.
  std::unordered_set<net::NodeId> exclude{sm.visited.begin(),
                                          sm.visited.end()};
  exclude.insert(sm.origin);
  const auto next = ctx.runtime.NextHopTowardTag(cxt_tag, exclude);
  if (!next.ok()) {
    go_home(*std::move(state));
    return;
  }
  sm.data = state->Encode();
  ctx.runtime.Migrate(std::move(sm), *next);
}

}  // namespace

void RegisterFinderBrick(sm::SmRuntime& runtime) {
  if (runtime.HasCodeBrick(kFinderBrick)) return;
  runtime.RegisterCodeBrick(
      kFinderBrick, kFinderCodeBytes,
      [](sm::SmContext& ctx, sm::SmartMessage sm) {
        FinderStep(ctx, std::move(sm));
      });
}

AdHocCxtProvider::AdHocCxtProvider(sim::Simulation& sim,
                                   query::CxtQuery query, Callbacks callbacks,
                                   BTReference& bt, WiFiReference& wifi,
                                   AccessController& access, Client* client,
                                   AdHocTransport transport,
                                   int finder_retries)
    : CxtProvider(sim, std::move(query), std::move(callbacks)),
      bt_(bt),
      wifi_(wifi),
      access_(access),
      client_(client),
      transport_policy_(transport),
      finder_retries_(finder_retries),
      retries_left_(finder_retries) {}

AdHocCxtProvider::~AdHocCxtProvider() {
  *life_ = false;
  DoStop();
}

bool AdHocCxtProvider::CanServe(const BTReference& bt,
                                const WiFiReference& wifi) {
  return bt.Available() || wifi.Available();
}

query::AdHocScope AdHocCxtProvider::Scope() const {
  for (const auto& src : query().from.sources) {
    if (src.kind == query::SourceSel::kAdHocNetwork &&
        src.scope.has_value()) {
      return *src.scope;
    }
  }
  return query::AdHocScope{};  // all nodes, 1 hop
}

void AdHocCxtProvider::DoStart() {
  const query::AdHocScope scope = Scope();
  switch (transport_policy_) {
    case AdHocTransport::kForceBt:
      use_wifi_ = false;
      break;
    case AdHocTransport::kAuto:
      // "BTReference (only for one-hop routing) or the WiFiReference
      // (also for multi-hop routing)": multi-hop scope needs WiFi; for
      // one hop prefer the cheap radio when present.
      if (scope.num_hops > 1) {
        use_wifi_ = wifi_.Available();
      } else {
        use_wifi_ = !bt_.Available() && wifi_.Available();
      }
      break;
  }
  if (use_wifi_) {
    if (!wifi_.Available()) {
      sim().ScheduleAfter(SimDuration::zero(), [this, life = life_] {
        if (*life && running()) Fail(Unavailable("wifi unavailable"));
      });
      return;
    }
    WifiLaunchRound();
    if (query().mode() != query::InteractionMode::kOnDemand) {
      round_timer_ = std::make_unique<sim::PeriodicTask>(
          sim(), DefaultPollPeriod(), [this] { WifiLaunchRound(); });
    }
    return;
  }
  if (!bt_.Available()) {
    sim().ScheduleAfter(SimDuration::zero(), [this, life = life_] {
      if (*life && running()) Fail(Unavailable("bluetooth unavailable"));
    });
    return;
  }
  BtStart();
}

void AdHocCxtProvider::DoStop() {
  round_timer_.reset();
  sim().Cancel(finder_timeout_);
  finder_timeout_ = sim::kInvalidTimer;
  if (!active_finder_id_.empty() && wifi_.sm() != nullptr) {
    wifi_.sm()->UnregisterReplyHandler(active_finder_id_);
    active_finder_id_.clear();
  }
  if (bt_data_listener_ != 0) {
    bt_.RemoveDataListener(bt_data_listener_);
    bt_data_listener_ = 0;
  }
  if (bt_disc_listener_ != 0) {
    bt_.RemoveDisconnectListener(bt_disc_listener_);
    bt_disc_listener_ = 0;
  }
  bt_.CancelDiscovery(std::exchange(bt_discovery_, 0));
  if (bt_.controller() != nullptr) {
    for (const auto& [device, link] : bt_links_) {
      bt_.controller()->Disconnect(link);
    }
  }
  bt_links_.clear();
}

void AdHocCxtProvider::OnQueryUpdated() {
  if (round_timer_ != nullptr) round_timer_->SetPeriod(DefaultPollPeriod());
}

// --- BT transport -------------------------------------------------------

void AdHocCxtProvider::BtStart() {
  bt_data_listener_ = bt_.AddDataListener(
      [this](net::BtLinkId link, net::NodeId from,
             const std::vector<std::byte>& frame) {
        if (!awaiting_poll_.contains(link)) return;
        auto item = ParseCxtGetResponse(frame);
        awaiting_poll_.erase(link);
        if (item.ok()) {
          item->source = {SourceKind::kAdHocNetwork,
                          "node:" + std::to_string(from)};
          Offer(*std::move(item));
        }
      });
  bt_disc_listener_ = bt_.AddDisconnectListener(
      [this](net::BtLinkId link, net::NodeId peer) {
        for (auto it = bt_links_.begin(); it != bt_links_.end(); ++it) {
          if (it->second == link) {
            bt_links_.erase(it);
            break;
          }
        }
        awaiting_poll_.erase(link);
        (void)peer;
        if (bt_links_.empty() &&
            query().mode() != query::InteractionMode::kOnDemand &&
            first_round_done_) {
          Fail(Unavailable("all ad hoc BT providers disconnected"));
        }
      });
  BtDiscover();
}

void AdHocCxtProvider::BtDiscover() {
  bt_discovery_ = bt_.Discover(
      kDiscoveryMaxAge,
      [this, life = life_](Result<std::vector<net::BtDeviceInfo>> devices) {
        if (!*life || !running()) return;
        if (!devices.ok()) {
          // A failed inquiry is usually a radio flap or an interference
          // burst: back off and re-run discovery before abandoning the
          // mechanism.
          if (RetryTransient(devices.status(), [this] { BtDiscover(); })) {
            return;
          }
          Fail(devices.status());
          return;
        }
        RetrySucceeded();
        const query::AdHocScope scope = Scope();
        const int budget = scope.all_nodes() ? -1 : scope.num_nodes;
        BtDiscoverProviders(*std::move(devices), 0, budget);
      });
}

void AdHocCxtProvider::BtDiscoverProviders(
    std::vector<net::BtDeviceInfo> devices, std::size_t index, int budget) {
  if (index >= devices.size() || budget == 0) {
    BtRoundDone();
    return;
  }
  const auto device = devices[index];
  const std::string address = "bt:" + device.name;
  if (!access_.Admit(address, client_)) {
    BtDiscoverProviders(std::move(devices), index + 1, budget);
    return;
  }
  bt_.controller()->DiscoverServices(
      device.node, CxtServiceName(query().select_type),
      [this, life = life_, devices = std::move(devices), index, budget,
       device](Result<std::vector<net::ServiceRecord>> records) mutable {
        if (!*life || !running()) return;
        int next_budget = budget;
        if (records.ok() && !records->empty()) {
          ++bt_providers_found_;
          // The DataElement in the service record is the current item.
          auto item = CxtItem::Deserialize(records->front().data_element);
          if (item.ok()) {
            item->source = {SourceKind::kAdHocNetwork, "bt:" + device.name};
            Offer(*std::move(item));
          }
          if (next_budget > 0) --next_budget;
          if (query().mode() != query::InteractionMode::kOnDemand) {
            BtConnectAndPoll(device.node);
          }
        }
        BtDiscoverProviders(std::move(devices), index + 1, next_budget);
      });
}

void AdHocCxtProvider::BtRoundDone() {
  first_round_done_ = true;
  if (!running()) return;
  if (query().mode() == query::InteractionMode::kOnDemand) {
    if (bt_providers_found_ == 0) {
      // Completing "successfully" with zero results would end the query
      // without giving the factory a chance to fail over (or serve a
      // degraded answer); report the empty neighborhood instead.
      Fail(NotFound("no BT peers publish '" + query().select_type + "'"));
      return;
    }
    CompleteOk();
    return;
  }
  if (bt_providers_found_ == 0) {
    // No publishing peer at all: periodic re-discovery would burn 5 J per
    // round; fail over so the factory can reconsider. (Connections to
    // found peers may still be in flight — that is fine, BtPollAll polls
    // whatever links exist each round.)
    Fail(NotFound("no BT peers publish '" + query().select_type + "'"));
    return;
  }
  if (round_timer_ == nullptr) {
    round_timer_ = std::make_unique<sim::PeriodicTask>(
        sim(), DefaultPollPeriod(), [this] { BtPollAll(); });
  }
}

void AdHocCxtProvider::BtConnectAndPoll(net::NodeId device) {
  bt_.controller()->Connect(
      device, [this, life = life_, device](Result<net::BtLinkId> link) {
        if (!*life || !running()) return;
        if (!link.ok()) return;
        bt_links_[device] = *link;
      });
}

void AdHocCxtProvider::BtPollAll() {
  for (const auto& [device, link] : bt_links_) {
    awaiting_poll_.insert(link);
    bt_.controller()->Send(link,
                           BuildCxtGetRequest(query().select_type, ""));
  }
}

// --- WiFi transport -----------------------------------------------------

void AdHocCxtProvider::WifiLaunchRound() {
  sm::SmRuntime* rt = wifi_.sm();
  if (rt == nullptr || !wifi_.Available()) {
    Fail(Unavailable("wifi/SM runtime unavailable"));
    return;
  }
  if (!active_finder_id_.empty()) return;  // previous round in flight

  const query::AdHocScope scope = Scope();
  FinderState state;
  state.query = query();
  state.remaining_nodes = scope.all_nodes() ? -1 : scope.num_nodes;

  sm::SmartMessage sm;
  sm.id = sim().ids().NextId("sm-finder");
  sm.code_brick = kFinderBrick;
  sm.origin = rt->node();
  sm.target_tag = CxtTagName(query().select_type);
  sm.max_hops = scope.num_hops;
  sm.data = state.Encode();
  // Hop spans of this finder nest under the query's provision span.
  COBS(sm.trace_parent = trace_span());
  active_finder_id_ = sm.id;

  rt->RegisterReplyHandler(sm.id, [this, life = life_](
                                      sm::SmartMessage reply) {
    if (!*life) return;
    WifiRoundReply(std::move(reply));
  });

  // "If no valid result is received within a certain timeout, the query
  // is cancelled."
  const auto timeout =
      kPerHopTimeout * (2 * (static_cast<std::size_t>(scope.num_hops) + 1));
  finder_timeout_ = sim().ScheduleAfter(
      timeout, [this, finder_id = sm.id] { WifiRoundTimeout(finder_id); },
      "adhoc.finder_timeout");

  const Status injected = rt->Inject(std::move(sm));
  if (!injected.ok()) {
    sim().Cancel(finder_timeout_);
    finder_timeout_ = sim::kInvalidTimer;
    rt->UnregisterReplyHandler(active_finder_id_);
    active_finder_id_.clear();
    Fail(injected);
  }
}

void AdHocCxtProvider::WifiRoundReply(sm::SmartMessage reply) {
  if (reply.id != active_finder_id_) return;
  sim().Cancel(finder_timeout_);
  finder_timeout_ = sim::kInvalidTimer;
  active_finder_id_.clear();
  COBS({
    static obs::Histogram& hops = obs::Observability::metrics().GetHistogram(
        "sm_finder_hops", {}, obs::DefaultHopBounds());
    hops.Observe(static_cast<double>(reply.hop_count));
  });

  auto state = FinderState::Decode(reply.data);
  if (!state.ok()) {
    CLOG_WARN(kModule, "finder reply undecodable: %s",
              state.status().ToString().c_str());
    return;
  }
  const query::AdHocScope scope = Scope();
  for (auto& collected : state->results) {
    // "if hopCnt>numHops the receiver discards the result because the
    // CxtPublisher that provided such a result is out of the range of
    // interest."
    if (scope.num_hops > 0 && collected.hop > scope.num_hops) continue;
    Offer(std::move(collected.item));
  }
  if (query().mode() == query::InteractionMode::kOnDemand && running()) {
    CompleteOk();
  }
}

void AdHocCxtProvider::WifiRoundTimeout(const std::string& finder_id) {
  if (finder_id != active_finder_id_) return;
  finder_timeout_ = sim::kInvalidTimer;
  if (wifi_.sm() != nullptr) {
    wifi_.sm()->UnregisterReplyHandler(active_finder_id_);
  }
  active_finder_id_.clear();
  if (query().mode() == query::InteractionMode::kOnDemand) {
    if (retries_left_ > 0) {
      // Reliability extension: a lost SM (mobility, admission rejection)
      // costs one timeout, not the whole query.
      --retries_left_;
      WifiLaunchRound();
      return;
    }
    Fail(DeadlineExceeded("no finder reply within timeout"));
  }
  // Periodic/event rounds simply skip; the next round may succeed.
}

}  // namespace contory::core
