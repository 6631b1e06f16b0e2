#include "core/context_factory.hpp"

#include <array>

#include "common/logging.hpp"
#include "core/providers/infra_provider.hpp"
#include "core/providers/local_provider.hpp"
#include "infra/context_server.hpp"
#include "infra/event_broker.hpp"
#include "obs/observability.hpp"
#include "sensors/gps.hpp"

namespace contory::core {
namespace {
constexpr const char* kModule = "factory";
/// Period of the control-policy evaluation loop.
constexpr SimDuration kPolicyPeriod = std::chrono::seconds{5};

DeviceServices Validated(DeviceServices services) {
  services.CheckRequired();
  return services;
}

}  // namespace

ContextFactory::ContextFactory(DeviceServices services,
                               ContextFactoryConfig config)
    : services_(Validated(std::move(services))),
      config_(config),
      internal_ref_(),
      bt_ref_(*services_.sim, services_.bt),
      wifi_ref_(services_.wifi, services_.sm),
      cell_ref_(services_.modem),
      monitor_(*services_.sim, *services_.phone, config_.resources),
      access_(config_.access),
      repository_(*services_.sim, config_.repository),
      policy_(rules_, monitor_, repository_, facades_,
              {.reduce_load_provider_cap = config_.reduce_load_provider_cap}),
      table_(*services_.sim, config_.completion_log_capacity),
      planner_(PlannerEnv{&internal_ref_, &bt_ref_, &wifi_ref_, &cell_ref_,
                          &services_.default_infra_address,
                          &policy_.active_actions()}),
      governor_(*services_.sim, repository_, config_.overload),
      admission_(*services_.sim, access_, table_, &governor_),
      router_(*services_.sim, table_, repository_),
      coordinator_(
          *services_.sim,
          FailoverConfig{config_.recovery_probe_period,
                         config_.enable_degraded_mode},
          table_, planner_, repository_, router_, internal_ref_, bt_ref_,
          FailoverCoordinator::Hooks{
              [this](QueryRecord& record, query::SourceSel kind) {
                return AssignToFacade(record, kind);
              },
              [this](QueryRecord& record, query::SourceSel kind) {
                CancelOnFacade(record, kind);
              }}) {
  // Tracer spans attribute energy to the owning device; the phone is
  // owned by the caller (testbed::World) and outlives this factory.
  table_.SetEnergyProbe([phone = services_.phone] {
    return phone->energy().TotalEnergyJoules();
  });

  publisher_ = std::make_unique<CxtPublisher>(bt_ref_, wifi_ref_);
  WireReferences();
  BuildFacades();

  // Join the SM overlay and expose the home tag SM-FINDERs route back to.
  if (services_.sm != nullptr) {
    wifi_ref_.SetParticipating(true);
    services_.sm->tags().Upsert(HomeTagName(services_.node), "1");
    RegisterFinderBrick(*services_.sm);
  }

  // The middleware's own runtime draw (+1.64 mW, Sec. 6.1).
  services_.phone->SetContoryRunning(true);

  policy_task_ = std::make_unique<sim::PeriodicTask>(
      *services_.sim, kPolicyPeriod, [this] { policy_.Evaluate(); });
}

ContextFactory::~ContextFactory() {
  *life_ = false;
  services_.phone->SetContoryRunning(false);
}

void ContextFactory::WireReferences() {
  monitor_.Attach(internal_ref_);
  monitor_.Attach(bt_ref_);
  monitor_.Attach(wifi_ref_);
  monitor_.Attach(cell_ref_);
  monitor_.SetMemoryGauge([this] { return repository_.size(); });
  monitor_.SetQueryGauge([this] { return table_.active_count(); });
  monitor_.SetProviderGauge([this] { return active_provider_count(); });
}

std::unique_ptr<CxtProvider> ContextFactory::MakeProvider(
    query::SourceSel kind, QueryId first, query::CxtQuery q,
    CxtProvider::Callbacks callbacks) {
  QueryRecord* record = table_.FindById(first);
  Client* client = record != nullptr ? record->client : nullptr;
  switch (kind) {
    case query::SourceSel::kIntSensor:
      // No retry policy: a vanished sensor is not transient, and an
      // immediate escalation preserves the Fig. 5 failover timing.
      return std::make_unique<LocalCxtProvider>(
          *services_.sim, std::move(q), std::move(callbacks), internal_ref_,
          bt_ref_, access_, client);
    case query::SourceSel::kExtInfra: {
      std::string address = services_.default_infra_address;
      for (const auto& src : q.from.sources) {
        if (src.kind == query::SourceSel::kExtInfra && !src.address.empty()) {
          address = src.address;
        }
      }
      auto provider = std::make_unique<InfraCxtProvider>(
          *services_.sim, std::move(q), std::move(callbacks), cell_ref_,
          std::move(address));
      provider->ConfigureRetry(config_.retry);
      return provider;
    }
    case query::SourceSel::kAdHocNetwork: {
      const AdHocTransport transport =
          policy_.active_actions().contains(RuleAction::kReducePower)
              ? AdHocTransport::kForceBt
              : AdHocTransport::kAuto;
      auto provider = std::make_unique<AdHocCxtProvider>(
          *services_.sim, std::move(q), std::move(callbacks), bt_ref_,
          wifi_ref_, access_, client, transport,
          config_.adhoc_finder_retries);
      provider->ConfigureRetry(config_.retry);
      // Hand the provider its query's provision span so the WiFi
      // transport's SM-FINDER hop chain nests inside the trace tree. A
      // merged cluster carries its first query's id, so the whole
      // cluster's hops attribute to that query's tree.
      COBS(if (record != nullptr) {
        std::uint64_t parent = record->obs.provision[static_cast<std::size_t>(
            query::SourceSel::kAdHocNetwork)];
        if (parent == 0) parent = record->obs.root;
        provider->SetTraceSpan(parent);
      });
      return provider;
    }
    case query::SourceSel::kAuto:
      break;
  }
  throw std::logic_error("MakeProvider: unresolved source kind");
}

void ContextFactory::BuildFacades() {
  for (const query::SourceSel kind :
       {query::SourceSel::kIntSensor, query::SourceSel::kExtInfra,
        query::SourceSel::kAdHocNetwork}) {
    auto facade = std::make_unique<Facade>(
        *services_.sim, kind,
        [this, kind](QueryId first, query::CxtQuery q,
                     CxtProvider::Callbacks callbacks) {
          return MakeProvider(kind, first, std::move(q), std::move(callbacks));
        },
        config_.enable_query_merging);
    facade->SetDelivery([this, kind](std::span<const QueryId> matched,
                                     const CxtItem& item) {
      router_.OnFacadeDelivery(matched, item, kind);
    });
    facade->SetFinished([this, kind](QueryId qid, const Status& status) {
      coordinator_.OnFacadeFinished(kind, qid, status);
    });
    facades_[static_cast<std::size_t>(kind)] = std::move(facade);
  }
}

query::MechanismSet ContextFactory::CurrentMechanisms(
    const std::string& query_id) const {
  const QueryRecord* record = table_.Find(query_id);
  return record != nullptr ? record->assigned : query::MechanismSet{};
}

Result<std::string> ContextFactory::ProcessCxtQuery(query::CxtQuery query,
                                                    Client& client) {
  // Stages 0–1: overload gate and admission (validation, access
  // control, policy gates).
  OverloadGovernor::Decision decision;
  const Result<QueryId> admitted =
      admission_.Admit(query, client, policy_.active_actions(), &decision);
  if (!admitted.ok()) return admitted.status();
  const QueryId qid = *admitted;
  QueryRecord* record = table_.FindById(qid);
  if (record->query.duration.time.has_value()) {
    record->expiry.emplace(
        *services_.sim, record->submitted + *record->query.duration.time,
        [this, qid] { Expire(qid); }, "query.expiry");
  }
  if (decision.outcome == OverloadGovernor::Decision::Outcome::kDegrade) {
    // Stale-answer-first: the record is in the table but never plans or
    // activates; the degraded-mode machinery serves it.
    return DegradeAtAdmission(qid, decision);
  }

  // Stage 2: planning (FROM clause -> facade set + preferred mechanism).
  auto plan = planner_.Plan(record->query);
  if (!plan.ok()) {
    table_.FinishById(qid);
    return plan.status();
  }
  record->plan = *std::move(plan);
  COBS({
    if (record->obs.root != 0 && decision.note != nullptr) {
      obs::Observability::tracer().AddNote(record->obs.root, decision.note);
    }
  });
  const std::string id = record->query.id;

  // Stage 3: facade assignment. A facade Submit may deliver
  // synchronously and the client may finish the query from inside that
  // delivery (reentrant cancel), invalidating `record` — iterate over a
  // copy of the plan's set and re-resolve the record after every call.
  const query::MechanismSet initial = record->plan.initial;
  Status last;
  std::size_t assigned = 0;
  for (const query::SourceSel kind : initial) {
    const Status s = AssignToFacade(*record, kind);
    record = table_.FindById(qid);
    if (record == nullptr) return id;  // finished from inside the delivery
    if (s.ok()) {
      ++assigned;
    } else {
      last = s;
    }
  }
  if (assigned == 0) {
    table_.FinishById(qid);
    return last;
  }
  table_.Transition(*record, QueryState::kActive);
  CLOG_INFO(kModule, "query %s (%s) assigned to %zu facade(s)", id.c_str(),
            record->query.select_type.c_str(), assigned);
  return id;
}

Result<std::string> ContextFactory::DegradeAtAdmission(
    QueryId qid, const OverloadGovernor::Decision& decision) {
  QueryRecord* record = table_.FindById(qid);
  COBS({
    if (record->obs.root != 0 && decision.note != nullptr) {
      obs::Observability::tracer().AddNote(record->obs.root, decision.note);
    }
  });
  const std::string id = record->query.id;
  if (!coordinator_.DegradeAtAdmission(*record, decision.status)) {
    // The cached entry aged out (or degraded mode is off) between the
    // gate and activation; fall back to the plain shed refusal.
    table_.FinishById(qid);
    return decision.status;
  }
  // The query was accepted and is being served stale (an on-demand
  // round has already finished); its id is the caller's handle.
  return id;
}

Status ContextFactory::AssignToFacade(QueryRecord& record,
                                      query::SourceSel kind) {
  const auto i = static_cast<std::size_t>(kind);
  bool opened = false;
  COBS({
    // One provision window per mechanism the query is ever assigned to;
    // re-assignment after failover opens a fresh window. It opens before
    // Submit because providers may deliver their first item (and the
    // adHoc provider nests its hop spans) from inside it.
    std::uint64_t& span = record.obs.provision[i];
    if (span == 0) {
      span = obs::Observability::tracer().BeginStage(
          record.obs.root, "provision", query::SourceSelName(kind),
          services_.sim->Now());
      record.obs.provision_items[i] = 0;
      opened = span != 0;
    }
  });
  const QueryId qid = record.qid;
  // Listed before Submit: a cancel from inside a synchronous first
  // delivery must reach this facade too.
  const bool newly_assigned = record.assigned.insert(kind);
  // The record's expiry ends the query, but the wire query still carries
  // DURATION to the context server, which counts it from "now": a
  // failover re-assignment must hand the facade only the remaining
  // window.
  query::CxtQuery to_submit = record.query;
  if (to_submit.duration.time.has_value()) {
    const SimDuration elapsed = services_.sim->Now() - record.submitted;
    if (elapsed > SimDuration::zero()) {
      *to_submit.duration.time =
          *to_submit.duration.time <= elapsed
              ? SimDuration::zero()
              : *to_submit.duration.time - elapsed;
    }
  }
  // Cleared first: a cancel from inside a synchronous first delivery
  // must not reach a cluster this query served before.
  record.cluster[i] = kInvalidClusterRef;
  const Result<ClusterRef> ref =
      facade(kind).Submit(qid, std::move(to_submit));
  // Submit can deliver synchronously, and the client may cancel (or
  // otherwise finish) the query from inside that delivery — which
  // erases the record. Re-resolve before touching it again.
  QueryRecord* live = table_.FindById(qid);
  if (live == nullptr) return ref.status();
  if (ref.ok()) {
    live->cluster[i] = *ref;
    return Status::Ok();
  }
  if (newly_assigned) live->assigned.erase(kind);
  if (opened) {
    COBS({
      auto& tracer = obs::Observability::tracer();
      tracer.AddItems(live->obs.provision[i], live->obs.provision_items[i]);
      tracer.EndStage(live->obs.provision[i], services_.sim->Now(),
                      "not-assigned");
      live->obs.provision[i] = 0;
    });
  }
  return ref.status();
}

void ContextFactory::CancelOnFacade(const QueryRecord& record,
                                    query::SourceSel kind) {
  facade(kind).Cancel(record.qid,
                      record.cluster[static_cast<std::size_t>(kind)]);
}

void ContextFactory::Expire(QueryId qid) {
  QueryRecord* record = table_.FindById(qid);
  if (record == nullptr) return;
  if (record->assigned.empty()) {  // degraded: no facade serves it
    table_.FinishById(qid);
    return;
  }
  // Leave each facade as a finished provider would, so the provision
  // spans close "ok"; the last one finishes the record. Copies, because
  // OnFacadeFinished edits the set and erases the record.
  const query::MechanismSet kinds = record->assigned;
  const auto refs = std::to_array(record->cluster);
  for (const query::SourceSel kind : kinds) {
    facade(kind).Cancel(qid, refs[static_cast<std::size_t>(kind)]);
    coordinator_.OnFacadeFinished(kind, qid, Status::Ok());
  }
}

void ContextFactory::CancelCxtQuery(const std::string& query_id) {
  QueryRecord* record = table_.Find(query_id);
  if (record == nullptr) return;
  COBS({
    obs::Observability::tracer().AddNote(record->obs.root, "cancelled");
    static obs::Counter& cancelled =
        obs::Observability::metrics().GetCounter("queries_cancelled_total");
    cancelled.Inc();
  });
  const QueryId qid = record->qid;
  for (const query::SourceSel kind : record->assigned) {
    CancelOnFacade(*record, kind);
  }
  router_.OnQueryCancelled(qid);
  table_.FinishById(qid);
}

bool ContextFactory::IsDegraded(const std::string& query_id) const {
  const QueryRecord* record = table_.Find(query_id);
  return record != nullptr && record->degraded();
}

std::uint64_t ContextFactory::total_retries() const {
  std::uint64_t n = 0;
  for (const auto& facade : facades_) {
    if (facade != nullptr) n += facade->retries_observed();
  }
  return n;
}

Status ContextFactory::PublishCxtItem(const CxtItem& item, bool publish,
                                      std::string access_key) {
  // "In order to be eligible to publish context items ... the publisher
  // must register and be authenticated."
  if (registered_servers_.empty()) {
    return PermissionDenied(
        "publishCxtItem requires a registered context server "
        "(registerCxtServer)");
  }
  if (!publish) {
    publisher_->Unpublish(item.type);
    return Status::Ok();
  }
  publisher_->Publish(item, std::move(access_key));
  repository_.Store(item);
  return Status::Ok();
}

void ContextFactory::StoreCxtItem(const CxtItem& item,
                                  std::function<void(Status)> done) {
  repository_.Store(item);
  if (!cell_ref_.Available() || services_.default_infra_address.empty()) {
    if (done) done(Unavailable("no infrastructure connectivity"));
    return;  // local-only until connectivity returns
  }
  const auto pos = services_.medium->GetPosition(services_.node);
  const SimTime sent = services_.sim->Now();
  cell_ref_.SendRequest(
      services_.default_infra_address,
      infra::EncodeStoreRequest(
          services_.phone->name(),
          pos.ok() ? std::optional<GeoPoint>{sensors::ToGeo(*pos)}
                   : std::nullopt,
          item),
      [this, life = life_, sent,
       done = std::move(done)](Result<std::vector<std::byte>> r) {
        // Table 1's publishCxtItem row for the infrastructure transport:
        // the round trip from store request to server acknowledgement.
        COBS({
          if (*life && r.ok()) {
            obs::Observability::metrics()
                .GetHistogram("op_latency_ms",
                              {{"op", "publishCxtItem"},
                               {"mechanism", "extInfra"},
                               {"transport", "cellular"}})
                .Observe(ToMillis(services_.sim->Now() - sent));
          }
        });
        if (done) done(r.ok() ? Status::Ok() : r.status());
      });
}

Status ContextFactory::EnableFusion(const std::string& query_id,
                                    AggregatorConfig config) {
  QueryRecord* record = table_.Find(query_id);
  if (record == nullptr) {
    return NotFound("no active query '" + query_id + "'");
  }
  record->fusion = std::make_unique<CxtAggregator>(*services_.sim, config);
  return Status::Ok();
}

Status ContextFactory::RegisterCxtServer(Client& client) {
  if (registered_servers_.contains(&client)) {
    return AlreadyExists("client already registered");
  }
  registered_servers_.insert(&client);
  return Status::Ok();
}

void ContextFactory::DeregisterCxtServer(Client& client) {
  registered_servers_.erase(&client);
}

void ContextFactory::AddControlPolicy(ContextRule rule) {
  rules_.AddRule(std::move(rule));
  policy_.Evaluate();
}

}  // namespace contory::core
