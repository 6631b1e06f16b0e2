#include "core/facade.hpp"

#include <algorithm>
#include <optional>
#include <variant>

#include "obs/observability.hpp"

namespace contory::core {
namespace {
/// Cached per-mechanism registry handles — Submit is the hot path, and
/// handles are stable across Reset() (see MetricsRegistry).
obs::Counter& ProvidersCreatedCounter(query::SourceSel kind) {
  static obs::Counter* by_kind[4] = {};
  auto& slot = by_kind[static_cast<std::size_t>(kind)];
  if (slot == nullptr) {
    slot = &obs::Observability::metrics().GetCounter(
        "providers_created_total",
        {{"mechanism", query::SourceSelName(kind)}});
  }
  return *slot;
}

obs::Counter& MergedCounter(query::SourceSel kind) {
  static obs::Counter* by_kind[4] = {};
  auto& slot = by_kind[static_cast<std::size_t>(kind)];
  if (slot == nullptr) {
    slot = &obs::Observability::metrics().GetCounter(
        "queries_merged_total", {{"mechanism", query::SourceSelName(kind)}});
  }
  return *slot;
}

/// Whether each source of `a` and `b` (one cluster, so the same sources)
/// has an ad hoc scope: the fold takes that from its front query.
bool SameScopePresence(const query::CxtQuery& a, const query::CxtQuery& b) {
  for (std::size_t i = 0; i < a.from.sources.size(); ++i) {
    if (a.from.sources[i].scope.has_value() !=
        b.from.sources[i].scope.has_value()) {
      return false;
    }
  }
  return true;
}

}  // namespace

Facade::Facade(sim::Simulation& sim, query::SourceSel kind,
               ProviderFactory provider_factory, bool merging)
    : sim_(sim),
      kind_(kind),
      provider_factory_(std::move(provider_factory)),
      merging_(merging) {
  if (!provider_factory_) {
    throw std::invalid_argument("Facade: null provider factory");
  }
}

Facade::~Facade() {
  *life_ = false;
  // Providers are destroyed in creation order: a destructor may still
  // talk to its transport (an unregister request, say).
  for (Cluster* cluster : ByCreation(0)) cluster->provider.reset();
}

Facade::ClusterKey Facade::KeyFor(const query::CxtQuery& q) {
  return {q.select_type, static_cast<int>(q.mode())};
}

Facade::Cluster& Facade::NewCluster() {
  const ClusterRef ref = clusters_.Emplace();
  Cluster& cluster = *clusters_.Find(ref);
  cluster.ref = ref;
  cluster.seq = next_seq_++;
  return cluster;
}

void Facade::FreeSlot(Cluster& cluster) {
  if (cluster.provider != nullptr) {
    retries_reaped_ += cluster.provider->retries_attempted();
    cluster.provider.reset();
  }
  clusters_.Erase(cluster.ref);
}

std::vector<Facade::Cluster*> Facade::ByCreation(std::uint64_t from_seq) {
  std::vector<Cluster*> out;
  clusters_.ForEach([&out, from_seq](Cluster& cluster) {
    if (cluster.provider != nullptr && cluster.seq >= from_seq) {
      out.push_back(&cluster);
    }
  });
  std::sort(out.begin(), out.end(),
            [](const Cluster* a, const Cluster* b) { return a->seq < b->seq; });
  return out;
}

Status Facade::StartCluster(Cluster& cluster) {
  Cluster* cluster_ptr = &cluster;
  CxtProvider::Callbacks callbacks;
  callbacks.deliver = [this, cluster_ptr](const CxtItem& item) {
    OnProviderDelivery(*cluster_ptr, item);
  };
  callbacks.finished = [this, cluster_ptr](Status status) {
    OnProviderFinished(*cluster_ptr, status);
  };
  // A singleton's merged query is its original.
  cluster.provider = provider_factory_(cluster.members.front().qid,
                                       cluster.originals.front(),
                                       std::move(callbacks));
  if (cluster.provider == nullptr) {
    return Internal("provider factory returned null");
  }
  ++providers_created_;
  COBS(ProvidersCreatedCounter(kind_).Inc());
  // Start() can deliver synchronously, and the delivery can submit
  // reentrantly: restore the outer cluster, not nullptr.
  Cluster* const outer = starting_;
  starting_ = &cluster;
  cluster.provider->Start();
  starting_ = outer;
  return Status::Ok();
}

Result<ClusterRef> Facade::Submit(QueryId qid, query::CxtQuery q) {
  if (const Status s = q.Validate(); !s.ok()) return s;

  // Query merging: only clusters under the same (select_type, mode) key
  // can possibly accept the query; join the first compatible one. The
  // one lookup also yields the bucket a fresh cluster joins. With
  // merging off, both the candidate scan and the index are skipped.
  IndexEntry* bucket = nullptr;
  if (merging_) {
    bucket = &*merge_index_.try_emplace(KeyFor(q)).first;
    std::size_t examined = 0;
    for (Cluster* cluster : bucket->second.members) {
      if (++examined > kMaxMergeCandidates) break;
      auto merged = query::Merge(cluster->provider->query(), q);
      if (!merged.ok()) continue;
      COBS(MergedCounter(kind_).Inc());
      ++live_originals_;
      // A submitted DURATION is what remains of the query's window.
      const std::optional<SimDuration> window = q.duration.time;
      cluster->members.push_back(Member{qid, Compile(q)});
      cluster->originals.push_back(std::move(q));
      cluster->provider->UpdateQuery(*std::move(merged));
      if (window) cluster->provider->CoverDeadline(sim_.Now() + *window);
      return cluster->ref;
    }
  }

  Cluster& cluster = NewCluster();
  const ClusterRef ref = cluster.ref;
  cluster.members.push_back(Member{qid, Compile(q)});
  cluster.originals.push_back(std::move(q));
  const Status s = StartCluster(cluster);
  if (!s.ok()) {
    FreeSlot(cluster);
  } else if (cluster.originals.empty() && !cluster.dead) {
    // Cancelled from inside its own first delivery (see Cancel).
    cluster.provider->Stop();
    MarkDead(cluster);
  } else if (!cluster.dead) {
    // A provider that failed from inside its own Start() already marked
    // the cluster dead; it is never indexed (the reap frees it).
    cluster.indexed = true;
    ++live_clusters_;
    ++live_originals_;
    if (bucket != nullptr) {
      cluster.bucket = bucket;
      cluster.bucket_pos = bucket->second.members.size();
      bucket->second.members.push_back(&cluster);
    }
    return ref;
  }
  // Not indexed: the bucket this query created may be left empty.
  if (bucket != nullptr) NoteIfEmptied(*bucket);
  ScheduleReap();
  if (!s.ok()) return s;
  return ref;
}

void Facade::MarkDead(Cluster& cluster) {
  cluster.dead = true;
  dead_.push_back(&cluster);
  if (!cluster.indexed) return;
  cluster.indexed = false;
  --live_clusters_;
  live_originals_ -= cluster.originals.size();
  IndexEntry* const bucket = std::exchange(cluster.bucket, nullptr);
  if (bucket == nullptr) return;
  // Swap-remove at the recorded position: O(1) where a scan-and-erase
  // would make tearing down N same-key clusters quadratic.
  auto& members = bucket->second.members;
  const std::size_t pos = cluster.bucket_pos;
  members[pos] = members.back();
  members[pos]->bucket_pos = pos;
  members.pop_back();
  NoteIfEmptied(*bucket);
}

void Facade::NoteIfEmptied(IndexEntry& entry) {
  Bucket& bucket = entry.second;
  if (!bucket.members.empty() || bucket.emptied) return;
  bucket.emptied = true;
  emptied_.push_back(&entry);
}

Facade::Compiled Facade::Compile(const query::CxtQuery& q) {
  using Kind = Compiled::Kind;
  if (q.freshness.has_value()) return {};
  if (!q.where.has_value()) return {Kind::kAlways};
  const query::Predicate& where = *q.where;
  if (where.kind != query::Predicate::Kind::kComparison) return {};
  const query::Comparison& cmp = where.comparison;
  const double* literal = std::get_if<double>(&cmp.literal.storage());
  if (cmp.aggregate != query::AggregateFn::kNone || literal == nullptr ||
      (cmp.field != "value" && cmp.field != q.select_type)) {
    return {};
  }
  switch (cmp.op) {
    case query::CompareOp::kLt:
    case query::CompareOp::kGt:
    case query::CompareOp::kLe:
    case query::CompareOp::kGe:
      return {Kind::kThreshold, cmp.op, *literal};
    default:
      return {};
  }
}

bool Facade::Passes(const Compiled& where, double value) {
  // CxtValue::Compare's three-way rule: an unordered pair (NaN) is 0.
  switch (where.op) {
    case query::CompareOp::kLt: return value < where.threshold;
    case query::CompareOp::kGt: return value > where.threshold;
    case query::CompareOp::kLe: return !(value > where.threshold);
    case query::CompareOp::kGe: return !(value < where.threshold);
    default: return false;  // never compiled
  }
}

void Facade::OnProviderDelivery(Cluster& cluster, const CxtItem& item) {
  if (cluster.dead || !delivery_ || cluster.originals.empty()) return;
  // Post-extraction: each original query gets exactly the data matching
  // its own clauses. Every original SELECTs the cluster's type and drops
  // an expired item, so those two checks run once.
  const SimTime now = sim_.Now();
  if (item.type != cluster.originals.front().select_type ||
      item.IsExpired(now)) {
    return;
  }
  const double* number = std::get_if<double>(&item.value.storage());
  // Matching qids are collected first, so a client that cancels queries
  // from inside its delivery callback cannot invalidate the scan. The
  // buffer is borrowed: a nested delivery finds matched_ empty.
  std::vector<QueryId> matched = std::move(matched_);
  matched.clear();
  for (std::size_t i = 0; i < cluster.members.size(); ++i) {
    const Member& member = cluster.members[i];
    bool match = false;
    switch (member.where.kind) {
      case Compiled::Kind::kAlways:
        match = true;
        break;
      case Compiled::Kind::kThreshold:
        match = number != nullptr && Passes(member.where, *number);
        break;
      case Compiled::Kind::kGeneric:
        match = query::PostExtract(cluster.originals[i], item, now);
        break;
    }
    if (match) matched.push_back(member.qid);
  }
  if (!matched.empty()) delivery_(matched, item);
  matched_ = std::move(matched);
}

void Facade::OnProviderFinished(Cluster& cluster, const Status& status) {
  if (cluster.dead) return;
  MarkDead(cluster);
  if (&cluster == starting_) {
    // The provider failed from inside its own Start() (e.g. a cached but
    // empty discovery answers synchronously), so Submit() is still on the
    // caller's stack. Reporting now would let the factory's failover
    // logic run reentrantly against a half-updated query record; move
    // the notification to a fresh event instead.
    sim_.ScheduleAfter(SimDuration::zero(),
                       [this, life = life_, members = cluster.members,
                        status]() {
                         if (!*life || !finished_) return;
                         for (const Member& m : members) {
                           finished_(m.qid, status);
                         }
                       },
                       "facade.finish");
    ScheduleReap();
    return;
  }
  if (finished_) {
    for (const Member& m : cluster.members) finished_(m.qid, status);
  }
  ScheduleReap();
}

void Facade::ScheduleReap() {
  if (reap_scheduled_) return;
  reap_scheduled_ = true;
  // Providers call finished() from their own stack; destroy them from a
  // fresh event instead, in creation order (see ~Facade).
  sim_.ScheduleAfter(SimDuration::zero(), [this, life = life_] {
    if (!*life) return;
    reap_scheduled_ = false;
    std::sort(dead_.begin(), dead_.end(),
              [](const Cluster* a, const Cluster* b) { return a->seq < b->seq; });
    for (Cluster* cluster : dead_) FreeSlot(*cluster);
    dead_.clear();
    // A bucket refilled since it emptied stays.
    for (IndexEntry* entry : emptied_) {
      entry->second.emptied = false;
      if (entry->second.members.empty()) {
        merge_index_.erase(merge_index_.find(entry->first));
      }
    }
    emptied_.clear();
  }, "facade.reap");
}

std::size_t Facade::Position(const Cluster& cluster, QueryId qid) {
  return static_cast<std::size_t>(
      std::find_if(cluster.members.begin(), cluster.members.end(),
                   [qid](const Member& m) { return m.qid == qid; }) -
      cluster.members.begin());
}

void Facade::EraseAt(Cluster& cluster, std::size_t pos) {
  const auto offset = static_cast<std::ptrdiff_t>(pos);
  cluster.originals.erase(cluster.originals.begin() + offset);
  cluster.members.erase(cluster.members.begin() + offset);
}

void Facade::Cancel(QueryId qid, ClusterRef ref) {
  Cluster* cluster = clusters_.Find(ref);
  if (cluster != nullptr && !cluster->indexed) cluster = nullptr;
  const std::size_t pos = cluster != nullptr ? Position(*cluster, qid) : 0;
  if (cluster == nullptr || pos == cluster->members.size()) {
    // Not indexed yet: the query's cluster may be inside Start(), whose
    // synchronous first delivery led to this cancel before Submit
    // returned its ref. Drop the original; Submit stops the provider
    // once Start() returns.
    if (starting_ != nullptr) {
      const std::size_t at = Position(*starting_, qid);
      if (at < starting_->members.size()) EraseAt(*starting_, at);
    }
    return;
  }
  if (cluster->members.size() == 1) {
    // The original goes with the slot, at the reap.
    cluster->provider->Stop();
    MarkDead(*cluster);
    ScheduleReap();
    return;
  }
  --live_originals_;
  Remerge(*cluster, pos);
}

void Facade::Remerge(Cluster& cluster, std::size_t pos) {
  auto& originals = cluster.originals;
  // The leaving original set no bound of its own when another original
  // carries the same clauses; if it was the front, the new front must
  // also agree on which ad hoc scopes are present (see the header).
  bool same_bounds = false;
  for (std::size_t i = 0; i < originals.size() && !same_bounds; ++i) {
    same_bounds =
        i != pos && query::SameMergeBounds(originals[pos], originals[i]);
  }
  if (same_bounds && pos == 0) {
    same_bounds = SameScopePresence(originals[0], originals[1]);
  }
  EraseAt(cluster, pos);

  if (!same_bounds) {
    // Re-merge the remaining originals so the provider narrows back.
    auto merged = query::MergeAll(originals);
    if (merged.ok()) cluster.provider->UpdateQuery(*std::move(merged));
    return;
  }
  // The merged query is already MergeAll of the rest, up to the id and
  // priority the fold takes from a new front.
  const query::CxtQuery& front = originals.front();
  const query::CxtQuery& current = cluster.provider->query();
  if (current.id == front.id && current.priority == front.priority) return;
  query::CxtQuery renamed = current;
  renamed.id = front.id;
  renamed.priority = front.priority;
  cluster.provider->UpdateQuery(std::move(renamed));
}

void Facade::StopAll(const Status& status) {
  // Creation order. finished_ may reenter this facade (failover
  // submitting a replacement); the clusters it creates are stopped too,
  // in a later pass.
  std::uint64_t from = 0;
  for (std::vector<Cluster*> batch = ByCreation(from); !batch.empty();
       batch = ByCreation(from)) {
    from = next_seq_;
    for (Cluster* cluster : batch) {
      if (cluster->dead) continue;
      cluster->provider->Stop();
      MarkDead(*cluster);
      if (finished_) {
        for (const Member& m : cluster->members) finished_(m.qid, status);
      }
    }
  }
  ScheduleReap();
}

std::uint64_t Facade::retries_observed() const {
  std::uint64_t n = retries_reaped_;
  clusters_.ForEach([&n](const Cluster& cluster) {
    if (cluster.provider != nullptr) {
      n += cluster.provider->retries_attempted();
    }
  });
  return n;
}

}  // namespace contory::core
