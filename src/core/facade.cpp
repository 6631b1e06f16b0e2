#include "core/facade.hpp"

#include <algorithm>
#include <optional>

#include "common/logging.hpp"
#include "obs/observability.hpp"

namespace contory::core {
namespace {
constexpr const char* kModule = "facade";

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

Facade::~Facade() { *life_ = false; }

Facade::ClusterKey Facade::KeyFor(const query::CxtQuery& q) {
  return {q.select_type, static_cast<int>(q.mode())};
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
  cluster.provider = provider_factory_(cluster.qids.front(), cluster.merged,
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

Status Facade::Submit(QueryId qid, query::CxtQuery q) {
  if (const Status s = q.Validate(); !s.ok()) return s;

  // Query merging: only clusters under the same (select_type, mode) key
  // can possibly accept the query; join the first compatible one. With
  // merging off, both the candidate scan and the index feeding it are
  // skipped outright.
  const ClusterKey key = KeyFor(q);
  if (merging_) {
    const auto bucket_it = merge_index_.find(key);
    if (bucket_it != merge_index_.end()) {
      std::size_t examined = 0;
      for (Cluster* cluster : bucket_it->second) {
        if (cluster->dead) continue;
        if (++examined > kMaxMergeCandidates) break;
        auto merged = query::Merge(cluster->merged, q);
        if (!merged.ok()) continue;
        CLOG_DEBUG(kModule, "%s: merged %s into %s",
                   query::SourceSelName(kind_), q.id.c_str(),
                   cluster->merged.id.c_str());
        COBS(MergedCounter(kind_).Inc());
        cluster->merged = *std::move(merged);
        by_qid_[qid] = cluster;
        ++live_originals_;
        // A submitted DURATION is what remains of the query's window.
        const std::optional<SimDuration> window = q.duration.time;
        cluster->originals.push_back(std::move(q));
        cluster->qids.push_back(qid);
        cluster->provider->UpdateQuery(cluster->merged);
        if (window) cluster->provider->CoverDeadline(sim_.Now() + *window);
        return Status::Ok();
      }
    }
  }

  auto cluster = std::make_unique<Cluster>();
  cluster->key = key;
  cluster->merged = q;
  cluster->originals.push_back(std::move(q));
  cluster->qids.push_back(qid);
  Cluster& ref = *cluster;
  clusters_.push_back(std::move(cluster));
  const Status s = StartCluster(ref);
  if (!s.ok()) {
    clusters_.pop_back();
    return s;
  }
  if (ref.originals.empty() && !ref.dead) {
    // Cancelled from inside its own first delivery (see Cancel).
    ref.provider->Stop();
    MarkDead(ref);
    ScheduleReap();
    return s;
  }
  // A provider that failed from inside its own Start() already marked the
  // cluster dead; it never enters the indexes (the reap destroys it).
  if (!ref.dead) {
    ref.indexed = true;
    ++live_clusters_;
    ++live_originals_;
    if (merging_) {
      auto& bucket = merge_index_[key];
      ref.bucket_pos = bucket.size();
      bucket.push_back(&ref);
    }
    by_qid_[qid] = &ref;
  }
  return s;
}

void Facade::MarkDead(Cluster& cluster) {
  cluster.dead = true;
  if (!cluster.indexed) return;
  cluster.indexed = false;
  --live_clusters_;
  live_originals_ -= cluster.originals.size();
  for (const QueryId qid : cluster.qids) {
    const auto it = by_qid_.find(qid);
    if (it != by_qid_.end() && it->second == &cluster) by_qid_.erase(it);
  }
  const auto bucket_it = merge_index_.find(cluster.key);
  if (bucket_it != merge_index_.end()) {
    auto& bucket = bucket_it->second;
    // Swap-remove at the recorded position: O(1) where a scan-and-erase
    // would make tearing down N same-key clusters quadratic.
    const std::size_t pos = cluster.bucket_pos;
    if (pos < bucket.size() && bucket[pos] == &cluster) {
      bucket[pos] = bucket.back();
      bucket[pos]->bucket_pos = pos;
      bucket.pop_back();
    } else {
      std::erase(bucket, &cluster);
    }
    if (bucket.empty()) merge_index_.erase(bucket_it);
  }
}

void Facade::OnProviderDelivery(Cluster& cluster, const CxtItem& item) {
  if (cluster.dead || !delivery_) return;
  // Post-extraction: each original query gets exactly the data matching
  // its own clauses. Matching qids are snapshotted first so a client that
  // cancels queries from inside its delivery callback cannot invalidate
  // the iteration.
  std::vector<QueryId> matched;
  for (std::size_t i = 0; i < cluster.originals.size(); ++i) {
    if (query::PostExtract(cluster.originals[i], item, sim_.Now())) {
      matched.push_back(cluster.qids[i]);
    }
  }
  if (!matched.empty()) delivery_(matched, item);
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
                       [this, life = life_, qids = cluster.qids, status]() {
                         if (!*life || !finished_) return;
                         for (const QueryId qid : qids) finished_(qid, status);
                       },
                       "facade.finish");
    ScheduleReap();
    return;
  }
  if (finished_) {
    for (const QueryId qid : cluster.qids) finished_(qid, status);
  }
  ScheduleReap();
}

void Facade::ScheduleReap() {
  if (reap_scheduled_) return;
  reap_scheduled_ = true;
  // Providers call finished() from their own stack; destroy them from a
  // fresh event instead.
  sim_.ScheduleAfter(SimDuration::zero(), [this, life = life_] {
    if (!*life) return;
    reap_scheduled_ = false;
    for (const auto& c : clusters_) {
      if (c->dead && c->provider != nullptr) {
        retries_reaped_ += c->provider->retries_attempted();
      }
    }
    std::erase_if(clusters_, [](const std::unique_ptr<Cluster>& c) {
      return c->dead;
    });
  }, "facade.reap");
}

bool Facade::EraseOriginal(Cluster& cluster, QueryId qid) {
  const auto pos = std::find(cluster.qids.begin(), cluster.qids.end(), qid);
  if (pos == cluster.qids.end()) return false;
  cluster.originals.erase(cluster.originals.begin() +
                          (pos - cluster.qids.begin()));
  cluster.qids.erase(pos);
  return true;
}

void Facade::Cancel(QueryId qid) {
  const auto it = by_qid_.find(qid);
  if (it == by_qid_.end()) {
    // Not indexed yet: the query's cluster may be inside Start(), whose
    // synchronous first delivery led to this cancel. Drop the original;
    // Submit stops the provider once Start() returns.
    if (starting_ != nullptr) EraseOriginal(*starting_, qid);
    return;
  }
  Cluster* cluster = it->second;
  if (cluster->dead || !EraseOriginal(*cluster, qid)) return;
  --live_originals_;
  by_qid_.erase(it);
  if (cluster->originals.empty()) {
    cluster->provider->Stop();
    MarkDead(*cluster);
    ScheduleReap();
    return;
  }
  // Re-merge the remaining originals so the provider narrows back.
  auto merged = query::MergeAll(cluster->originals);
  if (merged.ok()) {
    cluster->merged = *std::move(merged);
    cluster->provider->UpdateQuery(cluster->merged);
  }
}

void Facade::StopAll(const Status& status) {
  // Index loop: finished_ may reenter this facade (failover submitting a
  // replacement) and grow clusters_.
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    Cluster& cluster = *clusters_[i];
    if (cluster.dead) continue;
    cluster.provider->Stop();
    MarkDead(cluster);
    if (finished_) {
      for (const QueryId qid : cluster.qids) finished_(qid, status);
    }
  }
  ScheduleReap();
}

std::uint64_t Facade::retries_observed() const {
  std::uint64_t n = retries_reaped_;
  for (const auto& cluster : clusters_) {
    if (cluster->provider != nullptr) {
      n += cluster->provider->retries_attempted();
    }
  }
  return n;
}

}  // namespace contory::core
