// Facade modules (Sec. 4.3).
//
// "For each of the three types of context provisioning mechanisms
// supported, a corresponding Facade module offers a unified interface for
// managing CxtProviders of that specific type. ... Once the query has
// been assigned to a Facade, in order to avoid redundancy and keep the
// number of active queries minimal, the Facade performs query
// aggregation": merging on submission, post-extraction on delivery.
// "CxtProviders of different Facades can be assigned to the same query,
// but each CxtProvider is assigned only to one (single or merged) query
// at time."
//
// A cluster is shared transport, not a query: one provider, the merged
// clauses, and the QueryIds of the originals it serves. Everything else
// about a query, its DURATION clock included, lives in its QueryRecord,
// so merging and cancelling peers never changes when an original ends.
// The merged query keeps the first original's id; a query merging in
// tells the provider its deadline (CoverDeadline), so a remote
// registration made for the first original can be extended to it.
//
// Cluster matching is indexed, not scanned: query merging structurally
// requires equal SELECT type and interaction mode (query::Mergeable), so
// clusters are bucketed by (select_type, mode) — the source is this
// facade itself — and Submit only runs the full Merge check inside the
// one bucket that could possibly accept the query, examining at most
// kMaxMergeCandidates live clusters. Cancel resolves the owning cluster
// through a map indexed by QueryId, and cluster death swap-removes from
// the bucket at a recorded position. The facade never sees query id
// strings as keys: originals are named by the QueryId the table issued
// at admission. With merging disabled the index is bypassed entirely,
// so Submit and teardown stay O(1) however many clusters share a key.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/providers/provider.hpp"
#include "core/query/merge.hpp"
#include "sim/simulation.hpp"

namespace contory::core {

class Facade {
 public:
  /// Builds a provider of this facade's mechanism for a (merged) query;
  /// `first` is the original the cluster was started for.
  using ProviderFactory = std::function<std::unique_ptr<CxtProvider>(
      QueryId first, query::CxtQuery, CxtProvider::Callbacks)>;
  /// One provider item and the *original* queries it matched
  /// (post-extraction already applied); called once per item.
  using Delivery =
      std::function<void(std::span<const QueryId> matched, const CxtItem&)>;
  /// One original query finished on this facade: Ok (duration complete)
  /// or a transport failure the factory should react to.
  using Finished = std::function<void(QueryId qid, const Status& status)>;

  /// `merging` false gives every original its own provider (ablation).
  Facade(sim::Simulation& sim, query::SourceSel kind,
         ProviderFactory provider_factory, bool merging = true);
  ~Facade();

  Facade(const Facade&) = delete;
  Facade& operator=(const Facade&) = delete;

  [[nodiscard]] query::SourceSel kind() const noexcept { return kind_; }

  void SetDelivery(Delivery delivery) { delivery_ = std::move(delivery); }
  void SetFinished(Finished finished) { finished_ = std::move(finished); }

  /// Assigns query `qid`: merged into an existing compatible cluster (the
  /// provider's parameters are updated) or given a fresh provider.
  Status Submit(QueryId qid, query::CxtQuery q);

  /// Cancels one original query. The cluster re-merges the remaining
  /// originals or, when none remain, its provider stops.
  void Cancel(QueryId qid);

  /// Stops every provider, reporting `status` per original (used by
  /// control-policy enforcement: reducePower suspends queries).
  void StopAll(const Status& status);

  [[nodiscard]] std::size_t active_provider_count() const noexcept {
    return live_clusters_;
  }
  [[nodiscard]] std::size_t active_original_count() const noexcept {
    return live_originals_;
  }
  /// Total providers ever created (the merging ablation's key metric).
  [[nodiscard]] std::uint64_t providers_created() const noexcept {
    return providers_created_;
  }
  /// Transient-failure retries performed by this facade's providers,
  /// reaped and live (robustness diagnostics).
  [[nodiscard]] std::uint64_t retries_observed() const;

 private:
  /// Merge-compatibility bucket: SELECT type and interaction mode are
  /// hard gates in query::Mergeable, so only clusters under the same key
  /// can ever accept the query.
  using ClusterKey = std::pair<std::string, int>;

  struct ClusterKeyHash {
    [[nodiscard]] std::size_t operator()(const ClusterKey& key) const {
      const std::size_t h = std::hash<std::string>{}(key.first);
      // Boost-style combine; the int half is tiny but must still spread.
      return h ^ (std::hash<int>{}(key.second) + 0x9e3779b97f4a7c15ULL +
                  (h << 6) + (h >> 2));
    }
  };

  struct Cluster {
    ClusterKey key;
    query::CxtQuery merged;
    std::vector<query::CxtQuery> originals;
    /// The originals' QueryIds, index-aligned with `originals`.
    std::vector<QueryId> qids;
    std::unique_ptr<CxtProvider> provider;
    bool dead = false;
    /// True while the cluster is present in merge_index_/by_qid_
    /// and counted in the live totals (set after a successful start).
    bool indexed = false;
    /// Position inside merge_index_[key] while indexed there (swap-remove
    /// bookkeeping; unused when merging is disabled).
    std::size_t bucket_pos = 0;
  };

  /// Submit examines at most this many live clusters per bucket: past
  /// that the merge checks themselves would dominate submission cost,
  /// so the query gets a fresh provider instead of a deeper search.
  static constexpr std::size_t kMaxMergeCandidates = 64;

  [[nodiscard]] static ClusterKey KeyFor(const query::CxtQuery& q);

  /// Removes `qid` from the cluster's originals; false when absent.
  static bool EraseOriginal(Cluster& cluster, QueryId qid);
  void OnProviderDelivery(Cluster& cluster, const CxtItem& item);
  void OnProviderFinished(Cluster& cluster, const Status& status);
  /// Marks a cluster dead and detaches it from both indexes; the object
  /// itself is destroyed later by the reap.
  void MarkDead(Cluster& cluster);
  /// Destroys dead clusters outside provider callbacks.
  void ScheduleReap();
  Status StartCluster(Cluster& cluster);

  sim::Simulation& sim_;
  query::SourceSel kind_;
  ProviderFactory provider_factory_;
  bool merging_;
  Delivery delivery_;
  Finished finished_;
  std::vector<std::unique_ptr<Cluster>> clusters_;
  /// Live clusters by merge-compatibility key (Submit's candidate set).
  /// Hashed, not ordered: Submit sits on the hot path and only ever does
  /// point lookups, so a string compare per tree level is pure waste.
  std::unordered_map<ClusterKey, std::vector<Cluster*>, ClusterKeyHash>
      merge_index_;
  /// Live original query -> owning cluster (Cancel's lookup).
  std::unordered_map<QueryId, Cluster*> by_qid_;
  std::size_t live_clusters_ = 0;
  std::size_t live_originals_ = 0;
  /// Non-null while the named cluster's provider is inside Start(); a
  /// finish arriving then is deferred to a fresh event (see
  /// OnProviderFinished).
  Cluster* starting_ = nullptr;
  bool reap_scheduled_ = false;
  std::uint64_t providers_created_ = 0;
  std::uint64_t retries_reaped_ = 0;
  std::shared_ptr<bool> life_ = std::make_shared<bool>(true);
};

}  // namespace contory::core
