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
// A cluster is shared transport, not a query: one provider, its
// originals and their QueryIds. Everything else about a query, its
// DURATION clock included, lives in its QueryRecord, so merging and
// cancelling peers never changes when an original ends. The merged query
// is the provider's own query(): the provider is built with it and every
// re-merge hands it over through UpdateQuery, so the facade keeps no
// second copy. It keeps the first original's id; a query merging in
// tells the provider its deadline (CoverDeadline), so a remote
// registration made for the first original can be extended to it.
//
// Clusters live in a SlotTable (common/slot_table.hpp), and a
// ClusterRef is a cluster's table handle: Submit returns it, the query's
// record keeps it per mechanism, and Cancel goes straight to the cluster
// with it; a stale ref misses. A dead cluster goes on a dead list, and
// the reap, a zero-delay event, erases only those (destroying their
// providers in creation order), so its cost follows the clusters that
// died, not the clusters alive. Slots are reused, so each cluster also
// carries a creation sequence number, and StopAll reports in that
// order.
//
// Cluster matching is indexed, not scanned: query merging structurally
// requires equal SELECT type and interaction mode (query::Mergeable), so
// clusters are bucketed by (select_type, mode) — the source is this
// facade itself — and Submit only runs the full Merge check inside the
// one bucket that could possibly accept the query, examining at most
// kMaxMergeCandidates live clusters. A cluster holds a pointer to its
// bucket and its position there: death swap-removes it without a
// lookup. A bucket left empty is erased by the reap, which hashes only
// for that. With merging disabled the index is bypassed entirely.
//
// Cancel re-merges exactly: the provider's query afterwards equals
// query::MergeAll of the remaining originals in submission order. When
// a remaining original has the leaving one's FROM, WHERE, FRESHNESS,
// DURATION and EVERY (query::SameMergeBounds), the leaving original set
// no bound of its own and the fold is skipped; if it was the front, the
// merged query takes the new front's id and priority, as MergeAll does
// (and when the two differ in whether an ad hoc scope is present, the
// fold runs after all).
//
// Post-extraction is compiled at Submit: each member of a cluster pairs
// an original's QueryId with the shape of its WHERE (Compiled). A
// delivery checks once what every original shares (the item's type
// against the cluster's SELECT type, and its expiry), then scans the
// members in submission order: an "always" member matches, a threshold
// member compares the item's number with its literal, and only a
// generic member runs query::PostExtract. The matched ids go into a
// buffer the facade keeps; a delivery borrows it for the scan and gives
// it back after the hand-over, so a delivery nested inside a client
// callback takes a fresh one instead of overwriting the outer's.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/slot_table.hpp"
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
  /// Returns the serving cluster's handle, which Cancel takes back.
  Result<ClusterRef> Submit(QueryId qid, query::CxtQuery q);

  /// Cancels one original query of the cluster `ref` names. The cluster
  /// re-merges the remaining originals or, when none remain, its
  /// provider stops. A stale or dead `ref` is a no-op, except while a
  /// cluster is inside its provider's Start(): a cancel from its first,
  /// synchronous delivery arrives before Submit returned the ref, and
  /// drops the original from that cluster.
  void Cancel(QueryId qid, ClusterRef ref);

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

  struct Cluster;
  /// The clusters under one key, in merge-scan order. `emptied` marks a
  /// bucket waiting on emptied_ for the reap.
  struct Bucket {
    std::vector<Cluster*> members;
    bool emptied = false;
  };
  /// Hashed, not ordered: Submit sits on the hot path and only ever does
  /// point lookups. Map nodes never move, so a cluster can hold its
  /// entry's address across rehashes; entries are erased only by the
  /// reap, so an address held across a provider's Start() stays valid.
  using MergeIndex = std::unordered_map<ClusterKey, Bucket, ClusterKeyHash>;
  using IndexEntry = MergeIndex::value_type;

  /// How post-extraction tests one original, decided at Submit (see the
  /// header for the checks every member shares).
  struct Compiled {
    enum class Kind : std::uint8_t {
      /// No WHERE and no FRESHNESS: every item that reaches the scan.
      kAlways,
      /// One non-aggregate <, >, <= or >= on `value` (or the SELECT
      /// type) with a numeric literal, and no FRESHNESS: a numeric item
      /// compares with `threshold` as CxtValue::Compare would (NaN
      /// compares equal); any other item does not match.
      kThreshold,
      /// Anything else: query::PostExtract.
      kGeneric,
    };
    Kind kind = Kind::kGeneric;
    query::CompareOp op = query::CompareOp::kLt;
    double threshold = 0.0;
  };
  /// One original of a cluster, index-aligned with Cluster::originals.
  struct Member {
    QueryId qid;
    Compiled where;
  };

  struct Cluster {
    std::vector<query::CxtQuery> originals;
    /// The originals' QueryIds and compiled WHEREs, index-aligned with
    /// `originals`.
    std::vector<Member> members;
    /// Null only when the provider factory failed, or while reaped.
    std::unique_ptr<CxtProvider> provider;
    /// This cluster's handle in clusters_.
    ClusterRef ref = kInvalidClusterRef;
    /// Creation order, across slot reuse (StopAll and the reap use it).
    std::uint64_t seq = 0;
    /// The merge_index_ entry holding this cluster while indexed there,
    /// and its position among the members (swap-remove bookkeeping).
    /// Null when merging is disabled.
    IndexEntry* bucket = nullptr;
    std::size_t bucket_pos = 0;
    bool dead = false;
    /// True while the cluster is counted in the live totals and present
    /// in its bucket (set after a successful start).
    bool indexed = false;
  };

  /// Submit examines at most this many live clusters per bucket: past
  /// that the merge checks themselves would dominate submission cost,
  /// so the query gets a fresh provider instead of a deeper search.
  static constexpr std::size_t kMaxMergeCandidates = 64;

  [[nodiscard]] static ClusterKey KeyFor(const query::CxtQuery& q);
  [[nodiscard]] static Compiled Compile(const query::CxtQuery& q);
  /// Whether a numeric item value passes a kThreshold member.
  [[nodiscard]] static bool Passes(const Compiled& where, double value);

  /// A fresh cluster with its ref and creation sequence number set.
  Cluster& NewCluster();
  /// Destroys the cluster's provider, then the cluster.
  void FreeSlot(Cluster& cluster);
  /// Index of `qid` among the cluster's originals; members.size() when
  /// absent.
  [[nodiscard]] static std::size_t Position(const Cluster& cluster,
                                            QueryId qid);
  /// Removes the original at `pos`.
  static void EraseAt(Cluster& cluster, std::size_t pos);
  /// Re-merges after the original at `pos` left (see the header).
  void Remerge(Cluster& cluster, std::size_t pos);
  void OnProviderDelivery(Cluster& cluster, const CxtItem& item);
  void OnProviderFinished(Cluster& cluster, const Status& status);
  /// Marks a cluster dead, detaches it from its bucket and puts it on the
  /// dead list; the reap frees its slot later.
  void MarkDead(Cluster& cluster);
  /// Lists a bucket left without members for the reap to erase.
  void NoteIfEmptied(IndexEntry& entry);
  /// Frees the dead list's slots and erases the emptied buckets, outside
  /// provider callbacks.
  void ScheduleReap();
  Status StartCluster(Cluster& cluster);
  /// Clusters holding a provider, by creation order (StopAll, teardown).
  [[nodiscard]] std::vector<Cluster*> ByCreation(std::uint64_t from_seq);

  sim::Simulation& sim_;
  query::SourceSel kind_;
  ProviderFactory provider_factory_;
  bool merging_;
  Delivery delivery_;
  Finished finished_;
  /// Live and dead clusters by ClusterRef; clusters never move.
  SlotTable<Cluster> clusters_;
  /// Dead clusters the next reap erases.
  std::vector<Cluster*> dead_;
  /// Live clusters by merge-compatibility key (Submit's candidate set).
  MergeIndex merge_index_;
  /// Buckets left empty since the last reap, which erases those still
  /// empty.
  std::vector<IndexEntry*> emptied_;
  /// The match buffer OnProviderDelivery borrows (see the header).
  std::vector<QueryId> matched_;
  std::uint64_t next_seq_ = 0;
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

/// A device's facades, indexed by SourceSel like QueryRecord::cluster;
/// the kAuto slot stays null.
using FacadeArray = std::array<std::unique_ptr<Facade>, 4>;

}  // namespace contory::core
