// Smart Messages runtime system.
//
// "To support SM execution, the SM runtime system runs inside a Java
// virtual machine and consists of: (i) admission manager that performs
// admission control and prevents excessive use of resources by incoming
// SMs, (ii) code cache that stores frequently executed code bricks,
// (iii) scheduler that dispatches ready SMs for execution on the Java
// virtual machine, and (iv) tag space" (Sec. 5.1).
//
// One SmRuntime runs per node. Code bricks are handlers registered by
// name on every participating node (the same application is installed
// everywhere); the code cache determines whether a migration must carry
// the brick's bytes. Content-based routing ("nodes ... exposing the
// 'contory' tag will collaborate with each other to forward the SM
// towards the destination") is modelled as hop-by-hop forwarding along
// shortest paths over the participation overlay: every hop runs one BFS
// from the current node over dense, epoch-stamped scratch arrays owned by
// the SmBus (no hash lookup and, once warm, no allocation per hop).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "net/wifi.hpp"
#include "sim/simulation.hpp"
#include "sm/smart_message.hpp"
#include "sm/tag_space.hpp"

namespace contory::sm {

class SmRuntime;

/// Per-simulation registry of SM runtimes, used for migration delivery
/// and as the home of the routing BFS scratch. Runtimes are indexed by
/// NodeId (Medium ids are dense), so Find is a bounds check plus a load.
class SmBus {
 public:
  [[nodiscard]] SmRuntime* Find(net::NodeId id) const noexcept {
    return id < runtimes_.size() ? runtimes_[id] : nullptr;
  }

  /// Trace context ferried across the air gap out-of-band: the wire
  /// format must not change (it sets transfer times and energy), so the
  /// sender stashes the in-flight SM's span handles here and the
  /// receiver takes them back by message id. Entries are erased on
  /// delivery and on every loss path; only a malformed frame (never
  /// produced by our own serializer) could strand one.
  struct TraceContext {
    std::uint64_t parent = 0;
    std::uint64_t hop = 0;
  };
  void StashTrace(const std::string& sm_id, TraceContext ctx) {
    traces_[sm_id] = ctx;
  }
  /// Removes and returns the stashed context ({0,0} when none).
  TraceContext TakeTrace(const std::string& sm_id) {
    const auto it = traces_.find(sm_id);
    if (it == traces_.end()) return {};
    const TraceContext ctx = it->second;
    traces_.erase(it);
    return ctx;
  }
  [[nodiscard]] std::size_t pending_traces() const noexcept {
    return traces_.size();
  }

 private:
  friend class SmRuntime;
  void Attach(net::NodeId id, SmRuntime* rt);
  void Detach(net::NodeId id) { runtimes_[id] = nullptr; }

  std::vector<SmRuntime*> runtimes_;  // by NodeId; nullptr = no runtime
  std::unordered_map<std::string, TraceContext> traces_;

  // --- Routing BFS scratch, shared by every runtime on this bus ---------
  // The simulation is single-threaded, so one scratch serves all runtimes
  // and a warm BFS allocates nothing. Rules (see SmRuntime::Bfs):
  //   - a BFS's results (visits_, order_) are valid until the next BFS on
  //     this bus;
  //   - a BFS stop predicate must not start a BFS;
  //   - a neighbor id beyond visits_ has no runtime (a radio registered
  //     after the last runtime) and is non-participating.
  struct Visit {
    std::uint32_t stamp = 0;  // == epoch_: visited or excluded this BFS
    net::NodeId parent = net::kInvalidNode;
    int depth = 0;
  };
  std::vector<Visit> visits_;  // by NodeId, parallel to runtimes_
  std::uint32_t epoch_ = 0;    // bumped per BFS; all stamps clear on wrap
  std::vector<net::NodeId> order_;      // visit order, read as the FIFO
  std::vector<net::NodeId> neighbors_;  // one expansion's WiFi neighbors
};

/// Execution context handed to a code-brick handler at the node where the
/// SM currently executes.
struct SmContext {
  sim::Simulation& sim;
  SmRuntime& runtime;
  net::NodeId node;
};

struct SmRuntimeConfig {
  /// Admission manager: maximum SMs resident (queued or executing).
  std::size_t max_resident = 16;
  /// Code cache capacity in bricks (LRU).
  std::size_t code_cache_capacity = 32;
};

class SmRuntime {
 public:
  using Handler = std::function<void(SmContext&, SmartMessage)>;
  /// Callback for SMs that return to their origin with a reply.
  using ReplyHandler = std::function<void(SmartMessage)>;

  SmRuntime(sim::Simulation& sim, SmBus& bus, net::WifiController& wifi,
            SmRuntimeConfig config = {});
  ~SmRuntime();

  SmRuntime(const SmRuntime&) = delete;
  SmRuntime& operator=(const SmRuntime&) = delete;

  [[nodiscard]] net::NodeId node() const noexcept { return wifi_.node(); }
  [[nodiscard]] TagSpace& tags() noexcept { return tags_; }
  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] net::WifiController& wifi() noexcept { return wifi_; }

  // --- Participation ------------------------------------------------------
  /// Joins/leaves the Contory SM overlay by exposing the participation tag.
  void SetParticipating(bool participating);
  [[nodiscard]] bool participating() const;

  // --- Code bricks ---------------------------------------------------------
  /// Installs a handler for `brick`; `code_bytes` is the wire size the
  /// brick's code adds when it must travel with the SM.
  void RegisterCodeBrick(const std::string& brick, std::size_t code_bytes,
                         Handler handler);
  [[nodiscard]] bool HasCodeBrick(const std::string& brick) const;
  [[nodiscard]] std::size_t CodeBytes(const std::string& brick) const;
  /// True when this node's code cache holds the brick (a migration to this
  /// node can omit the code bytes).
  [[nodiscard]] bool CodeCached(const std::string& brick) const;

  // --- Execution -----------------------------------------------------------
  /// Injects an SM for local execution: admission control, then the
  /// scheduler dispatches it (thread-switch latency), then its handler
  /// runs. kResourceExhausted when the admission manager rejects it.
  Status Inject(SmartMessage sm);

  /// Migrates `sm` to a direct neighbor: pays serialization on this node
  /// (code bytes skipped when cached at `next`), the per-hop connection +
  /// transfer on the air, and admission + scheduling at the receiver.
  /// Increments hop_count and records the node in `visited`. Failures are
  /// silent SM death, as on the real platform — issuers use timeouts:
  /// "If no valid result is received within a certain timeout, the query
  /// is cancelled."
  void Migrate(SmartMessage sm, net::NodeId next);

  // --- Content-based routing ----------------------------------------------
  /// First hop on a shortest path (over participating, WiFi-reachable
  /// nodes) toward the nearest node whose tag space exposes `tag`,
  /// skipping the nodes in `exclude` and `origin` (an SM's visited list
  /// and the node it started from, which that list does not hold).
  /// kNotFound when no such node is reachable.
  [[nodiscard]] Result<net::NodeId> NextHopTowardTag(
      const std::string& tag, std::span<const net::NodeId> exclude = {},
      net::NodeId origin = net::kInvalidNode) const;

  /// Hop distance to the nearest reachable node exposing `tag`
  /// (0 = this node itself exposes it).
  [[nodiscard]] Result<int> HopDistanceToTag(const std::string& tag) const;

  /// All reachable nodes exposing `tag` within `max_hops` (0 = unbounded),
  /// paired with their hop distance, nearest first.
  [[nodiscard]] std::vector<std::pair<net::NodeId, int>> NodesWithTag(
      const std::string& tag, int max_hops = 0) const;

  // --- Replies ---------------------------------------------------------
  /// Registers a handler fired when an SM carrying `message_id` reports
  /// completion at this node (used by SM-FINDER issuers).
  void RegisterReplyHandler(const std::string& message_id,
                            ReplyHandler handler);
  void UnregisterReplyHandler(const std::string& message_id);
  /// Called by brick handlers when an SM has returned home; routes the SM
  /// to the registered reply handler. False when nobody is waiting
  /// (cancelled/timed-out query).
  bool DeliverReply(SmartMessage sm);

  // --- Introspection ---------------------------------------------------
  [[nodiscard]] std::uint64_t admitted() const noexcept { return admitted_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }
  [[nodiscard]] std::size_t resident() const noexcept { return resident_; }

 private:
  void Receive(net::NodeId from, const std::vector<std::byte>& wire);
  /// Scheduler dispatch: thread-switch delay, then run the brick handler.
  /// The delay counts toward the SM's migration break-up only for SMs
  /// that arrived over the air (the paper's per-hop decomposition).
  void ScheduleExecution(SmartMessage sm, bool count_in_breakup);
  void TouchCodeCache(const std::string& brick);

  /// Opens the "hop:<n>" trace span for a traced SM about to migrate to
  /// `next`; probes the *sending* phone's energy ledger. COBS-gated at
  /// the call site.
  void BeginHopSpan(SmartMessage& sm, net::NodeId next);
  /// Closes the in-flight hop span of a lost migration (frame loss,
  /// radio-off, peer gone) and drops its stashed trace context.
  void CloseHopOnLoss(const std::string& sm_id, const Status& cause);

  /// BFS over the participation overlay from this node, into the bus
  /// scratch: bus_.order_ lists the visited nodes in discovery order
  /// (this node first) and bus_.visits_ holds their parent and hop depth.
  /// Nodes in `exclude`, and `origin`, other than this one are never
  /// visited. `stop(n)`
  /// is consulted on each newly discovered node and halts the search at
  /// the first true: discovery order is nearest-first, so callers looking
  /// for the nearest match lose nothing by stopping there (a city-scale
  /// overlay would otherwise be fully explored per query). `max_depth` > 0
  /// bounds the search radius in hops. Returns the node that satisfied `stop`,
  /// or kInvalidNode. See SmBus for the scratch rules.
  template <class Stop>
  net::NodeId Bfs(std::span<const net::NodeId> exclude, net::NodeId origin,
                  int max_depth, Stop&& stop) const;

  sim::Simulation& sim_;
  SmBus& bus_;
  net::WifiController& wifi_;
  SmRuntimeConfig config_;
  TagSpace tags_;
  std::unordered_map<std::string, std::pair<std::size_t, Handler>> bricks_;
  std::list<std::string> code_cache_lru_;  // front = most recent
  std::unordered_map<std::string, std::list<std::string>::iterator>
      code_cache_index_;
  std::unordered_map<std::string, ReplyHandler> reply_handlers_;
  std::size_t resident_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace contory::sm
