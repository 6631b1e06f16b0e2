#include "sm/sm_runtime.hpp"

#include <utility>

#include "common/logging.hpp"
#include "obs/observability.hpp"
#include "phone/smart_phone.hpp"

namespace contory::sm {
namespace {
constexpr const char* kModule = "sm";
/// Tag exposed by nodes willing to route Contory SMs.
const std::string kParticipationTag = "contory";
}  // namespace

void SmBus::Attach(net::NodeId id, SmRuntime* rt) {
  if (id >= runtimes_.size()) {
    runtimes_.resize(id + 1, nullptr);
    visits_.resize(id + 1);
  }
  runtimes_[id] = rt;
}

SmRuntime::SmRuntime(sim::Simulation& sim, SmBus& bus,
                     net::WifiController& wifi, SmRuntimeConfig config)
    : sim_(sim),
      bus_(bus),
      wifi_(wifi),
      config_(std::move(config)),
      tags_(sim) {
  bus_.Attach(node(), this);
  wifi_.SetFrameHandler(
      [this](net::NodeId from, const std::vector<std::byte>& wire) {
        Receive(from, wire);
      });
}

SmRuntime::~SmRuntime() { bus_.Detach(node()); }

void SmRuntime::SetParticipating(bool participating) {
  if (participating) {
    tags_.Upsert(kParticipationTag, "1");
  } else {
    (void)tags_.Delete(kParticipationTag);
  }
}

bool SmRuntime::participating() const {
  return tags_.Has(kParticipationTag);
}

void SmRuntime::RegisterCodeBrick(const std::string& brick,
                                  std::size_t code_bytes, Handler handler) {
  if (!handler) throw std::invalid_argument("null code-brick handler");
  bricks_[brick] = {code_bytes, std::move(handler)};
}

bool SmRuntime::HasCodeBrick(const std::string& brick) const {
  return bricks_.contains(brick);
}

std::size_t SmRuntime::CodeBytes(const std::string& brick) const {
  const auto it = bricks_.find(brick);
  return it == bricks_.end() ? 0 : it->second.first;
}

bool SmRuntime::CodeCached(const std::string& brick) const {
  return code_cache_index_.contains(brick);
}

void SmRuntime::TouchCodeCache(const std::string& brick) {
  if (const auto it = code_cache_index_.find(brick);
      it != code_cache_index_.end()) {
    code_cache_lru_.splice(code_cache_lru_.begin(), code_cache_lru_,
                           it->second);
    return;
  }
  code_cache_lru_.push_front(brick);
  code_cache_index_[brick] = code_cache_lru_.begin();
  if (code_cache_lru_.size() > config_.code_cache_capacity) {
    code_cache_index_.erase(code_cache_lru_.back());
    code_cache_lru_.pop_back();
  }
}

Status SmRuntime::Inject(SmartMessage sm) {
  if (resident_ >= config_.max_resident) {
    ++rejected_;
    return ResourceExhausted("admission manager: node busy");
  }
  ++admitted_;
  ++resident_;
  TouchCodeCache(sm.code_brick);
  ScheduleExecution(std::move(sm), /*count_in_breakup=*/false);
  return Status::Ok();
}

void SmRuntime::ScheduleExecution(SmartMessage sm, bool count_in_breakup) {
  // Scheduler: the SM waits for a VM thread; the thread-switch overhead is
  // 12-14% of per-hop time in the paper's break-up.
  const SimDuration ts = wifi_.phone().profile().wifi_thread_switch;
  if (count_in_breakup) sm.breakup.thread_switch += ts;
  sim_.ScheduleAfter(ts, [this, sm = std::move(sm)]() mutable {
    --resident_;
    ++executed_;
    const auto it = bricks_.find(sm.code_brick);
    // The hop span covers serialize -> transfer -> thread switch; it
    // closes here, where the SM starts (or fails to start) executing.
    COBS(if (sm.trace_hop != 0) {
      obs::Observability::tracer().EndStage(
          sm.trace_hop, sim_.Now(),
          it == bricks_.end() ? "dead:no-brick" : "ok");
      sm.trace_hop = 0;
    });
    if (it == bricks_.end()) {
      CLOG_WARN(kModule, "node %u has no code brick '%s'; SM %s dies",
                node(), sm.code_brick.c_str(), sm.id.c_str());
      return;
    }
    SmContext ctx{sim_, *this, node()};
    it->second.second(ctx, std::move(sm));
  }, "sm.execute");
}

void SmRuntime::BeginHopSpan(SmartMessage& sm, net::NodeId next) {
  if (sm.trace_parent == 0) return;
  auto& tracer = obs::Observability::tracer();
  phone::SmartPhone& sender = wifi_.phone();
  sm.trace_hop = tracer.BeginHop(
      sm.trace_parent, "hop:" + std::to_string(sm.hop_count), sim_.Now(),
      [&sender] { return sender.energy().TotalEnergyJoules(); });
  if (sm.trace_hop != 0) {
    tracer.AddNote(sm.trace_hop, "from:" + std::to_string(node()) +
                                     " to:" + std::to_string(next));
  }
}

void SmRuntime::CloseHopOnLoss(const std::string& sm_id,
                               const Status& cause) {
  const SmBus::TraceContext ctx = bus_.TakeTrace(sm_id);
  if (ctx.hop != 0) {
    obs::Observability::tracer().EndStage(ctx.hop, sim_.Now(),
                                          "lost: " + cause.ToString());
  }
}

void SmRuntime::Migrate(SmartMessage sm, net::NodeId next) {
  SmRuntime* peer = bus_.Find(next);
  if (peer == nullptr || !wifi_.IsNeighbor(next)) {
    COBS(if (sm.trace_parent != 0) {
      obs::Observability::tracer().AddNote(
          sm.trace_parent, "sm-dead:unreachable@" + std::to_string(node()));
    });
    return;
  }
  const std::size_t code_bytes = CodeBytes(sm.code_brick);
  const bool cached = peer->CodeCached(sm.code_brick);

  sm.hop_count += 1;
  sm.visited.push_back(next);
  COBS(BeginHopSpan(sm, next));

  // Serialization on the local VM (code travels unless cached remotely).
  const std::size_t wire_size = sm.WireBytes(code_bytes, cached);
  const SimDuration ser =
      wifi_.phone().SerializationTime(wire_size);
  wifi_.phone().ChargeCpu(ser);
  sm.breakup.serialize += ser;
  // The frame pays connect + transfer inside WifiController; account them
  // in the SM's own instrumentation too.
  sm.breakup.connect += wifi_.phone().profile().wifi_connect_latency;
  sm.breakup.transfer += wifi_.TransferTime(wire_size);

  // Trace context crosses the air out-of-band (the wire format is load-
  // bearing for transfer timing); the receiver or a loss path takes it.
  COBS(if (sm.trace_parent != 0) {
    bus_.StashTrace(sm.id, {sm.trace_parent, sm.trace_hop});
  });

  auto wire = sm.Serialize(code_bytes, cached);
  sim_.ScheduleAfter(ser, [this, next, id = sm.id,
                           wire = std::move(wire)]() mutable {
    wifi_.SendFrame(next, std::move(wire), [this, id](Status s) {
      if (!s.ok()) COBS(CloseHopOnLoss(id, s));
    });
  }, "sm.serialize");
}

void SmRuntime::Receive(net::NodeId from, const std::vector<std::byte>& wire) {
  (void)from;
  auto sm = SmartMessage::Deserialize(wire);
  if (!sm.ok()) {
    CLOG_WARN(kModule, "node %u dropped malformed SM frame: %s", node(),
              sm.status().ToString().c_str());
    return;
  }
  COBS({
    const SmBus::TraceContext ctx = bus_.TakeTrace(sm->id);
    sm->trace_parent = ctx.parent;
    sm->trace_hop = ctx.hop;
  });
  if (resident_ >= config_.max_resident) {
    ++rejected_;  // admission rejection = silent SM death
    COBS(if (sm->trace_hop != 0) {
      obs::Observability::tracer().EndStage(sm->trace_hop, sim_.Now(),
                                            "rejected:admission");
    });
    return;
  }
  ++admitted_;
  ++resident_;
  TouchCodeCache(sm->code_brick);
  ScheduleExecution(*std::move(sm), /*count_in_breakup=*/true);
}

template <class Stop>
net::NodeId SmRuntime::Bfs(std::span<const net::NodeId> exclude,
                           net::NodeId origin, int max_depth,
                           Stop&& stop) const {
  std::vector<SmBus::Visit>& visits = bus_.visits_;
  if (++bus_.epoch_ == 0) {  // wrapped: a stale stamp could match again
    for (SmBus::Visit& v : visits) v.stamp = 0;
    bus_.epoch_ = 1;
  }
  const std::uint32_t epoch = bus_.epoch_;
  for (const net::NodeId id : exclude) {
    if (id < visits.size()) visits[id].stamp = epoch;
  }
  if (origin < visits.size()) visits[origin].stamp = epoch;
  std::vector<net::NodeId>& order = bus_.order_;
  std::vector<net::NodeId>& neighbors = bus_.neighbors_;
  order.clear();
  visits[node()] = SmBus::Visit{epoch, net::kInvalidNode, 0};
  order.push_back(node());
  for (std::size_t head = 0; head < order.size(); ++head) {
    const net::NodeId current = order[head];
    const int depth = visits[current].depth;
    if (max_depth > 0 && depth >= max_depth) {
      continue;  // bounded radius: do not expand past the hop budget
    }
    neighbors.clear();
    bus_.runtimes_[current]->wifi_.NeighborsInto(neighbors);
    for (const net::NodeId nb : neighbors) {
      if (nb >= visits.size() || visits[nb].stamp == epoch) continue;
      const SmRuntime* nb_rt = bus_.runtimes_[nb];
      if (nb_rt == nullptr || !nb_rt->participating()) continue;
      visits[nb] = SmBus::Visit{epoch, current, depth + 1};
      order.push_back(nb);
      if (stop(nb)) return nb;
    }
  }
  return net::kInvalidNode;
}

Result<net::NodeId> SmRuntime::NextHopTowardTag(
    const std::string& tag, std::span<const net::NodeId> exclude,
    net::NodeId origin) const {
  // The nearest node exposing the tag is the first one discovered.
  const net::NodeId target = Bfs(exclude, origin, 0, [&](net::NodeId n) {
    return bus_.runtimes_[n]->tags_.Has(tag);
  });
  if (target == net::kInvalidNode) {
    return NotFound("no reachable node exposes tag '" + tag + "'");
  }
  // Walk back to the first hop from this node.
  net::NodeId hop = target;
  while (bus_.visits_[hop].parent != node()) hop = bus_.visits_[hop].parent;
  return hop;
}

Result<int> SmRuntime::HopDistanceToTag(const std::string& tag) const {
  if (tags_.Has(tag)) return 0;
  const net::NodeId target =
      Bfs({}, net::kInvalidNode, 0, [&](net::NodeId n) {
        return bus_.runtimes_[n]->tags_.Has(tag);
      });
  if (target == net::kInvalidNode) {
    return NotFound("no reachable node exposes tag '" + tag + "'");
  }
  return bus_.visits_[target].depth;
}

std::vector<std::pair<net::NodeId, int>> SmRuntime::NodesWithTag(
    const std::string& tag, int max_hops) const {
  (void)Bfs({}, net::kInvalidNode, max_hops,
            [](net::NodeId) { return false; });
  std::vector<std::pair<net::NodeId, int>> out;
  for (std::size_t i = 1; i < bus_.order_.size(); ++i) {  // [0] = this node
    const net::NodeId candidate = bus_.order_[i];
    if (bus_.runtimes_[candidate]->tags_.Has(tag)) {
      out.emplace_back(candidate, bus_.visits_[candidate].depth);
    }
  }
  return out;
}

void SmRuntime::RegisterReplyHandler(const std::string& message_id,
                                     ReplyHandler handler) {
  reply_handlers_[message_id] = std::move(handler);
}

void SmRuntime::UnregisterReplyHandler(const std::string& message_id) {
  reply_handlers_.erase(message_id);
}

bool SmRuntime::DeliverReply(SmartMessage sm) {
  const auto it = reply_handlers_.find(sm.id);
  if (it == reply_handlers_.end()) return false;
  // Move the handler out: delivery may re-register (periodic queries).
  ReplyHandler handler = std::move(it->second);
  reply_handlers_.erase(it);
  handler(std::move(sm));
  return true;
}

}  // namespace contory::sm
