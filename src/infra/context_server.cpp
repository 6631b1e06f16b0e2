#include "infra/context_server.hpp"

#include <algorithm>

#include "core/query/predicate.hpp"
#include "infra/event_envelope.hpp"

namespace contory::infra {

std::vector<std::byte> EncodeStoreRequest(
    const std::string& publisher_name,
    const std::optional<GeoPoint>& position, const CxtItem& item) {
  ByteWriter w;
  w.WriteU8(static_cast<std::uint8_t>(ServerOp::kStore));
  w.WriteString(publisher_name);
  w.WriteBool(position.has_value());
  if (position.has_value()) {
    w.WriteF64(position->lat);
    w.WriteF64(position->lon);
  }
  item.Encode(w);
  if (w.size() < kEventNotificationBytes) {
    w.WritePadding(kEventNotificationBytes - w.size());
  }
  return std::move(w).Take();
}

namespace {

std::string RepoKey(const std::string& entity, const std::string& type) {
  return entity + "\x1f" + type;
}

std::vector<std::byte> Ack() {
  // Acks are small control frames, not full event notifications.
  ByteWriter w;
  w.WriteU8(1);
  w.WritePadding(63);
  return std::move(w).Take();
}

std::vector<std::byte> Nack(const std::string& msg) {
  ByteWriter w;
  w.WriteU8(0);
  w.WriteString(msg);
  return std::move(w).Take();
}

std::vector<std::byte> ItemsResponse(const std::vector<CxtItem>& items) {
  ByteWriter w;
  w.WriteU8(1);
  w.WriteU32(static_cast<std::uint32_t>(items.size()));
  for (const auto& item : items) item.Encode(w);
  if (w.size() < kEventNotificationBytes) {
    w.WritePadding(kEventNotificationBytes - w.size());
  }
  return std::move(w).Take();
}

}  // namespace

ContextServer::ContextServer(sim::Simulation& sim,
                             net::CellularNetwork& network,
                             std::string address,
                             ContextServerConfig config)
    : sim_(sim),
      network_(network),
      address_(std::move(address)),
      config_(config) {
  const Status s = network_.RegisterServer(
      address_, [this](net::NodeId from, const std::vector<std::byte>& req,
                       net::CellularNetwork::Respond respond) {
        HandleRequest(from, req, std::move(respond));
      });
  if (!s.ok()) {
    throw std::invalid_argument("ContextServer: " + s.ToString());
  }
}

ContextServer::~ContextServer() { network_.UnregisterServer(address_); }

void ContextServer::StoreDirect(StoredItem stored) {
  auto& ring = repo_[RepoKey(stored.entity, stored.item.type)];
  ring.push_back(stored);
  ++count_;
  while (ring.size() > config_.max_items_per_key) {
    ring.pop_front();
    --count_;
  }
  EvaluateEventRegistrations(stored);
}

bool ContextServer::Matches(const query::CxtQuery& q, const StoredItem& s,
                            SimTime now) {
  if (s.item.type != q.select_type) return false;
  if (s.item.IsExpired(now)) return false;
  if (q.freshness.has_value() && !s.item.IsFresh(now, *q.freshness)) {
    return false;
  }
  if (q.where.has_value()) {
    const auto match = query::EvalWhere(*q.where, s.item);
    if (!match.ok() || !*match) return false;
  }
  // Destination constraints: if any source names a region or entity, the
  // item must satisfy at least one named destination.
  bool has_dest = false;
  bool dest_ok = false;
  for (const auto& src : q.from.sources) {
    if (src.region.has_value()) {
      has_dest = true;
      if (s.location.has_value() &&
          DistanceMeters(*s.location, src.region->center) <=
              src.region->radius_m) {
        dest_ok = true;
      }
    }
    if (src.entity.has_value()) {
      has_dest = true;
      if (s.entity == src.entity->entity_id) dest_ok = true;
    }
  }
  return !has_dest || dest_ok;
}

std::vector<CxtItem> ContextServer::Evaluate(const query::CxtQuery& q) const {
  const SimTime now = sim_.Now();
  std::vector<CxtItem> out;
  for (const auto& [key, ring] : repo_) {
    // Only the newest matching item per (entity, type): the repository
    // answers "current context", not history.
    for (auto it = ring.rbegin(); it != ring.rend(); ++it) {
      if (now - it->item.timestamp > config_.max_item_age) break;
      if (Matches(q, *it, now)) {
        CxtItem item = it->item;
        item.source = {SourceKind::kExtInfra, address_};
        out.push_back(std::move(item));
        break;
      }
    }
  }
  // Deterministic order: newest first, then by id.
  std::sort(out.begin(), out.end(), [](const CxtItem& a, const CxtItem& b) {
    if (a.timestamp != b.timestamp) return a.timestamp > b.timestamp;
    return a.id < b.id;
  });
  return out;
}

void ContextServer::PushResults(Registration& reg) {
  if (outage_) return;
  const auto items = Evaluate(reg.query);
  if (items.empty()) return;
  ByteWriter w;
  w.WriteU32(static_cast<std::uint32_t>(items.size()));
  for (const auto& item : items) item.Encode(w);
  const auto frame = WrapEvent("cxt." + reg.query.id, std::move(w).Take());
  (void)network_.PushToClient(reg.client, frame);
  reg.samples_sent += static_cast<int>(items.size());
}

void ContextServer::EvaluateEventRegistrations(const StoredItem& trigger) {
  ExpireRegistrations();
  for (auto& [id, reg] : registrations_) {
    if (!reg.query.event.has_value()) continue;
    if (trigger.item.type != reg.query.select_type) continue;
    // Build the evaluation window: all stored items matching the query.
    std::vector<CxtItem> window;
    for (const auto& [key, ring] : repo_) {
      for (const auto& stored : ring) {
        if (Matches(reg.query, stored, sim_.Now())) {
          window.push_back(stored.item);
        }
      }
    }
    const auto fire = query::EvalEvent(*reg.query.event, window);
    if (fire.ok() && *fire) PushResults(reg);
  }
}

void ContextServer::ExpireRegistrations() {
  for (auto it = registrations_.begin(); it != registrations_.end();) {
    bool expired = sim_.Now() >= it->second.expires;
    if (it->second.query.duration.samples.has_value() &&
        it->second.samples_sent >= *it->second.query.duration.samples) {
      expired = true;
    }
    if (expired) {
      it = registrations_.erase(it);
    } else {
      ++it;
    }
  }
}

void ContextServer::HandleRequest(net::NodeId from,
                                  const std::vector<std::byte>& request,
                                  net::CellularNetwork::Respond respond) {
  if (outage_) {
    // Dropping `respond` leaves the client's exchange to time out.
    ++dropped_requests_;
    return;
  }
  ByteReader r{request};
  const auto op = r.ReadU8();
  if (!op.ok()) {
    respond(Nack("empty request"));
    return;
  }
  switch (static_cast<ServerOp>(*op)) {
    case ServerOp::kStore: {
      StoredItem stored;
      auto entity = r.ReadString();
      if (!entity.ok()) {
        respond(Nack("missing entity"));
        return;
      }
      stored.entity = *std::move(entity);
      const auto has_loc = r.ReadBool();
      if (!has_loc.ok()) {
        respond(Nack("missing location flag"));
        return;
      }
      if (*has_loc) {
        const auto lat = r.ReadF64();
        const auto lon = r.ReadF64();
        if (!lat.ok() || !lon.ok()) {
          respond(Nack("bad location"));
          return;
        }
        stored.location = GeoPoint{*lat, *lon};
      }
      auto item = CxtItem::Deserialize(r);
      if (!item.ok()) {
        respond(Nack("bad item: " + item.status().ToString()));
        return;
      }
      stored.item = *std::move(item);
      StoreDirect(std::move(stored));
      respond(Ack());
      return;
    }
    case ServerOp::kQuery: {
      const auto len = r.ReadU32();
      if (!len.ok()) {
        respond(Nack("missing query"));
        return;
      }
      const auto qbytes = r.ReadBytes(*len);
      if (!qbytes.ok()) {
        respond(Nack("truncated query"));
        return;
      }
      const auto q = query::CxtQuery::Deserialize(*qbytes);
      if (!q.ok()) {
        respond(Nack("bad query: " + q.status().ToString()));
        return;
      }
      respond(ItemsResponse(Evaluate(*q)));
      return;
    }
    case ServerOp::kRegisterQuery: {
      const auto len = r.ReadU32();
      if (!len.ok()) {
        respond(Nack("missing query"));
        return;
      }
      const auto qbytes = r.ReadBytes(*len);
      if (!qbytes.ok()) {
        respond(Nack("truncated query"));
        return;
      }
      auto q = query::CxtQuery::Deserialize(*qbytes);
      if (!q.ok()) {
        respond(Nack("bad query: " + q.status().ToString()));
        return;
      }
      Registration reg;
      reg.query = *std::move(q);
      reg.client = from;
      reg.expires = reg.query.duration.time.has_value()
                        ? sim_.Now() + *reg.query.duration.time
                        : sim_.Now() + config_.max_item_age;
      const std::string id = reg.query.id;
      auto [it, inserted] =
          registrations_.insert_or_assign(id, std::move(reg));
      Registration& stored = it->second;
      if (stored.query.every.has_value()) {
        stored.pusher = std::make_unique<sim::PeriodicTask>(
            sim_, *stored.query.every, [this, id] {
              ExpireRegistrations();
              const auto reg_it = registrations_.find(id);
              if (reg_it == registrations_.end()) return;
              PushResults(reg_it->second);
            });
      }
      respond(Ack());
      return;
    }
    case ServerOp::kCancelQuery: {
      auto id = r.ReadString();
      if (!id.ok()) {
        respond(Nack("missing query id"));
        return;
      }
      registrations_.erase(*id);
      respond(Ack());
      return;
    }
  }
  respond(Nack("unknown opcode"));
}

}  // namespace contory::infra
