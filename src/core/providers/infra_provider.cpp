#include "core/providers/infra_provider.hpp"

#include "common/logging.hpp"
#include "infra/event_envelope.hpp"

namespace contory::core {
namespace {
constexpr const char* kModule = "infra-prov";
}

InfraCxtProvider::InfraCxtProvider(sim::Simulation& sim,
                                   query::CxtQuery query, Callbacks callbacks,
                                   CellularReference& cellular,
                                   std::string infra_address)
    : CxtProvider(sim, std::move(query), std::move(callbacks)),
      cellular_(cellular),
      infra_address_(std::move(infra_address)),
      query_id_(this->query().id),
      topic_("cxt." + query_id_) {}

InfraCxtProvider::~InfraCxtProvider() {
  *life_ = false;
  DoStop();
}

bool InfraCxtProvider::CanServe(const CellularReference& cellular,
                                const std::string& infra_address) {
  return cellular.Available() && !infra_address.empty();
}

std::vector<std::byte> InfraCxtProvider::BuildRequest(
    infra::ServerOp op) const {
  ByteWriter w;
  w.WriteU8(static_cast<std::uint8_t>(op));
  query::CxtQuery wire = query();
  wire.id = query_id_;
  const auto qbytes = wire.Serialize();
  w.WriteU32(static_cast<std::uint32_t>(qbytes.size()));
  w.WriteRaw(qbytes);
  // Everything over the event-based platform travels notification-sized.
  if (w.size() < infra::kEventNotificationBytes) {
    w.WritePadding(infra::kEventNotificationBytes - w.size());
  }
  return std::move(w).Take();
}

void InfraCxtProvider::DoStart() {
  if (!cellular_.Available()) {
    sim().ScheduleAfter(SimDuration::zero(), [this, life = life_] {
      if (!*life || !running()) return;
      Fail(Unavailable("cellular radio unavailable for extInfra query"));
    });
    return;
  }
  if (query().mode() == query::InteractionMode::kOnDemand) {
    RunOnDemand();
  } else {
    RegisterLongRunning();
  }
}

void InfraCxtProvider::DoStop() {
  cellular_.RemoveTopicHandler(topic_);
  if (registered_ && cellular_.Available()) {
    registered_ = false;
    ByteWriter w;
    w.WriteU8(static_cast<std::uint8_t>(infra::ServerOp::kCancelQuery));
    w.WriteString(query_id_);
    cellular_.SendRequest(infra_address_, std::move(w).Take(),
                          [](Result<std::vector<std::byte>>) {});
  }
}

void InfraCxtProvider::RunOnDemand() {
  cellular_.SendRequest(
      infra_address_, BuildRequest(infra::ServerOp::kQuery),
      [this, life = life_](Result<std::vector<std::byte>> response) {
        if (!*life || !running()) return;
        if (!response.ok()) {
          // Coverage gaps and server outages surface as transient errors:
          // back off and re-issue the whole round before giving up.
          if (RetryTransient(response.status(), [this] { RunOnDemand(); })) {
            return;
          }
          Fail(response.status());
          return;
        }
        RetrySucceeded();
        ByteReader r{*response};
        const auto ok = r.ReadU8();
        if (!ok.ok() || *ok != 1) {
          Fail(Internal("infrastructure rejected query"));
          return;
        }
        const auto count = r.ReadU32();
        if (!count.ok()) {
          Fail(count.status());
          return;
        }
        for (std::uint32_t i = 0; i < *count && running(); ++i) {
          auto item = CxtItem::Deserialize(r);
          if (!item.ok()) {
            Fail(item.status());
            return;
          }
          Offer(*std::move(item));
        }
        if (running()) CompleteOk();
      },
      AttemptTimeout());
}

void InfraCxtProvider::CoverDeadline(SimTime deadline) {
  // The merged DURATION is the longest window, so re-registering the
  // merged query reaches `deadline`; DoStop() still cancels it.
  if (!running() || registered_until_ == SimTime{} ||
      deadline <= registered_until_) {
    return;
  }
  RegisterLongRunning();
}

void InfraCxtProvider::RegisterLongRunning() {
  if (query().duration.time.has_value()) {
    registered_until_ = sim().Now() + *query().duration.time;
  }
  cellular_.SetTopicHandler(
      topic_, [this](const infra::Event& event) { HandlePush(event); });
  cellular_.SendRequest(
      infra_address_, BuildRequest(infra::ServerOp::kRegisterQuery),
      [this, life = life_](Result<std::vector<std::byte>> response) {
        if (!*life || !running()) return;
        if (!response.ok()) {
          if (RetryTransient(response.status(),
                             [this] { RegisterLongRunning(); })) {
            return;
          }
          Fail(response.status());
          return;
        }
        RetrySucceeded();
        ByteReader r{*response};
        const auto ok = r.ReadU8();
        if (!ok.ok() || *ok != 1) {
          Fail(Internal("infrastructure rejected registration"));
          return;
        }
        registered_ = true;
      },
      AttemptTimeout());
}

void InfraCxtProvider::HandlePush(const infra::Event& event) {
  if (!running()) return;
  ByteReader r{event.payload};
  const auto count = r.ReadU32();
  if (!count.ok()) return;
  for (std::uint32_t i = 0; i < *count && running(); ++i) {
    auto item = CxtItem::Deserialize(r);
    if (!item.ok()) {
      CLOG_WARN(kModule, "bad pushed item: %s",
                item.status().ToString().c_str());
      return;
    }
    // The server already applied EVERY/EVENT; skip local event windowing.
    OfferPreEvaluated(*std::move(item));
  }
}

}  // namespace contory::core
