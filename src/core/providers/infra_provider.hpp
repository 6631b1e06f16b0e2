// InfraCxtProvider (Sec. 4.3).
//
// "InfraCxtProviders are responsible for retrieving context data from
// remote context infrastructures." On-demand queries are a single
// request/response over the 2G/3GReference; long-running queries are
// registered at the infrastructure, whose pushes arrive as event
// notifications on the topic "cxt.<query id>". The infrastructure
// evaluates EVERY/EVENT server-side (saving the phone's radio), so pushed
// items bypass the local EVENT window.
#pragma once

#include <string>

#include "core/providers/provider.hpp"
#include "core/references/cellular_reference.hpp"
#include "infra/context_server.hpp"

namespace contory::core {

class InfraCxtProvider final : public CxtProvider {
 public:
  /// `infra_address` resolves from the query's FROM address or the
  /// device's default.
  InfraCxtProvider(sim::Simulation& sim, query::CxtQuery query,
                   Callbacks callbacks, CellularReference& cellular,
                   std::string infra_address);
  ~InfraCxtProvider() override;

  [[nodiscard]] query::SourceSel kind() const noexcept override {
    return query::SourceSel::kExtInfra;
  }
  [[nodiscard]] const char* transport() const noexcept override {
    return "UMTS event-based";
  }

  /// Re-registers, under the merged query, when `deadline` falls after
  /// the registration the server holds (it lapses at the DURATION of the
  /// query that started the cluster).
  void CoverDeadline(SimTime deadline) override;

  [[nodiscard]] static bool CanServe(const CellularReference& cellular,
                                     const std::string& infra_address);

 protected:
  void DoStart() override;
  void DoStop() override;

 private:
  [[nodiscard]] std::vector<std::byte> BuildRequest(
      infra::ServerOp op) const;
  void RunOnDemand();
  void RegisterLongRunning();
  void HandlePush(const infra::Event& event);

  CellularReference& cellular_;
  std::string infra_address_;
  /// The id the server knows this provider by, fixed at construction: a
  /// re-merge may hand query() another original's id, but requests,
  /// pushes ("cxt.<id>") and the cancel all stay under this one.
  const std::string query_id_;
  std::string topic_;
  bool registered_ = false;
  /// When the last registration sent lapses at the server; zero until a
  /// registration with a time DURATION is sent.
  SimTime registered_until_{};
  std::shared_ptr<bool> life_ = std::make_shared<bool>(true);
};

}  // namespace contory::core
