// The application-facing Client interface (Sec. 4.4).
//
// "To interact with Contory, an application needs to implement a Client
// interface and implements the following methods: receiveCxtItem(...) in
// order to handle the reception of collected context items;
// informError(String msg) to be called by several Contory modules in case
// of malfunctioning or failure; makeDecision(String msg) to be invoked by
// the AccessController to grant or block the interaction with external
// entities."
#pragma once

#include <string>
#include <vector>

#include "core/model/cxt_item.hpp"

namespace contory::core {

class Client {
 public:
  virtual ~Client() = default;

  /// Handles a context item collected for one of this client's queries.
  /// Never called reentrantly: items that arise while it runs are handed
  /// over after it returns.
  virtual void ReceiveCxtItem(const CxtItem& item) = 0;

  /// Notified of malfunction or failure affecting this client's queries
  /// (e.g. "sensor lost; switched to adHocNetwork provisioning").
  virtual void InformError(const std::string& msg) = 0;

  /// Asked by the AccessController (high-security mode) whether to admit
  /// an unknown context source. Return true to admit.
  virtual bool MakeDecision(const std::string& msg) = 0;
};

/// Convenience client assembling items into a vector; handy in tests,
/// examples, and benches.
class CollectingClient : public Client {
 public:
  void ReceiveCxtItem(const CxtItem& item) override {
    items.push_back(item);
  }
  void InformError(const std::string& msg) override {
    errors.push_back(msg);
  }
  bool MakeDecision(const std::string&) override { return admit_all; }

  std::vector<CxtItem> items;
  std::vector<std::string> errors;
  bool admit_all = true;
};

}  // namespace contory::core
