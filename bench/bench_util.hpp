// Shared presentation helpers for the reproduction benches: each bench
// regenerates one table or figure of the paper and prints measured values
// next to the paper's, in the paper's "Avg [90% Conf interval]" format.
#pragma once

#include <string>
#include <vector>

namespace contory::bench {

struct Row {
  std::string label;
  std::string measured;
  std::string paper;
  std::string note;
  /// The same quantity as read back from the metrics registry or tracer;
  /// the column is printed only when some row sets it.
  std::string registry = {};
};

/// Prints a boxed comparison table.
void PrintTable(const std::string& title, const std::string& value_header,
                const std::vector<Row>& rows);

/// Prints a section heading.
void PrintHeading(const std::string& text);

/// Minimal machine-readable output: one flat JSON object with fields in
/// insertion order (deterministic across runs, diffable in CI).
class JsonObject {
 public:
  JsonObject& Set(const std::string& key, double value);
  JsonObject& Set(const std::string& key, const std::string& value);
  [[nodiscard]] std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;  // pre-encoded
};

/// Renders rows as a JSON array, one object per line.
[[nodiscard]] std::string ToJsonArray(const std::vector<JsonObject>& rows);

}  // namespace contory::bench
