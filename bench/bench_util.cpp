#include "bench_util.hpp"

#include <algorithm>
#include <cstdio>

namespace contory::bench {

void PrintHeading(const std::string& text) {
  std::printf("\n=== %s ===\n", text.c_str());
}

void PrintTable(const std::string& title, const std::string& value_header,
                const std::vector<Row>& rows) {
  std::size_t label_w = std::string("operation").size();
  std::size_t measured_w = std::string("measured").size();
  std::size_t registry_w = 0;
  std::size_t paper_w = std::string("paper").size();
  for (const auto& row : rows) {
    label_w = std::max(label_w, row.label.size());
    measured_w = std::max(measured_w, row.measured.size());
    registry_w = std::max(registry_w, row.registry.size());
    paper_w = std::max(paper_w, row.paper.size());
  }
  if (registry_w > 0) {
    registry_w = std::max(registry_w, std::string("registry").size());
  }
  const auto line = [&](const Row& row) {
    std::printf("  %-*s | %-*s | ", static_cast<int>(label_w),
                row.label.c_str(), static_cast<int>(measured_w),
                row.measured.c_str());
    if (registry_w > 0) {
      std::printf("%-*s | ", static_cast<int>(registry_w),
                  row.registry.c_str());
    }
    std::printf("%-*s | %s\n", static_cast<int>(paper_w), row.paper.c_str(),
                row.note.c_str());
  };
  std::printf("\n%s\n", title.c_str());
  line({"operation", "measured", "paper", value_header,
        registry_w > 0 ? "registry" : ""});
  const std::size_t rule = label_w + measured_w + paper_w + 30 +
                           (registry_w > 0 ? registry_w + 3 : 0);
  std::printf("  %s\n", std::string(rule, '-').c_str());
  for (const auto& row : rows) line(row);
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

JsonObject& JsonObject::Set(const std::string& key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key,
                            const std::string& value) {
  fields_.emplace_back(key, '"' + JsonEscape(value) + '"');
  return *this;
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"' + JsonEscape(fields_[i].first) + "\": " + fields_[i].second;
  }
  out += '}';
  return out;
}

std::string ToJsonArray(const std::vector<JsonObject>& rows) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += "  " + rows[i].ToString();
    if (i + 1 < rows.size()) out += ',';
    out += '\n';
  }
  out += "]\n";
  return out;
}

}  // namespace contory::bench
