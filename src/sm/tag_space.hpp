// Smart Messages tag space.
//
// "The tag space provides a shared memory addressable by names for inter
// SM communication and synchronization ... Tags have a name, similar to a
// file name in a file system, which is used for content-based naming of
// nodes" (Sec. 5.1). Contory publishes context items as tags whose name
// carries the context type and whose value carries value + metadata, e.g.
//   temperatureTag: <name=temperature> <value=14C, 1C, trusted>
// Tags may expire (context lifetime) and may be locked with a key
// (the paper's authenticated access mode for published items).
//
// Storage is a flat vector in insertion order, searched by linear name
// comparison: a phone exposes a handful of tags (a city phone holds
// three: "contory", "contory.node.N", "cxt.<type>"), and the SM routing
// BFS probes Has() at every node it visits, where hashing the name
// cost more than comparing it against three short strings.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/time.hpp"
#include "sim/simulation.hpp"

namespace contory::sm {

struct Tag {
  std::string name;
  std::string value;
  SimTime created;
  /// Absolute expiry; nullopt = never expires.
  std::optional<SimTime> expires;
  /// Empty key = public access; otherwise readers must present the key.
  std::string access_key;
};

class TagSpace {
 public:
  explicit TagSpace(sim::Simulation& sim) : sim_(sim) {}

  /// Creates or replaces a tag (publishing a fresh context value replaces
  /// the stale one, as re-exposing a tag does on the SM platform). A
  /// replaced tag keeps its place in insertion order.
  void Upsert(std::string name, std::string value,
              std::optional<SimDuration> lifetime = std::nullopt,
              std::string access_key = {});

  /// Reads a public tag. kPermissionDenied for key-locked tags,
  /// kNotFound for absent or expired ones.
  [[nodiscard]] Result<Tag> Read(const std::string& name) const;

  /// Reads a tag presenting an access key (works for public tags too).
  [[nodiscard]] Result<Tag> ReadWithKey(const std::string& name,
                                        const std::string& key) const;

  /// True if a live (non-expired) tag with this name exists, regardless of
  /// access mode — names are visible for routing, values are not.
  [[nodiscard]] bool Has(const std::string& name) const;

  Status Delete(const std::string& name);

  /// All live tags whose name starts with `prefix` (public and locked;
  /// locked tags are returned with an empty value), in insertion order.
  [[nodiscard]] std::vector<Tag> Match(const std::string& prefix) const;

  /// Drops expired tags; returns how many were removed.
  std::size_t PurgeExpired();

  [[nodiscard]] std::size_t size() const noexcept { return tags_.size(); }

 private:
  [[nodiscard]] bool Expired(const Tag& tag) const noexcept;
  /// The tag named `name` (live or expired), or nullptr.
  [[nodiscard]] const Tag* Find(const std::string& name) const noexcept;

  sim::Simulation& sim_;
  std::vector<Tag> tags_;  // insertion order; names are unique
};

}  // namespace contory::sm
