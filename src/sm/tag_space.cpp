#include "sm/tag_space.hpp"

#include <algorithm>
#include <utility>

namespace contory::sm {

bool TagSpace::Expired(const Tag& tag) const noexcept {
  return tag.expires.has_value() && *tag.expires <= sim_.Now();
}

const Tag* TagSpace::Find(const std::string& name) const noexcept {
  for (const Tag& tag : tags_) {
    if (tag.name == name) return &tag;
  }
  return nullptr;
}

void TagSpace::Upsert(std::string name, std::string value,
                      std::optional<SimDuration> lifetime,
                      std::string access_key) {
  Tag tag;
  tag.name = std::move(name);
  tag.value = std::move(value);
  tag.created = sim_.Now();
  if (lifetime.has_value()) tag.expires = sim_.Now() + *lifetime;
  tag.access_key = std::move(access_key);
  for (Tag& existing : tags_) {
    if (existing.name == tag.name) {
      existing = std::move(tag);
      return;
    }
  }
  tags_.push_back(std::move(tag));
}

Result<Tag> TagSpace::Read(const std::string& name) const {
  const Tag* tag = Find(name);
  if (tag == nullptr || Expired(*tag)) {
    return NotFound("no tag named '" + name + "'");
  }
  if (!tag->access_key.empty()) {
    return PermissionDenied("tag '" + name + "' requires authenticated access");
  }
  return *tag;
}

const std::string* TagSpace::PublicValue(
    const std::string& name) const noexcept {
  const Tag* tag = Find(name);
  if (tag == nullptr || Expired(*tag) || !tag->access_key.empty()) {
    return nullptr;
  }
  return &tag->value;
}

Result<Tag> TagSpace::ReadWithKey(const std::string& name,
                                  const std::string& key) const {
  const Tag* tag = Find(name);
  if (tag == nullptr || Expired(*tag)) {
    return NotFound("no tag named '" + name + "'");
  }
  if (!tag->access_key.empty() && tag->access_key != key) {
    return PermissionDenied("wrong key for tag '" + name + "'");
  }
  return *tag;
}

bool TagSpace::Has(const std::string& name) const {
  const Tag* tag = Find(name);
  return tag != nullptr && !Expired(*tag);
}

Status TagSpace::Delete(const std::string& name) {
  const auto it = std::find_if(tags_.begin(), tags_.end(),
                               [&](const Tag& t) { return t.name == name; });
  if (it == tags_.end()) return NotFound("no tag named '" + name + "'");
  tags_.erase(it);
  return Status::Ok();
}

std::vector<Tag> TagSpace::Match(const std::string& prefix) const {
  std::vector<Tag> out;
  for (const Tag& tag : tags_) {
    if (Expired(tag)) continue;
    if (tag.name.rfind(prefix, 0) == 0) {
      Tag copy = tag;
      if (!copy.access_key.empty()) copy.value.clear();  // value is private
      out.push_back(std::move(copy));
    }
  }
  return out;
}

std::size_t TagSpace::PurgeExpired() {
  return std::erase_if(tags_, [this](const Tag& tag) { return Expired(tag); });
}

}  // namespace contory::sm
