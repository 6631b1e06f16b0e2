#include "obs/tracer.hpp"

#include <utility>

namespace contory::obs {

std::uint64_t QueryTracer::BeginQuery(const std::string& query_id,
                                      SimTime now, EnergyProbe probe) {
  const double energy = probe ? probe() : 0.0;
  Span& span = Open();
  span.query_id = query_id;
  span.name = "query";
  span.start = now;
  span.energy_start_j = energy;
  span.probe = std::move(probe);
  return span.id;
}

std::uint64_t QueryTracer::BeginStage(std::uint64_t root_id, const char* name,
                                      const char* mechanism, SimTime now) {
  const Span* root = open_.Find(root_id);
  if (root == nullptr) return 0;
  const double energy = root->probe ? root->probe() : 0.0;
  Span& span = Open();
  span.parent = root_id;
  span.query_id = root->query_id;
  span.name = name;
  if (mechanism != nullptr) span.mechanism = mechanism;
  span.start = now;
  span.energy_start_j = energy;
  return span.id;
}

std::uint64_t QueryTracer::BeginHop(std::uint64_t parent_id, std::string name,
                                    SimTime now, EnergyProbe probe) {
  const Span* parent = open_.Find(parent_id);
  if (parent == nullptr) return 0;
  const double energy = probe ? probe() : 0.0;
  Span& span = Open();
  span.parent = parent_id;
  span.query_id = parent->query_id;
  span.name = std::move(name);
  span.start = now;
  span.energy_start_j = energy;
  span.probe = std::move(probe);
  return span.id;
}

void QueryTracer::AddNote(std::uint64_t span_id, std::string note) {
  Span* span = open_.Find(span_id);
  if (span != nullptr) span->notes.push_back(std::move(note));
}

void QueryTracer::NoteOpenRoots(const std::string& note) {
  open_.ForEach([&note](Span& span) {
    if (span.parent == 0) span.notes.push_back(note);
  });
}

void QueryTracer::AddItems(std::uint64_t span_id, std::uint64_t n) {
  Span* span = open_.Find(span_id);
  if (span != nullptr) span->items += n;
}

const Span* QueryTracer::EndStage(std::uint64_t span_id, SimTime now,
                                  std::string status) {
  return Close(span_id, now, std::move(status), /*is_root=*/false);
}

const Span* QueryTracer::EndQuery(std::uint64_t root_id, SimTime now,
                                  std::string status) {
  return Close(root_id, now, std::move(status), /*is_root=*/true);
}

const Span* QueryTracer::Close(std::uint64_t span_id, SimTime now,
                               std::string status, bool is_root) {
  Span* open = open_.Find(span_id);
  if (open == nullptr) {
    // A handle the table issued is a second close of a finished span,
    // the bug double_closes() exists to surface. The no-op handle 0 and
    // garbage handles are ignored.
    if (open_.Issued(span_id)) ++double_closes_;
    return nullptr;
  }
  Span span = std::move(*open);
  open_.Erase(span_id);
  span.end = now;
  span.status = std::move(status);
  span.open = false;
  if (is_root) {
    if (span.probe) span.energy_end_j = span.probe();
    // The probe usually references a device owned by some World; drop it
    // with the root so retained spans never call into torn-down objects.
    span.probe = nullptr;
  } else if (span.probe) {
    // Hop spans meter the sending device through their own probe.
    span.energy_end_j = span.probe();
    span.probe = nullptr;
  } else {
    const Span* root = open_.Find(span.parent);
    if (root != nullptr && root->probe) {
      span.energy_end_j = root->probe();
    }
  }
  PushFinished(std::move(span));
  return &finished_.back();
}

Span& QueryTracer::Open() {
  const std::uint64_t id = open_.Emplace();
  Span& span = *open_.Find(id);
  span.id = id;
  ++started_;
  return span;
}

void QueryTracer::PushFinished(Span&& span) {
  // cap_ == 0 still keeps the most recent span so the pointer returned
  // by Close() stays valid until the next tracer call.
  const std::size_t keep = cap_ == 0 ? 1 : cap_;
  while (finished_.size() >= keep) {
    finished_.pop_front();
    ++dropped_;
  }
  finished_.push_back(std::move(span));
}

std::vector<Span> QueryTracer::FinishedFor(const std::string& query_id) const {
  std::vector<Span> out;
  for (const Span& span : finished_) {
    if (span.query_id == query_id) out.push_back(span);
  }
  return out;
}

void QueryTracer::SetCapacity(std::size_t finished_cap) {
  cap_ = finished_cap;
  while (finished_.size() > cap_) {
    finished_.pop_front();
    ++dropped_;
  }
}

void QueryTracer::Reset() {
  open_ = SlotTable<Span>();
  finished_.clear();
  started_ = 0;
  dropped_ = 0;
  double_closes_ = 0;
}

}  // namespace contory::obs
