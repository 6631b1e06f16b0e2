#include "obs/tracer.hpp"

#include <utility>

namespace contory::obs {
namespace {

/// A handle is (generation << 32) | slot, with generations from 1.
constexpr std::uint64_t kNextGeneration = std::uint64_t{1} << 32;
std::size_t SlotOf(std::uint64_t handle) { return handle & 0xffffffffu; }

}  // namespace

std::uint64_t QueryTracer::BeginQuery(const std::string& query_id,
                                      SimTime now, EnergyProbe probe) {
  const double energy = probe ? probe() : 0.0;
  Span& span = EmplaceOpen();
  span.query_id = query_id;
  span.name = "query";
  span.start = now;
  span.energy_start_j = energy;
  span.probe = std::move(probe);
  return span.id;
}

std::uint64_t QueryTracer::BeginStage(std::uint64_t root_id, const char* name,
                                      const char* mechanism, SimTime now) {
  const Span* root = FindOpenSlot(root_id);
  if (root == nullptr) return 0;
  const double energy = root->probe ? root->probe() : 0.0;
  // EmplaceOpen may grow the table and move the root span; copy what the
  // new span needs from it first.
  std::string query_id = root->query_id;
  Span& span = EmplaceOpen();
  span.parent = root_id;
  span.query_id = std::move(query_id);
  span.name = name;
  if (mechanism != nullptr) span.mechanism = mechanism;
  span.start = now;
  span.energy_start_j = energy;
  return span.id;
}

std::uint64_t QueryTracer::BeginHop(std::uint64_t parent_id, std::string name,
                                    SimTime now, EnergyProbe probe) {
  const Span* parent = FindOpenSlot(parent_id);
  if (parent == nullptr) return 0;
  const double energy = probe ? probe() : 0.0;
  // EmplaceOpen may grow the table and move the parent span; copy what
  // the new span needs from it first.
  std::string query_id = parent->query_id;
  Span& span = EmplaceOpen();
  span.parent = parent_id;
  span.query_id = std::move(query_id);
  span.name = std::move(name);
  span.start = now;
  span.energy_start_j = energy;
  span.probe = std::move(probe);
  return span.id;
}

void QueryTracer::AddNote(std::uint64_t span_id, std::string note) {
  Span* span = FindOpenSlot(span_id);
  if (span != nullptr) span->notes.push_back(std::move(note));
}

void QueryTracer::NoteOpenRoots(const std::string& note) {
  for (Span& span : slots_) {
    if (span.open && span.parent == 0) span.notes.push_back(note);
  }
}

void QueryTracer::AddItems(std::uint64_t span_id, std::uint64_t n) {
  Span* span = FindOpenSlot(span_id);
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
  Span* slot = FindOpenSlot(span_id);
  if (slot == nullptr) {
    // A real handle (its slot exists and has issued this generation) is
    // a second close of a finished span, the bug double_closes() exists
    // to surface. The no-op handle 0 and garbage handles are ignored.
    const std::uint64_t generation = span_id >> 32;
    if (generation != 0 && SlotOf(span_id) < slots_.size() &&
        generation <= (slots_[SlotOf(span_id)].id >> 32)) {
      ++double_closes_;
    }
    return nullptr;
  }
  Span span = std::move(*slot);
  // Reset the slot so its next span never inherits stale fields (moved-
  // from SSO strings keep their content); it keeps only its last handle.
  *slot = Span{};
  slot->id = span_id;
  slot->open = false;
  // A slot whose generation is exhausted is retired, so no handle ever
  // repeats.
  if ((span_id >> 32) != 0xffffffffu) free_.push_back(span_id);
  --open_count_;
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
    const Span* root = FindOpenSlot(span.parent);
    if (root != nullptr && root->probe) {
      span.energy_end_j = root->probe();
    }
  }
  PushFinished(std::move(span));
  return &finished_.back();
}

Span& QueryTracer::EmplaceOpen() {
  // The newest freed slot under its next generation, or a new slot.
  std::uint64_t id;
  if (free_.empty()) {
    id = kNextGeneration | slots_.size();
    slots_.emplace_back();
  } else {
    id = free_.back() + kNextGeneration;
    free_.pop_back();
  }
  Span& span = slots_[SlotOf(id)];
  span.id = id;
  span.open = true;
  ++started_;
  ++open_count_;
  return span;
}

Span* QueryTracer::FindOpenSlot(std::uint64_t span_id) {
  if (SlotOf(span_id) >= slots_.size()) return nullptr;
  Span& span = slots_[SlotOf(span_id)];
  return span.open && span.id == span_id ? &span : nullptr;
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

const Span* QueryTracer::FindOpen(std::uint64_t span_id) const {
  return const_cast<QueryTracer*>(this)->FindOpenSlot(span_id);
}

void QueryTracer::SetCapacity(std::size_t finished_cap) {
  cap_ = finished_cap;
  while (finished_.size() > cap_) {
    finished_.pop_front();
    ++dropped_;
  }
}

void QueryTracer::Reset() {
  slots_ = std::vector<Span>();
  free_ = std::vector<std::uint64_t>();
  open_count_ = 0;
  finished_.clear();
  started_ = 0;
  dropped_ = 0;
  double_closes_ = 0;
}

}  // namespace contory::obs
