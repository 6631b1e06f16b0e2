#include "obs/tracer.hpp"

#include <utility>

namespace contory::obs {

std::uint64_t QueryTracer::BeginQuery(const std::string& query_id,
                                      SimTime now, EnergyProbe probe) {
  const double energy = probe ? probe() : 0.0;
  const std::uint64_t id = next_id_++;
  ++started_;
  Span& span = EmplaceOpen(id);
  span.id = id;
  span.query_id = query_id;
  span.name = "query";
  span.start = now;
  span.energy_start_j = energy;
  span.probe = std::move(probe);
  return id;
}

std::uint64_t QueryTracer::BeginStage(std::uint64_t root_id, const char* name,
                                      const char* mechanism, SimTime now) {
  const Span* root = FindOpenSlot(root_id);
  if (root == nullptr) return 0;
  return InsertStage(*root, root_id, name, mechanism, now,
                     root->probe ? root->probe() : 0.0);
}

std::uint64_t QueryTracer::BeginStageAt(std::uint64_t root_id,
                                        const char* name,
                                        const char* mechanism, SimTime start,
                                        double energy_start_j) {
  const Span* root = FindOpenSlot(root_id);
  if (root == nullptr) return 0;
  return InsertStage(*root, root_id, name, mechanism, start,
                     energy_start_j);
}

std::uint64_t QueryTracer::InsertStage(const Span& root_span,
                                       std::uint64_t root_id,
                                       const char* name,
                                       const char* mechanism, SimTime start,
                                       double energy_start_j) {
  const std::uint64_t id = next_id_++;
  ++started_;
  // EmplaceOpen may compact the window and relocate the root span; copy
  // what the new span needs from it first.
  std::string query_id = root_span.query_id;
  Span& span = EmplaceOpen(id);
  span.id = id;
  span.parent = root_id;
  span.query_id = std::move(query_id);
  span.name = name;
  if (mechanism != nullptr) span.mechanism = mechanism;
  span.start = start;
  span.energy_start_j = energy_start_j;
  return id;
}

std::uint64_t QueryTracer::BeginHop(std::uint64_t parent_id, std::string name,
                                    SimTime now, EnergyProbe probe) {
  const Span* parent = FindOpenSlot(parent_id);
  if (parent == nullptr) return 0;
  const double energy = probe ? probe() : 0.0;
  // EmplaceOpen may compact the window and relocate the parent span; copy
  // what the new span needs from it first.
  std::string query_id = parent->query_id;
  const std::uint64_t id = next_id_++;
  ++started_;
  Span& span = EmplaceOpen(id);
  span.id = id;
  span.parent = parent_id;
  span.query_id = std::move(query_id);
  span.name = std::move(name);
  span.start = now;
  span.energy_start_j = energy;
  span.probe = std::move(probe);
  return id;
}

void QueryTracer::AddNote(std::uint64_t span_id, std::string note) {
  Span* span = FindOpenSlot(span_id);
  if (span != nullptr) span->notes.push_back(std::move(note));
}

void QueryTracer::NoteOpenRoots(const std::string& note) {
  for (const auto& chunk : window_) {
    for (Span& span : chunk->slots) {
      if (span.id != 0 && span.parent == 0) span.notes.push_back(note);
    }
  }
  for (auto& [id, span] : old_) {
    if (span.parent == 0) span.notes.push_back(note);
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
  if (span_id == 0) return nullptr;  // the no-op handle, by contract
  Span span;
  if (!TakeOpen(span_id, span)) {
    // The id was real if it is below the allocator watermark — that is a
    // second close of a finished span, the bug double_closes() exists to
    // surface. Unknown garbage ids are ignored silently.
    if (span_id < next_id_) ++double_closes_;
    return nullptr;
  }
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

Span& QueryTracer::EmplaceOpen(std::uint64_t id) {
  std::size_t offset = static_cast<std::size_t>(id - base_);
  if (offset / kChunkSpans >= window_.size()) {
    AppendChunk();  // may compact the front, moving base_
    offset = static_cast<std::size_t>(id - base_);
  }
  Chunk& chunk = *window_[offset / kChunkSpans];
  Span& span = chunk.slots[offset % kChunkSpans];
  ++chunk.live;
  ++open_count_;
  return span;
}

void QueryTracer::AppendChunk() {
  if (!spares_.empty()) {
    window_.push_back(std::move(spares_.back()));
    spares_.pop_back();
  } else {
    window_.push_back(std::make_unique<Chunk>());
  }
  // Keep the window bounded: spans still open in the oldest chunk move
  // to the old generation, so one immortal query can't pin every chunk
  // allocated after it.
  while (window_.size() > kMaxWindowChunks) {
    Chunk& front = *window_.front();
    for (Span& span : front.slots) {
      if (span.id != 0) {
        old_.emplace(span.id, std::move(span));
        span = Span{};
        --front.live;
      }
    }
    window_.pop_front();
    base_ += kChunkSpans;
  }
}

void QueryTracer::TrimFront() {
  // Only fully-closed, fully-populated chunks are released; the tail
  // chunk (window size 1) is still being filled and keeps its slots.
  while (window_.size() > 1 && window_.front()->live == 0) {
    if (spares_.size() < kSpareChunks) {
      spares_.push_back(std::move(window_.front()));
    }
    window_.pop_front();
    base_ += kChunkSpans;
  }
}

Span* QueryTracer::FindOpenSlot(std::uint64_t span_id) {
  if (span_id >= base_) {
    const std::size_t offset = static_cast<std::size_t>(span_id - base_);
    const std::size_t chunk = offset / kChunkSpans;
    if (chunk >= window_.size()) return nullptr;
    Span& span = window_[chunk]->slots[offset % kChunkSpans];
    return span.id == span_id ? &span : nullptr;
  }
  const auto it = old_.find(span_id);
  return it != old_.end() ? &it->second : nullptr;
}

const Span* QueryTracer::FindOpenSlot(std::uint64_t span_id) const {
  return const_cast<QueryTracer*>(this)->FindOpenSlot(span_id);
}

bool QueryTracer::TakeOpen(std::uint64_t span_id, Span& out) {
  if (span_id >= base_) {
    const std::size_t offset = static_cast<std::size_t>(span_id - base_);
    const std::size_t chunk = offset / kChunkSpans;
    if (chunk >= window_.size()) return false;
    Chunk& c = *window_[chunk];
    Span& span = c.slots[offset % kChunkSpans];
    if (span.id != span_id) return false;
    out = std::move(span);
    // Reset the slot so a reused chunk never leaks stale fields (moved-
    // from SSO strings keep their content) and id 0 marks it empty.
    span = Span{};
    --c.live;
    --open_count_;
    TrimFront();
    return true;
  }
  const auto it = old_.find(span_id);
  if (it == old_.end()) return false;
  out = std::move(it->second);
  old_.erase(it);
  --open_count_;
  return true;
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
  return FindOpenSlot(span_id);
}

void QueryTracer::SetCapacity(std::size_t finished_cap) {
  cap_ = finished_cap;
  while (finished_.size() > cap_) {
    finished_.pop_front();
    ++dropped_;
  }
}

void QueryTracer::Reset() {
  window_.clear();
  spares_.clear();
  old_.clear();
  base_ = 1;
  open_count_ = 0;
  finished_.clear();
  next_id_ = 1;
  started_ = 0;
  dropped_ = 0;
  double_closes_ = 0;
}

}  // namespace contory::obs
