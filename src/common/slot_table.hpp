// SlotTable: values named by generation-tagged handles.
//
// Every handle store in the middleware — the QueryTable's records, the
// tracer's open spans, a Facade's clusters, the Simulation's pending
// events, BTReference's listeners and its pending discovery callbacks —
// is one of these, and this is the only code that knows the handle
// layout:
//   - a handle is a std::uint64_t: the slot in the low 32 bits, the
//     slot's generation in the high 32 bits, from 1, so 0 is never
//     issued and can mean "none";
//   - Erase frees the slot LIFO, and the slot's next value gets the next
//     generation, so a handle held past its Erase misses from then on
//     (a bounds check plus a generation compare), and no handle repeats;
//   - a slot whose generation is exhausted is retired, never reused.
// Slots live in fixed-size chunks that are never reallocated, so a value
// never moves while it lives: a pointer from Find stays valid until that
// handle's Erase, however the table grows. A lookup is two array
// indexings. Memory follows the peak of live values.
//
// Threading contract: none (the simulation is single-threaded).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace contory {

template <typename T>
class SlotTable {
 public:
  using Handle = std::uint64_t;

  SlotTable() = default;
  SlotTable(const SlotTable&) = delete;
  SlotTable& operator=(const SlotTable&) = delete;
  /// Takes `other`'s values and leaves it empty (how a table is reset).
  SlotTable& operator=(SlotTable&& other) noexcept {
    chunks_ = std::exchange(other.chunks_, {});
    free_ = std::exchange(other.free_, {});
    slot_count_ = std::exchange(other.slot_count_, 0);
    live_ = std::exchange(other.live_, 0);
    return *this;
  }

  /// The slot a handle names (tests and diagnostics; lookups go through
  /// Find).
  [[nodiscard]] static constexpr std::size_t SlotOf(Handle h) noexcept {
    return static_cast<std::size_t>(h & kSlotMask);
  }

  /// Constructs a value in the newest freed slot (or a new one) and
  /// returns its handle.
  template <typename... Args>
  Handle Emplace(Args&&... args) {
    const bool fresh = free_.empty();
    const std::uint32_t index =
        fresh ? static_cast<std::uint32_t>(slot_count_) : free_.back();
    if (!fresh) {
      free_.pop_back();
    } else {
      if (slot_count_ == chunks_.size() * kChunkSlots) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
      }
      ++slot_count_;
    }
    Slot& slot = At(index);
    try {
      ::new (static_cast<void*>(&slot.value)) T(std::forward<Args>(args)...);
    } catch (...) {
      free_.push_back(index);
      throw;
    }
    slot.live = true;
    ++live_;
    return (Handle{++slot.generation} << 32) | index;
  }
  Handle Insert(T value) { return Emplace(std::move(value)); }

  /// The live value `h` names, or null for 0, a stale or a garbage
  /// handle.
  [[nodiscard]] T* Find(Handle h) noexcept {
    const std::size_t index = SlotOf(h);
    if (index >= slot_count_) return nullptr;
    Slot& slot = At(index);
    return slot.live && slot.generation == (h >> 32) ? &slot.value : nullptr;
  }
  [[nodiscard]] const T* Find(Handle h) const noexcept {
    return const_cast<SlotTable*>(this)->Find(h);
  }

  /// Destroys the value `h` names and frees its slot; false (a no-op)
  /// when `h` misses. `h` misses from the start of the value's
  /// destructor, which may itself use the table.
  bool Erase(Handle h) {
    if (Find(h) == nullptr) return false;
    Free(SlotOf(h));
    return true;
  }

  /// Erases every live value, in slot order; no handle issued so far
  /// finds anything afterwards.
  void Clear() {
    for (std::size_t i = 0; i < slot_count_; ++i) {
      if (At(i).live) Free(i);
    }
  }

  /// True when `h`'s slot once gave it out, live or erased since.
  [[nodiscard]] bool Issued(Handle h) const noexcept {
    const std::size_t index = SlotOf(h);
    const Handle generation = h >> 32;
    return generation != 0 && index < slot_count_ &&
           generation <= At(index).generation;
  }

  /// Live values.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  /// Slots ever used: the peak of live values.
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slot_count_;
  }

  /// Calls fn(value) for each live value, in slot order. `fn` may erase
  /// entries; one it emplaces may or may not be visited.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (std::size_t i = 0; i < slot_count_; ++i) {
      if (Slot& slot = At(i); slot.live) fn(slot.value);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < slot_count_; ++i) {
      if (const Slot& slot = At(i); slot.live) fn(slot.value);
    }
  }

 private:
  static constexpr Handle kSlotMask = 0xffffffffu;
  static constexpr std::uint32_t kLastGeneration = 0xffffffffu;

  struct Slot {
    Slot() {}  // NOLINT: the union member stays unconstructed
    ~Slot() {
      if (live) value.~T();
    }
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

    // The header leads: Find reads it, and then usually the value's
    // first fields, in the same cache line.
    /// Of the last handle this slot issued; 0 before the first.
    std::uint32_t generation = 0;
    bool live = false;
    union {
      T value;
    };
  };

  /// About 8 KB of slots per chunk, a power of two.
  static constexpr std::size_t kChunkSlots =
      std::bit_floor(std::max<std::size_t>(1, 8192 / sizeof(Slot)));
  static constexpr int kChunkShift = std::countr_zero(kChunkSlots);

  [[nodiscard]] Slot& At(std::size_t index) const noexcept {
    return chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
  }

  /// Destroys the live value in slot `index` and frees the slot.
  void Free(std::size_t index) {
    Slot& slot = At(index);
    slot.live = false;
    --live_;
    slot.value.~T();
    if (slot.generation != kLastGeneration) {
      free_.push_back(static_cast<std::uint32_t>(index));
    }
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  /// Slots ever used; they fill the chunks in index order.
  std::size_t slot_count_ = 0;
  /// Free slots, newest last.
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

}  // namespace contory
