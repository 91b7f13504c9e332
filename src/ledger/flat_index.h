// Flat open-addressing hash index for the ledger's lookup tables.
//
// The index maps a 64-bit hash to a small payload (an entry position, a
// block location) and never stores keys: the caller owns the keyed data,
// passes the key's hash, and supplies a predicate that confirms a hash match
// against that data. A probe therefore touches one contiguous slot array,
// and a miss touches nothing else.
//
// Linear probing over a power-of-two table; the table grows at 3/4 load,
// erase shifts the rest of the cluster back (no tombstones), and an empty
// index allocates nothing until its first insert. Copies are deep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "proto/bytes.h"

namespace fabricsim::ledger {

/// The hash FlatIndex users derive from their string keys.
inline std::uint64_t HashKey(std::string_view key) {
  return proto::StringHash{}(key);
}

template <typename Payload>
class FlatIndex {
  static_assert(std::is_trivially_copyable_v<Payload> && sizeof(Payload) <= 8,
                "a slot holds a 64-bit hash and at most 8 payload bytes");

 public:
  [[nodiscard]] std::size_t Size() const { return size_; }

  /// The payload of the entry with `hash` that `match(payload)` confirms,
  /// or nullptr. Writing through the pointer re-points the entry.
  template <typename Match>
  [[nodiscard]] Payload* Find(std::uint64_t hash, Match&& match) {
    const std::size_t i = SlotOf(hash, match);
    return i == kNone ? nullptr : &slots_[i].payload;
  }
  template <typename Match>
  [[nodiscard]] const Payload* Find(std::uint64_t hash, Match&& match) const {
    const std::size_t i = SlotOf(hash, match);
    return i == kNone ? nullptr : &slots_[i].payload;
  }

  /// Calls fn(payload) for every entry, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.hash != kEmpty) fn(s.payload);
    }
  }

  /// Sizes an empty index for `n` entries, so inserting them allocates once.
  void Reserve(std::size_t n) {
    std::size_t capacity = 8;
    while (n * 4 > capacity * 3) capacity *= 2;
    if (size_ == 0 && capacity > slots_.size()) {
      slots_.assign(capacity, Slot{kEmpty, Payload{}});
    }
  }

  /// Adds an entry. The caller has checked that no entry confirms a match.
  void Insert(std::uint64_t hash, Payload payload) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    Place(Stored(hash), payload);
    ++size_;
  }

  /// Removes the entry with `hash` that `match(payload)` confirms; false if
  /// there is none.
  template <typename Match>
  bool Erase(std::uint64_t hash, Match&& match) {
    std::size_t hole = SlotOf(hash, match);
    if (hole == kNone) return false;
    // Backward shift: pull each later member of the cluster into the hole
    // unless its home lies cyclically after the hole (it would then sit
    // before its home and become unreachable).
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; slots_[j].hash != kEmpty;
         j = (j + 1) & mask) {
      const std::size_t home = slots_[j].hash & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].hash = kEmpty;
    --size_;
    return true;
  }

 private:
  struct Slot {
    std::uint64_t hash;  // kEmpty marks a free slot
    Payload payload;
  };
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::size_t kNone = ~std::size_t{0};

  // Hash 0 marks a free slot, so it is stored (and homed) as 1.
  static std::uint64_t Stored(std::uint64_t hash) {
    return hash == kEmpty ? 1 : hash;
  }

  template <typename Match>
  std::size_t SlotOf(std::uint64_t hash, Match& match) const {
    if (size_ == 0) return kNone;
    hash = Stored(hash);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask; slots_[i].hash != kEmpty;
         i = (i + 1) & mask) {
      if (slots_[i].hash == hash && match(slots_[i].payload)) return i;
    }
    return kNone;
  }

  void Place(std::uint64_t stored, Payload payload) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = stored & mask;
    while (slots_[i].hash != kEmpty) i = (i + 1) & mask;
    slots_[i] = Slot{stored, payload};
  }

  void Grow() {
    std::vector<Slot> old(slots_.empty() ? 8 : slots_.size() * 2,
                          Slot{kEmpty, Payload{}});
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.hash != kEmpty) Place(s.hash, s.payload);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace fabricsim::ledger
