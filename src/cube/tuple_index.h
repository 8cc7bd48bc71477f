// Dense ids for fixed-width tuples of u32 values: a flat open-addressing
// index, used as CubeStore's cell directory (one tuple per cell, keyed
// by its coordinates) and as the per-call group index of
// CubeStore::PartitionGroups (keyed by the group dimensions' values).
//
// Layout. The tuples are packed `width` u32s each, in id order, and ids
// are handed out 0, 1, 2, ... in insertion order. A power-of-two slot
// array holds id + 1 per occupied slot (0 marks an empty one) at load at
// most 1/2; when an insert would pass that, the slots double and are
// rebuilt from the packed tuples. A lookup hashes the probe tuple and
// compares it against the packed copy by linear probing, so resolving a
// tuple costs no node, key vector or allocation per entry, and copies
// and moves are plain vector copies and moves.
#ifndef MSKETCH_CUBE_TUPLE_INDEX_H_
#define MSKETCH_CUBE_TUPLE_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace msketch {

class TupleIndex {
 public:
  /// An empty index of `width`-value tuples.
  explicit TupleIndex(size_t width) : width_(width) {}

  /// Tuples held; ids are [0, size()).
  size_t size() const { return size_; }

  /// The `width` values of tuple `id`.
  const uint32_t* Key(uint32_t id) const {
    return keys_.data() + static_cast<size_t>(id) * width_;
  }

  /// The id of the `width`-value tuple at `key`, adding it under the
  /// next id when absent; `*created` says which.
  uint32_t FindOrInsert(const uint32_t* key, bool* created) {
    if (2 * (size_ + 1) > slots_.size()) {
      Rehash(std::max<size_t>(kMinSlots, 2 * slots_.size()));
    }
    const size_t mask = slots_.size() - 1;
    for (size_t s = Hash(key) & mask;; s = (s + 1) & mask) {
      const uint32_t slot = slots_[s];
      if (slot == 0) {
        slots_[s] = static_cast<uint32_t>(size_ + 1);
        keys_.insert(keys_.end(), key, key + width_);
        *created = true;
        return static_cast<uint32_t>(size_++);
      }
      if (std::equal(key, key + width_, Key(slot - 1))) {
        *created = false;
        return slot - 1;
      }
    }
  }

 private:
  static constexpr size_t kMinSlots = 16;

  uint64_t Hash(const uint32_t* key) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t j = 0; j < width_; ++j) {
      h = (h ^ key[j]) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    return h;
  }

  // Re-slots every tuple into `capacity` (a power of two) slots.
  void Rehash(size_t capacity) {
    slots_.assign(capacity, 0);
    const size_t mask = capacity - 1;
    for (size_t id = 0; id < size_; ++id) {
      size_t s = Hash(Key(static_cast<uint32_t>(id))) & mask;
      while (slots_[s] != 0) s = (s + 1) & mask;
      slots_[s] = static_cast<uint32_t>(id + 1);
    }
  }

  size_t width_;
  size_t size_ = 0;
  std::vector<uint32_t> keys_;   // width_ values per tuple, in id order
  std::vector<uint32_t> slots_;  // id + 1, or 0 for an empty slot
};

}  // namespace msketch

#endif  // MSKETCH_CUBE_TUPLE_INDEX_H_
