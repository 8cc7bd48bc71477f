// Shared cube vocabulary: dictionary-encoded cell coordinates and
// dimension filters. Split out of data_cube.h so both the templated
// object-per-cell cube and the columnar CubeStore engine can share them.
#ifndef MSKETCH_CUBE_CUBE_TYPES_H_
#define MSKETCH_CUBE_CUBE_TYPES_H_

#include <cstdint>
#include <vector>

namespace msketch {

class KllSketch;
class MomentsSketch;

/// Cell coordinates: one dictionary-encoded value id per dimension.
using CubeCoords = std::vector<uint32_t>;

struct CubeCoordsHash {
  size_t operator()(const CubeCoords& c) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint32_t v : c) {
      h ^= v;
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return static_cast<size_t>(h);
  }
};

/// One cell's delta, borrowed: the coordinates, the moments delta, and
/// the KLL rank-sketch delta. CubeStore::ApplyDeltas replays a batch of
/// these, and the WAL encoder writes the publisher's batch through the
/// same view. `kll` is null for a moments-only cell; `sketch` is null
/// only for a KLL-only apply (CubeStore::ApplyKllDelta).
struct DeltaRef {
  const CubeCoords* coords = nullptr;
  const MomentsSketch* sketch = nullptr;
  const KllSketch* kll = nullptr;
};

/// Filter: one entry per dimension; kAnyValue matches every value.
constexpr int64_t kAnyValue = -1;
using CubeFilter = std::vector<int64_t>;

/// True when `value` can be a coordinate at all; constrained filter
/// values outside uint32 range match nothing (rather than silently
/// truncating onto a real coordinate).
inline bool FilterValueInRange(int64_t value) {
  return value >= 0 && value <= 0xFFFFFFFFll;
}

/// True when `coords` satisfies every constrained dimension of `filter`.
inline bool FilterMatches(const CubeCoords& coords, const CubeFilter& filter) {
  for (size_t d = 0; d < coords.size(); ++d) {
    const int64_t f = filter[d];
    if (f == kAnyValue) continue;
    if (!FilterValueInRange(f) || coords[d] != static_cast<uint32_t>(f)) {
      return false;
    }
  }
  return true;
}

}  // namespace msketch

#endif  // MSKETCH_CUBE_CUBE_TYPES_H_
