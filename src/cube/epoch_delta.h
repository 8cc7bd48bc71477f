// EpochDelta: one epoch's per-cell deltas, held as columns. It is the
// one type an epoch travels as, from the shard drain to every store it
// lands in:
//
//   IngestShard::Drain       appends each chunk's non-empty slots
//   EpochPublisher           orders the cells (SortByCoords) and replays
//                            the delta into each snapshot buffer
//   EncodeEpochRecord        writes the WAL / replica record from it
//   DecodeEpochRecord        reads a record back into one
//   CubeStore::ApplyDeltas   folds it into a store (publisher buffers,
//                            follower, WAL and checkpoint recovery)
//
// Layout, cells in apply order:
//
//   coords_     num_dims u32 per cell, packed as TupleIndex keeps them
//   moments_    the moment state, one MomentSlab row per cell
//               (FlatMomentColumns shape)
//   kll_of_     per cell, the index of its KLL delta or kNoKll
//   kll_        per KLL delta: its header (n, rank error bound, coin
//               state, min, max, k, level count) and its first level
//   level_bounds_  level j holds kll_items_[level_bounds_[j],
//               level_bounds_[j + 1]); a delta's levels are consecutive
//   kll_items_  every level's items, back to back
//
// So a whole epoch is a few dozen flat vectors, whatever its cell count:
// no coordinate vector, sketch or level vector is allocated per cell,
// and Clear() keeps every buffer for the next epoch.
#ifndef MSKETCH_CUBE_EPOCH_DELTA_H_
#define MSKETCH_CUBE_EPOCH_DELTA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/moments_sketch.h"
#include "cube/cube_types.h"
#include "cube/rollup_index.h"
#include "sketches/kll_sketch.h"

namespace msketch {

class EpochDelta {
 public:
  /// An empty delta of cells with `num_dims` coordinates and moments of
  /// order `k`. A decoded record with no cells has no order; k = 0 marks
  /// that, and such a delta takes no cells.
  explicit EpochDelta(size_t num_dims = 0, int k = 0);

  size_t num_dims() const { return num_dims_; }
  int k() const { return k_; }
  size_t size() const { return kll_of_.size(); }
  bool empty() const { return kll_of_.empty(); }

  /// Drops every cell, keeping the buffers.
  void Clear();

  /// Appends one cell: `coords` (num_dims() values), a bit copy of row
  /// `row` of `src` as the moments delta, and `kll` (null for none) as
  /// its KLL delta. `src.k` must equal k().
  void Append(const uint32_t* coords, const FlatMomentColumns& src,
              size_t row, const KllView* kll);
  /// Append of a sketch (row 0 of its SketchColumns).
  void Append(const uint32_t* coords, const MomentsSketch& sketch,
              const KllView* kll);

  /// Decoder side: appends a cell whose serialized moments delta (after
  /// its order, which the caller read and checked against k()) and,
  /// when `has_kll`, serialized KLL delta are read from `in`, through
  /// the readers of those formats (ReadMomentState, ReadKll). On
  /// failure the delta is left partial; the caller drops it.
  Status AppendSerialized(const uint32_t* coords, bool has_kll,
                          BytesReader* in);

  /// Cell `i`'s coordinates (num_dims() values).
  const uint32_t* Coords(size_t i) const {
    return coords_.data() + i * num_dims_;
  }
  /// Every cell's moments delta; row i is cell i.
  FlatMomentColumns Moments() const { return moments_.Columns(); }
  bool HasKll(size_t i) const { return kll_of_[i] != kNoKll; }
  /// Cell `i`'s KLL delta header, or null when it has none.
  const KllHeader* KllHeaderOf(size_t i) const {
    return HasKll(i) ? &kll_[kll_of_[i]].header : nullptr;
  }
  /// Cell `i`'s KLL delta; HasKll(i) must hold.
  KllView Kll(size_t i) const;

  /// Cell `i`'s moments delta and coordinates as objects (tests and
  /// diagnostics; the epoch path reads the columns).
  MomentsSketch CellSketch(size_t i) const;
  CubeCoords CellCoords(size_t i) const {
    return CubeCoords(Coords(i), Coords(i) + num_dims_);
  }

  /// Reorders the cells by ascending coordinates, stably: a cell's
  /// deltas keep their relative order, so they apply in the order they
  /// were appended (shard order, for a drain). One permutation is
  /// computed over the packed keys and applied to every column once,
  /// through `scratch` (whose buffers are swapped in and reused).
  void SortByCoords(EpochDelta* scratch);

 private:
  static constexpr uint32_t kNoKll = 0xFFFFFFFFu;

  struct KllEntry {
    KllHeader header;
    uint32_t first_level = 0;
  };

  // Appends cell `i` of `src` (coordinates, moments row, KLL delta);
  // `src_moments` is src.Moments().
  void AppendCellOf(const EpochDelta& src,
                    const FlatMomentColumns& src_moments, size_t i);
  // Adds the KLL delta of `view` for the cell being appended.
  void AppendKll(const KllView& view);

  size_t num_dims_;
  int k_;
  std::vector<uint32_t> coords_;
  MomentSlab moments_;
  std::vector<uint32_t> kll_of_;
  std::vector<KllEntry> kll_;
  std::vector<uint32_t> level_bounds_;  // starts {0}
  std::vector<double> kll_items_;
  std::vector<uint32_t> perm_;  // SortByCoords scratch
};

}  // namespace msketch

#endif  // MSKETCH_CUBE_EPOCH_DELTA_H_
