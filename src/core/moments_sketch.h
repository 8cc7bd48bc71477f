// The moments sketch (Section 4 of the paper): a fixed-size mergeable
// quantile summary storing min, max, count, the power sums sum(x^i), and
// the log power sums sum(log^i x) for i = 1..k.
//
// Merging is pointwise addition plus two comparisons (Algorithm 1) — the
// property the whole paper is built on. The sketch is also *subtractable*
// (power sums are linear), which Section 7.2.2 exploits for turnstile
// sliding windows; subtraction cannot recover min/max, so the caller
// re-establishes the range via SetRange.
#ifndef MSKETCH_CORE_MOMENTS_SKETCH_H_
#define MSKETCH_CORE_MOMENTS_SKETCH_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace msketch {

/// Struct-of-arrays view over the moment state of many sketches at once
/// (the columnar cube layout in cube/cube_store.h). Column `power_sums[i]`
/// holds sum(x^(i+1)) for every cell contiguously, so a merge over a cell
/// set is k independent unit-stride (or gather) reductions instead of a
/// pointer chase per cell. The view does not own the columns; it is valid
/// only as long as the backing storage is unchanged.
struct FlatMomentColumns {
  int k = 0;
  size_t num_cells = 0;
  const double* const* power_sums = nullptr;  // k column pointers
  const double* const* log_sums = nullptr;    // k column pointers
  const uint64_t* counts = nullptr;
  const uint64_t* log_counts = nullptr;
  const double* mins = nullptr;
  const double* maxs = nullptr;
};

/// Mutable counterpart of FlatMomentColumns: the view the rollup index
/// writes its span nodes through (MomentSlab::MutableColumns). Same
/// layout and lifetime rules.
struct MutableFlatMomentColumns {
  int k = 0;
  size_t num_cells = 0;
  double* const* power_sums = nullptr;  // k column pointers
  double* const* log_sums = nullptr;    // k column pointers
  uint64_t* counts = nullptr;
  uint64_t* log_counts = nullptr;
  double* mins = nullptr;
  double* maxs = nullptr;
};

class MomentsSketch {
 public:
  /// `k`: highest moment power tracked (the sketch order). The paper's
  /// default configuration is k = 10, tracking both standard and log
  /// moments (2k + 3 doubles ~ 184 bytes).
  explicit MomentsSketch(int k = 10);

  /// Adds one element (Algorithm 1, accumulate).
  void Accumulate(double x);

  /// Adds `n` elements. Semantically — and bit-for-bit — equal to calling
  /// Accumulate on each element in order, but processes four elements per
  /// step with independent power/log-power multiply chains, breaking the
  /// serial p *= x dependence that bounds the scalar path. Each column's
  /// additions still happen in element order, which is what keeps the
  /// result bit-identical.
  void AccumulateBatch(const double* xs, size_t n);

  /// Merges another sketch of the same order (Algorithm 1, merge).
  Status Merge(const MomentsSketch& other);

  /// Removes a previously merged sketch's contributions (turnstile
  /// semantics). min/max are left untouched and are stale afterwards;
  /// callers must follow up with SetRange (see window/). Subtracting to
  /// an empty sketch resets the moment state to exact zeros, and
  /// even-power sums are clamped at zero (cancellation guard).
  Status Subtract(const MomentsSketch& other);

  /// Batched merge against columnar storage: folds in the cells named by
  /// `cell_ids` (indices into the columns). The kernel is a tight loop
  /// with k independent accumulator chains, performing each column's
  /// additions in id order — bit-identical to merging the same cells'
  /// MomentsSketch objects one by one in the same order.
  Status MergeFlat(const FlatMomentColumns& cols, const uint32_t* cell_ids,
                   size_t n);

  /// Contiguous-range variant of MergeFlat: folds in cells
  /// [begin, end). The inner loops are unit-stride and vectorizable.
  Status MergeFlatRange(const FlatMomentColumns& cols, size_t begin,
                        size_t end);

  /// SIMD merge over the contiguous cell range [begin, end): column-major
  /// (one full pass per column) with the 8-lane accumulation of
  /// core/simd_reduce.h, so each column is one vectorized unit-stride
  /// stream instead of a strided store-reload per cell. Results are
  /// bit-identical across the AVX2/SSE2/scalar fallback chain, but the
  /// lane re-association means they differ from MergeFlatRange in the
  /// last ulps (exactly equal when the column sums are exactly
  /// representable, e.g. dyadic data). Integer counts and min/max are
  /// always exact.
  Status MergeFlatRangeFast(const FlatMomentColumns& cols, size_t begin,
                            size_t end);

  /// SIMD gather-merge over an id list: same column-major 8-lane
  /// structure as MergeFlatRangeFast applied to cols[*][cell_ids[j]].
  /// Deterministic across builds; within-tolerance of MergeFlat.
  Status MergeFlatFast(const FlatMomentColumns& cols, const uint32_t* cell_ids,
                       size_t n);

  /// Batched turnstile subtraction against columnar storage. Like
  /// Subtract, leaves min/max stale; follow up with SetRange. When the
  /// subtraction empties the sketch, the moment state is reset to exact
  /// zeros, and even-power sums are clamped at zero otherwise (they are
  /// sums of non-negative terms, so a negative value is pure cancellation
  /// noise) — see ApplyCancellationGuards.
  Status SubtractFlat(const FlatMomentColumns& cols, const uint32_t* cell_ids,
                      size_t n);

  /// SIMD gather variant of SubtractFlat (column-major 8-lane sums of the
  /// subtrahend, one subtract per column). Same cancellation guards.
  Status SubtractFlatFast(const FlatMomentColumns& cols,
                          const uint32_t* cell_ids, size_t n);

  /// Overrides the tracked range. Used after Subtract, and by tests.
  void SetRange(double min, double max);

  int k() const { return k_; }
  uint64_t count() const { return count_; }
  /// Count of accumulated elements that were > 0 (log moments cover
  /// exactly these; estimation uses log moments only when all data is
  /// positive, i.e. log_count == count and min > 0).
  uint64_t log_count() const { return log_count_; }
  double min() const { return min_; }
  double max() const { return max_; }

  /// Unscaled power sums: power_sums()[i] = sum over data of x^(i+1).
  const std::vector<double>& power_sums() const { return power_sums_; }
  /// Unscaled log power sums over positive elements: log_sums()[i] =
  /// sum of log(x)^(i+1).
  const std::vector<double>& log_sums() const { return log_sums_; }

  /// Standardized moments mu_i = (1/n) sum x^i for i = 0..k (mu_0 = 1).
  std::vector<double> StandardMoments() const;
  /// nu_i = (1/log_count) sum log(x)^i for i = 0..k.
  std::vector<double> LogMoments() const;

  /// True when every accumulated element was strictly positive, so the
  /// log moments describe the full dataset.
  bool LogMomentsUsable() const {
    return count_ > 0 && log_count_ == count_ && min_ > 0.0;
  }

  /// Serialized footprint: (2k + 3) doubles + count + header.
  size_t SizeBytes() const;

  MomentsSketch CloneEmpty() const { return MomentsSketch(k_); }

  void Serialize(BytesWriter* out) const;
  static Result<MomentsSketch> Deserialize(BytesReader* in);

  /// Equality to within exact floating point (used by turnstile and
  /// serialization tests).
  bool IdenticalTo(const MomentsSketch& other) const;

 private:
  /// Post-subtraction numeric hygiene: resets to exact zeros when the
  /// sketch emptied (count == 0 admits only the all-zero moment state),
  /// and clamps even-power sums — sums of x^(2i) and log^(2i), both
  /// non-negative by construction — at 0.0, so catastrophic cancellation
  /// from subtracting nearly everything cannot leave an infeasible
  /// moment vector for the solver.
  void ApplyCancellationGuards();

  int k_;
  uint64_t count_ = 0;
  uint64_t log_count_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::vector<double> power_sums_;  // [sum x, sum x^2, ..., sum x^k]
  std::vector<double> log_sums_;    // [sum log x, ..., sum log^k x]
};

}  // namespace msketch

#endif  // MSKETCH_CORE_MOMENTS_SKETCH_H_
