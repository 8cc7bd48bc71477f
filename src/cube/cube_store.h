// Columnar cube engine: struct-of-arrays storage for per-cell moments
// sketches plus per-dimension inverted indexes and a rollup index of
// pre-merged span partials.
//
// Layout. Instead of one heap-allocated MomentsSketch object per cell,
// the store keeps one contiguous double column per moment order:
//
//   power_cols_[i][c] = sum over cell c of x^(i+1)      (k columns)
//   log_cols_[i][c]   = sum over cell c of log(x)^(i+1) (k columns)
//   counts_[c], log_counts_[c], mins_[c], maxs_[c], sums_[c]
//
// A merge over a cell set is then k independent reductions over packed
// doubles (MomentsSketch::MergeFlat) — the memory system streams
// columns instead of chasing a pointer per cell, which is what makes
// the paper's merge-dominated query path run at hardware speed.
//
// Query planning. QueryWhere picks one of four plans from the postings
// sizes (the selectivity counters the indexes already maintain):
//
//   kRollup     single constrained dimension with a fresh RollupIndex —
//               fold the value's pre-merged span nodes plus the residual
//               tail cells (~2^span_log2 x fewer adds); the unfiltered
//               query returns the pre-merged grand total outright
//   kComplement matching set nearly the whole cube and the rollup fresh
//               — take the pre-merged total and subtract the few
//               non-matching cells
//   kScan       many constrained dimensions whose combined postings
//               volume dwarfs one coordinate pass — scanning beats
//               walking a stack of near-full postings lists
//   kIntersect  everything else — intersect the constrained postings
//               (galloping cursors) and gather-merge the matching cells
//
// All plans agree with the exact MergeWhere to within floating point
// re-association (counts and min/max are always exact); MergeWhere
// remains the bit-exact reference path. See src/cube/README.md for the
// cost model and the plan-selection thresholds.
//
// The store is moments-sketch-specific by design: the SoA layout relies
// on the sketch being a fixed set of linear accumulators. Other summary
// types keep using the object-per-cell DataCube<Summary>.
#ifndef MSKETCH_CUBE_CUBE_STORE_H_
#define MSKETCH_CUBE_CUBE_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/moments_sketch.h"
#include "cube/cube_types.h"
#include "cube/dim_index.h"
#include "cube/rollup_index.h"
#include "cube/tuple_index.h"
#include "sketches/kll_sketch.h"

namespace msketch {

/// Which strategy QueryWhere executed for a query.
enum class QueryPlan : uint8_t {
  kScan = 0,
  kIntersect = 1,
  kRollup = 2,
  kComplement = 3,
};
const char* QueryPlanName(QueryPlan plan);

/// One group's exact count, min and max, folded over its cells in
/// ascending cell id from a fresh sketch's state, so each equals the
/// group sketch's count(), min() and max() bit for bit; and the number
/// of cells folded. One struct per group, so folding a cell touches one
/// cache line.
struct GroupRange {
  uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  uint32_t num_cells = 0;
};

/// A GROUP BY's partition of a store's cells (CubeStore::PartitionGroups):
/// a dense group id per cell, and each group's key and range. Valid for
/// the store state it was built from; any mutation of the store
/// invalidates it.
struct GroupPartition {
  explicit GroupPartition(size_t width) : keys(width) {}

  /// Group id -> the group dimensions' values (keys.Key(g)); ids are
  /// dense, in first-seen (ascending first cell id) order.
  TupleIndex keys;
  /// Cell id -> group id.
  std::vector<uint32_t> group_of;
  /// Group id -> range.
  std::vector<GroupRange> ranges;

  size_t num_groups() const { return ranges.size(); }
};

/// Cumulative per-plan query counts (relaxed atomics: const queries may
/// run concurrently; the counters are diagnostics, not synchronization).
struct PlanCounters {
  std::atomic<uint64_t> scan{0};
  std::atomic<uint64_t> intersect{0};
  std::atomic<uint64_t> rollup{0};
  std::atomic<uint64_t> complement{0};

  PlanCounters() = default;
  PlanCounters(const PlanCounters& other) { *this = other; }
  PlanCounters& operator=(const PlanCounters& other) {
    scan.store(other.scan.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    intersect.store(other.intersect.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    rollup.store(other.rollup.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    complement.store(other.complement.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    return *this;
  }
  uint64_t total() const {
    return scan.load(std::memory_order_relaxed) +
           intersect.load(std::memory_order_relaxed) +
           rollup.load(std::memory_order_relaxed) +
           complement.load(std::memory_order_relaxed);
  }
};

class CubeStore {
 public:
  CubeStore(size_t num_dims, int k);

  // Copies must re-point the cached column bases at their own buffers
  // (the defaults would leave them aimed at the source's columns).
  // Moves keep the heap buffers, so the cached pointers stay valid.
  CubeStore(const CubeStore& other);
  CubeStore& operator=(const CubeStore& other);
  CubeStore(CubeStore&&) = default;
  CubeStore& operator=(CubeStore&&) = default;

  /// Adds one row, creating the cell (and its index postings) on first
  /// touch. Returns the cell id. Every ingest bumps the column version,
  /// so a built rollup reads as stale until RefreshRollup().
  uint32_t Ingest(const CubeCoords& coords, double value);

  /// Folds a batch of per-cell deltas into the store — the one apply
  /// path of the epoch publisher, the follower and WAL recovery. Each
  /// cell carries a moments delta (`sketch`, may be null) and an
  /// optional KLL delta (`kll`, ignored while the KLL column is
  /// disabled). The batch is validated first (coordinate arity, moments
  /// order k, KLL k), so a bad cell rejects it without applying any
  /// cell. Then each cell with a non-empty delta is resolved, or
  /// created with its postings, in batch order by one directory probe;
  /// an existing cell is marked dirty for the next RefreshRollup. The
  /// moment sums then land one column at a time, in batch order within
  /// each column: each slot gets one add per delta, counts add exactly,
  /// min/max widen to cover the delta, and the native-sum column grows
  /// by the delta's first power sum (the addition sequence Ingest
  /// applies per row). Last, the KLL deltas apply in batch order: an
  /// empty cell adopts its delta wholesale (bit-exact for checkpoint
  /// restore), otherwise the delta merges in. Same-cell deltas apply in
  /// batch order, so the result is bit-identical to applying the cells
  /// one at a time. Empty deltas are no-ops.
  Status ApplyDeltas(const DeltaRef* cells, size_t n);

  /// One-cell ApplyDeltas of a moments delta.
  Status ApplyDelta(const CubeCoords& coords, const MomentsSketch& delta);

  size_t num_cells() const { return coords_.size(); }
  uint64_t num_rows() const { return num_rows_; }
  size_t num_dims() const { return num_dims_; }
  int k() const { return k_; }

  const CubeCoords& CoordsOf(uint32_t cell_id) const {
    return coords_[cell_id];
  }
  double CellSum(uint32_t cell_id) const { return sums_[cell_id]; }
  uint64_t CellCount(uint32_t cell_id) const { return counts_[cell_id]; }

  /// SoA view over all cells, consumable by MomentsSketch::MergeFlat and
  /// the parallel/window layers. Invalidated by the next Ingest. Pure
  /// read: const query methods are safe to call concurrently as long as
  /// no thread is ingesting.
  FlatMomentColumns Columns() const;

  /// Per-query work counters. `merges` counts the matching cells folded
  /// into the result (logically — the rollup and complement plans fold
  /// them without touching each one); `visited` counts the units of
  /// merge work the plan actually performed (cells scanned or gathered,
  /// rollup nodes, subtracted cells), so visited << merges is the rollup
  /// win and visited > merges marks a scan.
  struct QueryStats {
    uint64_t merges = 0;
    uint64_t visited = 0;
    QueryPlan plan = QueryPlan::kIntersect;
    uint64_t span_merges = 0;      // rollup nodes folded
    uint64_t residual_merges = 0;  // cells merged beyond full spans
    uint64_t subtract_merges = 0;  // complement-plan subtracted cells
    uint64_t kll_merges = 0;       // KLL cell sketches folded (router path)
  };

  /// Planned filtered merge: picks scan / intersect / rollup /
  /// complement from the postings sizes (see file comment). Counts and
  /// min/max are exact under every plan; moment sums agree with
  /// MergeWhere to within re-association (bit-equal when the sums are
  /// exactly representable).
  MomentsSketch QueryWhere(const CubeFilter& filter,
                           QueryStats* stats = nullptr) const;

  /// Filtered merge through the inverted indexes: intersects the
  /// constrained dimensions' postings and merges only matching cells.
  /// Bit-exact reference path (visits cells in ascending id order).
  MomentsSketch MergeWhere(const CubeFilter& filter,
                           QueryStats* stats = nullptr) const;

  /// Filtered merge by scanning every cell's coordinates (the
  /// pre-refactor plan; kept for benchmarking and validation — results
  /// are bit-identical to MergeWhere because both visit matching cells
  /// in ascending cell-id order).
  MomentsSketch MergeWhereScan(const CubeFilter& filter,
                               QueryStats* stats = nullptr) const;

  MomentsSketch MergeAll() const;

  /// Merges the given cells (ids must be valid) in order.
  MomentsSketch MergeCells(const uint32_t* cell_ids, size_t n) const;

  /// Merges the contiguous cell-id range [begin, end) — the unit-stride
  /// kernel that ParallelMergeRange shards across threads.
  MomentsSketch MergeRange(size_t begin, size_t end) const;

  /// Sorted cell ids matching `filter`, via the inverted indexes
  /// (all cells when every dimension is unconstrained).
  std::vector<uint32_t> MatchingCells(const CubeFilter& filter) const;

  /// Native sum over matching cells (Figure 11 baseline), indexed.
  double SumWhere(const CubeFilter& filter) const;

  /// Groups cells by the given dimensions (in the given order; a
  /// dimension may repeat, and an empty list puts every cell in one
  /// group) and hands each group's key and merged sketch to `fn`. Groups
  /// come in first-seen order: ascending by their first cell id. Each
  /// group's sketch sums its cells in ascending cell id, so it is
  /// bit-identical to MergeFlat-ing the group's cells one at a time, in
  /// id order, into a fresh sketch. PartitionGroups, then ReduceGroups
  /// over every group. A dimension >= num_dims() aborts.
  void ForEachGroup(
      const std::vector<size_t>& group_dims,
      const std::function<void(const CubeCoords&, const MomentsSketch&)>& fn)
      const;

  /// The partition step of a GROUP BY: one tuple-index probe per cell
  /// gives it a dense group id, and the same pass folds the cell's
  /// count, min and max into its group's (see GroupPartition). No moment
  /// sum is read. A dimension >= num_dims() aborts.
  GroupPartition PartitionGroups(const std::vector<size_t>& group_dims) const;

  /// The reduce step: builds the merged sketch of each group listed in
  /// `groups` (ids of `partition`, strictly ascending) and hands it to
  /// `fn` with its index in `groups`. Each moment column reduces into
  /// one accumulator per listed group in ascending cell id, so every
  /// sketch is bit-identical to ForEachGroup's; counts, mins and maxs
  /// are copied from the partition. The kernel follows the listed
  /// groups' share of the cells: at least half, and every cell is
  /// visited, the cells of unlisted groups adding into one discard row;
  /// less, and only the listed groups' cells are gathered. `partition`
  /// must come from this store in its current state.
  void ReduceGroups(
      const GroupPartition& partition, const std::vector<uint32_t>& groups,
      const std::function<void(size_t, const MomentsSketch&)>& fn) const;

  /// Reconstructs one cell's sketch from the columns.
  MomentsSketch CellSketch(uint32_t cell_id) const;

  /// Bytes of sketch state across all cells (columns, not per-object).
  size_t SummaryBytes() const;

  // ------------------------------------------------------------- rollup

  /// Builds (or rebuilds) the rollup index over the current contents.
  void BuildRollup(const RollupOptions& options = {});

  /// Incrementally re-validates a built rollup: rebuilds only the span
  /// nodes covering cells ingested into since the last build/refresh,
  /// appends newly completed spans, re-reduces the total (one SIMD range
  /// merge over all cells — see RollupIndex::Refresh for the cost
  /// breakdown). No-op when no rollup exists or it is already fresh.
  void RefreshRollup();

  /// The rollup index, or null when none was built.
  const RollupIndex* rollup() const { return rollup_.get(); }

  /// True when a rollup exists and no ingest happened since it was
  /// built/refreshed (the only state QueryWhere will use it in).
  bool HasFreshRollup() const {
    return rollup_ != nullptr && rollup_->FreshAt(version_);
  }

  // ------------------------------------------------ KLL side column
  //
  // The multi-backend router's fallback storage: one KllSketch per cell,
  // object-per-cell (rank sketches are not linear accumulators, so they
  // cannot join the SoA columns). Off by default — zero overhead until
  // enabled. Must be enabled before the first row lands so the rank
  // certificates cover the cell's full history.

  /// Enables KLL dual-writes with per-level capacity `kll_k`. Must be
  /// called on an empty store (certificates are only sound when the rank
  /// sketch saw every row).
  void EnableKll(int kll_k = 64);
  bool kll_enabled() const { return kll_enabled_; }
  int kll_k() const { return kll_k_; }

  /// The cell's rank sketch, or nullptr when KLL is disabled.
  const KllSketch* CellKll(uint32_t cell_id) const {
    if (!kll_enabled_ || cell_id >= kll_cells_.size()) return nullptr;
    return &kll_cells_[cell_id];
  }

  /// One-cell ApplyDeltas of a KLL delta. Unsupported when KLL is
  /// disabled.
  Status ApplyKllDelta(const CubeCoords& coords, const KllSketch& delta);

  /// Merged rank sketch over the cells matching `filter` (same matching
  /// semantics as QueryWhere). Unsupported when KLL is disabled.
  Result<KllSketch> MergeKllWhere(const CubeFilter& filter,
                                  QueryStats* stats = nullptr) const;

  /// Merged rank sketch over an explicit cell set. When every cell is
  /// uncompacted (rank_error_bound() == 0) and they hold at most
  /// 32 * kll_k() rows, the result is their lossless union: it holds
  /// every row, has rank_error_bound() == 0, and its k exceeds its row
  /// count (so it is not kll_k() from kll_k() rows on). Otherwise it is
  /// the cell-by-cell KllSketch(kll_k()) merge.
  Result<KllSketch> MergeKllCells(const uint32_t* cell_ids, size_t n) const;

  /// Monotone column version: bumped by every Ingest. Snapshot it next
  /// to a FlatMomentColumns view to detect staleness.
  uint64_t column_version() const { return version_; }

  /// Cumulative QueryWhere plan counts (benchmark/diagnostic surface).
  const PlanCounters& plan_counters() const { return plan_counters_; }

  /// The inverted index of one dimension (batch_query's rollup-backed
  /// GROUP BY enumerates a dimension's values through this).
  const DimIndex& dim_index(size_t d) const { return dim_indexes_[d]; }

 private:
  /// Re-points the cached column bases at the current buffers (used by
  /// the copy constructor, which must not bump the version).
  void RefreshColumnPtrs();
  /// The single place cached column base pointers are rebuilt and the
  /// version is bumped after column growth; Ingest must route every
  /// reallocation-capable mutation through here so no stale-pointer
  /// window can exist.
  void OnColumnsChanged();
  /// Executes the tail of QueryWhere once the sorted matching ids are
  /// known: complement when nearly everything matches, total/range merge
  /// when everything does, gather merge otherwise.
  MomentsSketch ExecuteIds(const FlatMomentColumns& cols, const uint32_t* ids,
                           size_t m, QueryPlan source_plan, bool rollup_fresh,
                           QueryStats* st) const;
  /// Bookkeeping for an in-place update of an existing cell: bumps the
  /// version and records the cell for incremental rollup refresh.
  void OnCellMutated(uint32_t cell_id);
  /// The cell at `coords`, found or created with one directory probe. An
  /// existing cell goes through OnCellMutated. A new one gets one
  /// zeroed slot in every column, its postings and their positions, and
  /// goes through OnColumnsChanged (push_backs may reallocate). Shared
  /// by Ingest and ApplyDeltas so the parallel columns can never
  /// diverge.
  uint32_t FindOrCreateCell(const CubeCoords& coords);

  size_t num_dims_;
  int k_;
  uint64_t num_rows_ = 0;
  uint64_t version_ = 0;

  // Cell directory: each cell's coordinates packed num_dims_ u32s per
  // cell in id order, behind power-of-two open-addressing slots (see
  // tuple_index.h). It resolves coordinates to a cell id by comparing
  // against the packed copy, about 8-16 B of slots plus 4 B per
  // dimension per cell, with no heap node or key vector per cell.
  // coords_ keeps the per-cell vectors CoordsOf hands out.
  TupleIndex cell_index_;
  std::vector<CubeCoords> coords_;  // cell id -> coordinates

  // Struct-of-arrays sketch state, one entry per cell per column.
  std::vector<std::vector<double>> power_cols_;  // k columns
  std::vector<std::vector<double>> log_cols_;    // k columns
  std::vector<uint64_t> counts_;
  std::vector<uint64_t> log_counts_;
  std::vector<double> mins_;
  std::vector<double> maxs_;
  std::vector<double> sums_;

  // Column base pointers, kept current by OnColumnsChanged so Columns()
  // and the const query methods never write shared state.
  std::vector<const double*> power_ptrs_;
  std::vector<const double*> log_ptrs_;

  // One inverted index per dimension, and each cell's position in its
  // postings lists (postings_pos_[cell * num_dims_ + d]; positions never
  // move because postings only append), which locates the rollup span a
  // mutation dirties without searching the postings.
  std::vector<DimIndex> dim_indexes_;
  std::vector<uint32_t> postings_pos_;

  // KLL side column (object-per-cell; parallel to coords_ when enabled).
  bool kll_enabled_ = false;
  int kll_k_ = 64;
  std::vector<KllSketch> kll_cells_;

  // Rollup index + the cells mutated since its last build/refresh.
  std::unique_ptr<RollupIndex> rollup_;
  std::vector<uint32_t> dirty_cells_;
  std::vector<uint8_t> cell_dirty_;  // parallel to coords_

  mutable PlanCounters plan_counters_;
};

}  // namespace msketch

#endif  // MSKETCH_CUBE_CUBE_STORE_H_
