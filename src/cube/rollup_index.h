// Rollup acceleration for the columnar cube engine: pre-merged partial
// sketches over aligned power-of-two spans of each dimension value's
// postings list.
//
// A filtered merge over a value with L matching cells normally folds L
// rows of (2k + 4) doubles. The rollup stores, for every (dimension,
// value), one pre-merged node per full aligned span of 2^s consecutive
// postings positions, so the same query decomposes into
//
//   floor(L / 2^s) span nodes   (one flat add each)
//   L mod 2^s residual cells    (folded straight from the main columns)
//
// — a ~2^s-fold reduction in merge work for single-dimension filters,
// the LMQ-Sketch shared-aggregate idea specialized to moments columns.
// The index also keeps the grand-total sketch, which both answers
// unfiltered queries in O(k) and anchors the complement plan
// (total − SubtractFlat(non-matching)) in CubeStore::QueryWhere.
//
// Maintenance. Cell ids only append to postings, so ingesting into a
// *new* cell never dirties an existing full span — it can only complete
// new spans at the tail. Ingesting into an existing cell dirties exactly
// one span per dimension (the one covering that cell's postings
// position, which CubeStore records when it creates the cell).
// Refresh() therefore rebuilds only dirty nodes, appends the spans that
// new cells completed, and re-reduces the total; CubeStore tracks the
// dirty cells and the column version that gates staleness. Build and
// Refresh fill nodes through one column-at-a-time kernel, so a refreshed
// node is bit-identical to the same node built from scratch.
#ifndef MSKETCH_CUBE_ROLLUP_INDEX_H_
#define MSKETCH_CUBE_ROLLUP_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/moments_sketch.h"
#include "cube/cube_types.h"
#include "cube/dim_index.h"

namespace msketch {

struct RollupOptions {
  /// log2 of the span width: nodes pre-merge runs of 2^span_log2
  /// consecutive postings positions. Wider spans cost less memory and
  /// fewer per-query adds but leave longer residual tails and coarser
  /// incremental rebuilds.
  int span_log2 = 6;
};

/// Columnar append-only storage of pre-merged sketch nodes — the same
/// struct-of-arrays layout as CubeStore's cell columns, one slot per
/// node, consumable by the MergeFlat* kernels via Columns().
class MomentSlab {
 public:
  explicit MomentSlab(int k);

  /// Appends one node; returns its id.
  uint32_t Append(const MomentsSketch& s);

  /// Appends `n` empty nodes (the state of a fresh MomentsSketch) and
  /// returns the first one's id; the caller fills them through
  /// MutableColumns().
  uint32_t AppendEmpty(size_t n);

  /// Writable view over the nodes, invalidated by the next append.
  MutableFlatMomentColumns MutableColumns();

  /// View over the nodes. Column base pointers are re-derived on every
  /// call (k pointer stores), so there is no cached-pointer state to
  /// invalidate on growth or copy.
  FlatMomentColumns Columns() const;

  size_t size() const { return counts_.size(); }
  int k() const { return k_; }
  size_t SizeBytes() const;

 private:
  int k_;
  std::vector<std::vector<double>> power_cols_;  // k columns
  std::vector<std::vector<double>> log_cols_;    // k columns
  std::vector<uint64_t> counts_;
  std::vector<uint64_t> log_counts_;
  std::vector<double> mins_;
  std::vector<double> maxs_;
  // Scratch for Columns() and MutableColumns(); rebuilt on every call,
  // mutable so the read view stays a const read.
  mutable std::vector<const double*> power_ptrs_;
  mutable std::vector<const double*> log_ptrs_;
  std::vector<double*> power_mut_ptrs_;
  std::vector<double*> log_mut_ptrs_;
};

class RollupIndex {
 public:
  RollupIndex(int k, const RollupOptions& options);

  /// Full (re)build over the store's current columns and postings.
  /// `version` is the store's column version at build time; the index is
  /// fresh exactly while the store still reports that version.
  void Build(const FlatMomentColumns& cols, const std::vector<DimIndex>& dims,
             uint64_t version);

  /// Incremental rebuild: recomputes the span node covering each cell of
  /// `dirty_cells` in each dimension, appends the nodes of spans that
  /// cells created since the last build or refresh completed, and
  /// re-reduces the grand total. `postings_pos[c * dims.size() + d]` is
  /// cell c's position in its dimension-d postings list, so a dirty
  /// cell's span is one shift, and only new cells are visited for span
  /// completion. Cost: one rebuild per dirty node, one pass over the
  /// new cells, and one SIMD range merge over all cells for the total —
  /// proportional to the dirt plus one total re-merge, not to the
  /// number of dimension values. Every node it writes is bit-identical
  /// to the node Build writes for the same span.
  void Refresh(const FlatMomentColumns& cols,
               const std::vector<DimIndex>& dims,
               const std::vector<CubeCoords>& coords,
               const std::vector<uint32_t>& postings_pos,
               const std::vector<uint32_t>& dirty_cells, uint64_t version);

  bool FreshAt(uint64_t version) const {
    return built_ && version == built_version_;
  }
  uint64_t built_version() const { return built_version_; }

  /// Pre-merged sketch over every cell (valid while fresh).
  const MomentsSketch& total() const { return total_; }

  int span_log2() const { return span_log2_; }
  size_t span_width() const { return size_t{1} << span_log2_; }

  /// Span nodes covering the leading full spans of (dim, value)'s
  /// postings. `nodes` is null when the value has no full span (short or
  /// unseen postings); `covered` counts the postings positions the nodes
  /// pre-merge (always a multiple of the span width).
  struct ValueSpans {
    const std::vector<uint32_t>* nodes = nullptr;
    size_t covered = 0;
  };
  ValueSpans SpansFor(size_t dim, uint32_t value) const;

  /// Node storage, for the merge kernels.
  const MomentSlab& slab() const { return slab_; }
  size_t num_nodes() const { return slab_.size(); }
  size_t SizeBytes() const { return slab_.SizeBytes(); }

 private:
  // One node to (re)compute: slab node `node` pre-merges the span_width()
  // cells ids[0, span_width()) (a run of one value's postings).
  struct NodeJob {
    uint32_t node;
    const uint32_t* ids;
  };
  // Appends a node for each full span of `postings` that `nodes` does
  // not cover yet, and queues a job for each.
  void AppendSpans(const std::vector<uint32_t>& postings,
                   std::vector<uint32_t>* nodes, std::vector<NodeJob>* jobs);
  // Computes every job's node from the cell columns, one column at a
  // time across all jobs.
  void MergeNodes(const FlatMomentColumns& cols,
                  const std::vector<NodeJob>& jobs);
  // Re-reduces total_ over every cell and marks the index fresh.
  void Finish(const FlatMomentColumns& cols, uint64_t version);

  int k_;
  int span_log2_;
  bool built_ = false;
  uint64_t built_version_ = 0;
  size_t built_cells_ = 0;  // cells covered by the last build/refresh
  MomentSlab slab_;
  MomentsSketch total_;
  // per_dim_[d][value] -> node ids of that value's full spans, in span
  // order (node j covers postings positions [j*2^s, (j+1)*2^s)).
  std::vector<std::unordered_map<uint32_t, std::vector<uint32_t>>> per_dim_;
};

}  // namespace msketch

#endif  // MSKETCH_CUBE_ROLLUP_INDEX_H_
