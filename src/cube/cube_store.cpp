#include "cube/cube_store.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/macros.h"

namespace msketch {

namespace {

// QueryWhere plan-selection thresholds (see src/cube/README.md).
//
// Complement starts from the pre-merged total and subtracts the N - m
// non-matching cells instead of gathering m matching ones; it needs a
// fresh rollup (computing the total on the fly costs a full range merge,
// which measures at break-even against the direct gather) and wins once
// m is about two thirds of the cube.
constexpr uint64_t kComplementNum = 2, kComplementDen = 3;
// Scan beats intersecting when the postings volume the cursors would
// walk exceeds the coordinate pass by more than the per-element cost
// gap: a postings element is one packed uint32 step, a coordinate check
// dereferences the cell's heap-allocated coords vector (~an order of
// magnitude more), so the scan only wins against many near-full lists.
constexpr uint64_t kScanCostFactor = 12;
// Complement cancellation guard: subtracting the non-matching cells'
// k-th power sums amplifies rounding noise by up to
// (amax_nonmatching / amax_matching)^k relative to the matching-scale
// result. Decline the plan once that amplification could exceed 2^12
// (~4096 ulps, leaving answers well inside solver tolerance); same-
// distribution populations sit far below the bound, magnitude-skewed
// adversarial ones far above.
constexpr double kMaxCancellationBits = 12.0;

// MergeKllCells keeps every row of an all-uncompacted selection up to
// this many rows per unit of kll_k (2048 rows at k = 64). At 2048 rows
// in 8-row cells, the lossless union plus its exact answer (5 phis)
// takes 0.2-0.6 ms against 1.2-3.2 ms for the kll_k merge plus a
// maxent solve on milan, hepmass, retail, exponential and gauss rows;
// by 4096 rows a smooth selection's solve catches up (1.4 ms each way
// on hepmass and gauss; 4-core x86 container). Above the cap the merge
// keeps its O(k log n) size.
constexpr uint64_t kLosslessRowsPerK = 32;

// Adds each cell's src value into its accumulator row, in ascending
// cell id: with `cells` null, cell c of [0, len) into dst[rows[c]];
// otherwise cell cells[j] into dst[rows[j]] for j in [0, len).
template <typename T>
void ReduceColumn(const T* src, const uint32_t* rows, const uint32_t* cells,
                  size_t len, T* dst) {
  if (cells == nullptr) {
    for (size_t c = 0; c < len; ++c) dst[rows[c]] += src[c];
  } else {
    for (size_t j = 0; j < len; ++j) dst[rows[j]] += src[cells[j]];
  }
}

}  // namespace

const char* QueryPlanName(QueryPlan plan) {
  switch (plan) {
    case QueryPlan::kScan:
      return "scan";
    case QueryPlan::kIntersect:
      return "intersect";
    case QueryPlan::kRollup:
      return "rollup";
    case QueryPlan::kComplement:
      return "complement";
  }
  return "unknown";
}

CubeStore::CubeStore(size_t num_dims, int k)
    : num_dims_(num_dims), k_(k), cell_index_(num_dims) {
  MSKETCH_CHECK(num_dims >= 1);
  MSKETCH_CHECK(k >= 1 && k <= 64);
  power_cols_.resize(k);
  log_cols_.resize(k);
  power_ptrs_.resize(k, nullptr);
  log_ptrs_.resize(k, nullptr);
  dim_indexes_.resize(num_dims);
}

CubeStore::CubeStore(const CubeStore& other)
    : num_dims_(other.num_dims_),
      k_(other.k_),
      num_rows_(other.num_rows_),
      version_(other.version_),
      cell_index_(other.cell_index_),
      coords_(other.coords_),
      power_cols_(other.power_cols_),
      log_cols_(other.log_cols_),
      counts_(other.counts_),
      log_counts_(other.log_counts_),
      mins_(other.mins_),
      maxs_(other.maxs_),
      sums_(other.sums_),
      power_ptrs_(other.power_ptrs_),
      log_ptrs_(other.log_ptrs_),
      dim_indexes_(other.dim_indexes_),
      postings_pos_(other.postings_pos_),
      kll_enabled_(other.kll_enabled_),
      kll_k_(other.kll_k_),
      kll_cells_(other.kll_cells_),
      rollup_(other.rollup_ ? std::make_unique<RollupIndex>(*other.rollup_)
                            : nullptr),
      dirty_cells_(other.dirty_cells_),
      cell_dirty_(other.cell_dirty_),
      plan_counters_(other.plan_counters_) {
  RefreshColumnPtrs();
}

CubeStore& CubeStore::operator=(const CubeStore& other) {
  if (this != &other) {
    *this = CubeStore(other);  // copy-construct (refreshes ptrs), then move
  }
  return *this;
}

void CubeStore::RefreshColumnPtrs() {
  for (int i = 0; i < k_; ++i) {
    power_ptrs_[i] = power_cols_[i].data();
    log_ptrs_[i] = log_cols_[i].data();
  }
}

void CubeStore::OnColumnsChanged() {
  ++version_;
  RefreshColumnPtrs();
}

void CubeStore::OnCellMutated(uint32_t cell_id) {
  ++version_;
  if (rollup_ != nullptr && !cell_dirty_[cell_id]) {
    cell_dirty_[cell_id] = 1;
    dirty_cells_.push_back(cell_id);
  }
}

uint32_t CubeStore::FindOrCreateCell(const CubeCoords& coords) {
  bool created = false;
  const uint32_t id = cell_index_.FindOrInsert(coords.data(), &created);
  if (!created) {
    OnCellMutated(id);
    return id;
  }
  coords_.push_back(coords);
  for (auto& col : power_cols_) col.push_back(0.0);
  for (auto& col : log_cols_) col.push_back(0.0);
  counts_.push_back(0);
  log_counts_.push_back(0);
  mins_.push_back(std::numeric_limits<double>::infinity());
  maxs_.push_back(-std::numeric_limits<double>::infinity());
  sums_.push_back(0.0);
  cell_dirty_.push_back(0);
  if (kll_enabled_) kll_cells_.emplace_back(kll_k_);
  for (size_t d = 0; d < num_dims_; ++d) {
    postings_pos_.push_back(dim_indexes_[d].Add(coords[d], id));
  }
  // The push_backs may have reallocated; this is the one place the
  // cached column bases are re-pointed (and the version bumped), so
  // Columns() stays a pure read and no caller can observe stale
  // pointers after column growth.
  OnColumnsChanged();
  return id;
}

uint32_t CubeStore::Ingest(const CubeCoords& coords, double value) {
  MSKETCH_DCHECK(coords.size() == num_dims_);
  MSKETCH_DCHECK(std::isfinite(value));
  const uint32_t id = FindOrCreateCell(coords);
  // Same accumulation recurrence as MomentsSketch::Accumulate, applied to
  // the cell's column entries.
  mins_[id] = std::min(mins_[id], value);
  maxs_[id] = std::max(maxs_[id], value);
  ++counts_[id];
  sums_[id] += value;
  double p = 1.0;
  for (int i = 0; i < k_; ++i) {
    p *= value;
    power_cols_[i][id] += p;
  }
  if (value > 0.0) {
    ++log_counts_[id];
    const double lx = std::log(value);
    double lp = 1.0;
    for (int i = 0; i < k_; ++i) {
      lp *= lx;
      log_cols_[i][id] += lp;
    }
  }
  if (kll_enabled_) kll_cells_[id].Accumulate(value);
  ++num_rows_;
  return id;
}

void CubeStore::EnableKll(int kll_k) {
  MSKETCH_CHECK(num_rows_ == 0);  // certificates must cover every row
  kll_enabled_ = true;
  kll_k_ = kll_k;
  kll_cells_.clear();
  kll_cells_.reserve(coords_.size());
  for (size_t i = 0; i < coords_.size(); ++i) kll_cells_.emplace_back(kll_k_);
}

Status CubeStore::ApplyKllDelta(const CubeCoords& coords,
                                const KllSketch& delta) {
  if (!kll_enabled_) {
    return Status::Unsupported("ApplyKllDelta: KLL column disabled");
  }
  const DeltaRef cell{&coords, nullptr, &delta};
  return ApplyDeltas(&cell, 1);
}

Result<KllSketch> CubeStore::MergeKllCells(const uint32_t* cell_ids,
                                           size_t n) const {
  if (!kll_enabled_) {
    return Status::Unsupported("MergeKllCells: KLL column disabled");
  }
  // Every selected cell uncompacted, and few rows in all: each cell
  // holds all its rows at level 0, and a sketch whose capacity exceeds
  // their total never compacts, so the union is lossless (rank error 0).
  // Up to kll_k_ - 1 rows it is the kll_k_ merge itself.
  const uint64_t max_rows = kLosslessRowsPerK * static_cast<uint64_t>(kll_k_);
  uint64_t rows = 0;
  bool lossless = true;
  for (size_t i = 0; i < n && lossless; ++i) {
    MSKETCH_DCHECK(cell_ids[i] < kll_cells_.size());
    const KllSketch& cell = kll_cells_[cell_ids[i]];
    rows += cell.count();
    lossless = cell.rank_error_bound() == 0 && rows <= max_rows;
  }
  if (lossless) {
    KllSketch out(static_cast<int>(
        std::max<uint64_t>(static_cast<uint64_t>(kll_k_), rows + 1)));
    for (size_t i = 0; i < n; ++i) {
      const std::vector<double>& cell_rows = kll_cells_[cell_ids[i]].level(0);
      out.AccumulateBatch(cell_rows.data(), cell_rows.size());
    }
    return out;
  }
  KllSketch out(kll_k_);
  for (size_t i = 0; i < n; ++i) {
    MSKETCH_DCHECK(cell_ids[i] < kll_cells_.size());
    MSKETCH_RETURN_NOT_OK(out.Merge(kll_cells_[cell_ids[i]]));
  }
  return out;
}

Result<KllSketch> CubeStore::MergeKllWhere(const CubeFilter& filter,
                                           QueryStats* stats) const {
  if (!kll_enabled_) {
    return Status::Unsupported("MergeKllWhere: KLL column disabled");
  }
  const std::vector<uint32_t> ids = MatchingCells(filter);
  if (stats != nullptr) stats->kll_merges += ids.size();
  return MergeKllCells(ids.data(), ids.size());
}

Status CubeStore::ApplyDelta(const CubeCoords& coords,
                             const MomentsSketch& delta) {
  const DeltaRef cell{&coords, &delta, nullptr};
  return ApplyDeltas(&cell, 1);
}

Status CubeStore::ApplyDeltas(const DeltaRef* cells, size_t n) {
  // 1. Validate the whole batch before touching the store.
  for (size_t j = 0; j < n; ++j) {
    const DeltaRef& c = cells[j];
    if (c.coords->size() != num_dims_) {
      return Status::InvalidArgument("ApplyDeltas: wrong coordinate arity");
    }
    if (c.sketch != nullptr && c.sketch->k() != k_) {
      return Status::InvalidArgument("ApplyDeltas: mismatched order k");
    }
    if (kll_enabled_ && c.kll != nullptr && c.kll->count() > 0 &&
        c.kll->k() != kll_k_) {
      return Status::InvalidArgument("ApplyDeltas: mismatched KLL k");
    }
  }
  // 2. Resolve (or create) each cell in batch order, so new cells get
  // the ids a one-at-a-time replay would give them.
  std::vector<uint32_t> moment_ids;
  std::vector<const MomentsSketch*> moments;
  std::vector<uint32_t> kll_ids;
  std::vector<const KllSketch*> klls;
  moment_ids.reserve(n);
  moments.reserve(n);
  if (kll_enabled_) {
    kll_ids.reserve(n);
    klls.reserve(n);
  }
  for (size_t j = 0; j < n; ++j) {
    const DeltaRef& c = cells[j];
    const bool has_moments = c.sketch != nullptr && c.sketch->count() > 0;
    const bool has_kll =
        kll_enabled_ && c.kll != nullptr && c.kll->count() > 0;
    if (!has_moments && !has_kll) continue;
    const uint32_t id = FindOrCreateCell(*c.coords);
    if (has_moments) {
      moment_ids.push_back(id);
      moments.push_back(c.sketch);
    }
    if (has_kll) {
      kll_ids.push_back(id);
      klls.push_back(c.kll);
    }
  }
  // 3. Moment sums one column at a time (a column stays cache-resident
  // while the batch scatters into it), batch order within each column.
  const size_t m = moments.size();
  for (int i = 0; i < k_; ++i) {
    double* col = power_cols_[i].data();
    for (size_t j = 0; j < m; ++j) {
      col[moment_ids[j]] += moments[j]->power_sums()[i];
    }
  }
  for (int i = 0; i < k_; ++i) {
    double* col = log_cols_[i].data();
    for (size_t j = 0; j < m; ++j) {
      col[moment_ids[j]] += moments[j]->log_sums()[i];
    }
  }
  for (size_t j = 0; j < m; ++j) {
    const uint32_t id = moment_ids[j];
    const MomentsSketch& delta = *moments[j];
    counts_[id] += delta.count();
    log_counts_[id] += delta.log_count();
    mins_[id] = std::min(mins_[id], delta.min());
    maxs_[id] = std::max(maxs_[id], delta.max());
    // power_sums()[0] is the same addition sequence the sums_ column saw
    // per row, so the native-sum baseline stays consistent with the
    // sketch columns bit-for-bit.
    sums_[id] += delta.power_sums()[0];
    num_rows_ += delta.count();
  }
  // 4. KLL deltas in batch order.
  for (size_t j = 0; j < klls.size(); ++j) {
    KllSketch& cell = kll_cells_[kll_ids[j]];
    if (cell.count() == 0) {
      // Wholesale adoption keeps checkpoint restore bit-exact (a merge
      // into an empty sketch would reset the compaction coin state).
      cell = *klls[j];
    } else {
      // Cannot fail: k was validated above.
      MSKETCH_CHECK(cell.Merge(*klls[j]).ok());
    }
  }
  return Status::OK();
}

FlatMomentColumns CubeStore::Columns() const {
  FlatMomentColumns cols;
  cols.k = k_;
  cols.num_cells = coords_.size();
  cols.power_sums = power_ptrs_.data();
  cols.log_sums = log_ptrs_.data();
  cols.counts = counts_.data();
  cols.log_counts = log_counts_.data();
  cols.mins = mins_.data();
  cols.maxs = maxs_.data();
  return cols;
}

void CubeStore::BuildRollup(const RollupOptions& options) {
  rollup_ = std::make_unique<RollupIndex>(k_, options);
  rollup_->Build(Columns(), dim_indexes_, version_);
  std::fill(cell_dirty_.begin(), cell_dirty_.end(), 0);
  dirty_cells_.clear();
}

void CubeStore::RefreshRollup() {
  if (rollup_ == nullptr || rollup_->FreshAt(version_)) return;
  rollup_->Refresh(Columns(), dim_indexes_, coords_, postings_pos_,
                   dirty_cells_, version_);
  for (uint32_t c : dirty_cells_) cell_dirty_[c] = 0;
  dirty_cells_.clear();
}

std::vector<uint32_t> CubeStore::MatchingCells(const CubeFilter& filter) const {
  MSKETCH_CHECK(filter.size() == num_dims_);
  std::vector<const std::vector<uint32_t>*> constrained;
  for (size_t d = 0; d < num_dims_; ++d) {
    if (filter[d] == kAnyValue) continue;
    if (!FilterValueInRange(filter[d])) return {};  // impossible value
    constrained.push_back(
        &dim_indexes_[d].Postings(static_cast<uint32_t>(filter[d])));
  }
  if (constrained.empty()) {
    std::vector<uint32_t> all(coords_.size());
    for (uint32_t id = 0; id < all.size(); ++id) all[id] = id;
    return all;
  }
  return IntersectPostings(constrained);
}

MomentsSketch CubeStore::QueryWhere(const CubeFilter& filter,
                                    QueryStats* stats) const {
  MSKETCH_CHECK(filter.size() == num_dims_);
  QueryStats local;
  QueryStats& st = stats != nullptr ? *stats : local;
  st = QueryStats();
  const FlatMomentColumns cols = Columns();
  const size_t n_cells = coords_.size();
  const bool rollup_fresh = HasFreshRollup();
  MomentsSketch out(k_);

  // Constrained dimensions and their postings ( = the selectivity
  // counters the planner reads).
  std::vector<size_t> cdims;
  std::vector<const std::vector<uint32_t>*> postings;
  for (size_t d = 0; d < num_dims_; ++d) {
    if (filter[d] == kAnyValue) continue;
    if (!FilterValueInRange(filter[d])) {
      st.plan = QueryPlan::kIntersect;  // impossible value: empty result
      plan_counters_.intersect.fetch_add(1, std::memory_order_relaxed);
      return out;
    }
    cdims.push_back(d);
    postings.push_back(
        &dim_indexes_[d].Postings(static_cast<uint32_t>(filter[d])));
  }

  // Unconstrained: the fresh rollup answers in O(k); otherwise one SIMD
  // range merge over the packed columns.
  if (cdims.empty()) {
    st.merges = n_cells;
    if (rollup_fresh) {
      st.plan = QueryPlan::kRollup;
      plan_counters_.rollup.fetch_add(1, std::memory_order_relaxed);
      return rollup_->total();
    }
    st.plan = QueryPlan::kScan;
    st.visited = n_cells;
    plan_counters_.scan.fetch_add(1, std::memory_order_relaxed);
    MSKETCH_CHECK(out.MergeFlatRangeFast(cols, 0, n_cells).ok());
    return out;
  }

  // Single constrained dimension with a fresh rollup: fold the value's
  // pre-merged span nodes, then the residual postings tail.
  if (cdims.size() == 1) {
    const std::vector<uint32_t>& list = *postings[0];
    if (rollup_fresh) {
      const RollupIndex::ValueSpans spans = rollup_->SpansFor(
          cdims[0], static_cast<uint32_t>(filter[cdims[0]]));
      if (spans.nodes != nullptr) {
        st.plan = QueryPlan::kRollup;
        plan_counters_.rollup.fetch_add(1, std::memory_order_relaxed);
        MSKETCH_CHECK(out.MergeFlatFast(rollup_->slab().Columns(),
                                        spans.nodes->data(),
                                        spans.nodes->size())
                          .ok());
        const size_t residual = list.size() - spans.covered;
        if (residual > 0) {
          MSKETCH_CHECK(
              out.MergeFlatFast(cols, list.data() + spans.covered, residual)
                  .ok());
        }
        st.merges = list.size();
        st.span_merges = spans.nodes->size();
        st.residual_merges = residual;
        st.visited = st.span_merges + st.residual_merges;
        return out;
      }
    }
    return ExecuteIds(cols, list.data(), list.size(), QueryPlan::kIntersect,
                      rollup_fresh, &st);
  }

  // Multiple constrained dimensions: intersect the postings, unless the
  // total postings volume the cursors would walk dwarfs one coordinate
  // pass — then scanning is cheaper than walking many near-full lists.
  size_t sum_postings = 0;
  for (const auto* p : postings) sum_postings += p->size();
  std::vector<uint32_t> ids;
  QueryPlan source_plan;
  if (sum_postings > kScanCostFactor * n_cells) {
    source_plan = QueryPlan::kScan;
    ids.reserve(n_cells);
    for (uint32_t id = 0; id < n_cells; ++id) {
      if (FilterMatches(coords_[id], filter)) ids.push_back(id);
    }
    st.visited = n_cells;
  } else {
    source_plan = QueryPlan::kIntersect;
    ids = IntersectPostings(postings);
  }
  return ExecuteIds(cols, ids.data(), ids.size(), source_plan, rollup_fresh,
                    &st);
}

MomentsSketch CubeStore::ExecuteIds(const FlatMomentColumns& cols,
                                    const uint32_t* ids, size_t m,
                                    QueryPlan source_plan, bool rollup_fresh,
                                    QueryStats* st) const {
  const size_t n_cells = coords_.size();
  MomentsSketch out(k_);
  st->merges = m;
  st->plan = source_plan;

  // Complement: when nearly everything matches and the pre-merged total
  // is fresh, start from the total and subtract the few non-matching
  // cells; min/max are re-derived exactly from the matching cells'
  // packed extrema. Guarded against catastrophic cancellation: the
  // subtracted moment sums grow like amax^k, so if any non-matching cell
  // has larger magnitude than every matching cell, the subtraction could
  // bury the true sums below the operands' ulp — fall through to the
  // direct gather merge instead, which sums the matching cells at full
  // precision.
  if (rollup_fresh && m * kComplementDen >= n_cells * kComplementNum &&
      m < n_cells) {
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < m; ++i) {
      mn = std::min(mn, cols.mins[ids[i]]);
      mx = std::max(mx, cols.maxs[ids[i]]);
    }
    const double amax_matching =
        std::max(std::fabs(mn), std::fabs(mx));
    std::vector<uint32_t> non_matching;
    non_matching.reserve(n_cells - m);
    double amax_non_matching = 0.0;
    size_t j = 0;
    for (uint32_t id = 0; id < n_cells; ++id) {
      if (j < m && ids[j] == id) {
        ++j;
        continue;
      }
      non_matching.push_back(id);
      if (cols.counts[id] > 0) {
        amax_non_matching =
            std::max(amax_non_matching,
                     std::max(std::fabs(cols.mins[id]),
                              std::fabs(cols.maxs[id])));
      }
    }
    const bool cancellation_safe =
        amax_non_matching <= amax_matching ||
        (amax_matching > 0.0 &&
         k_ * std::log2(amax_non_matching / amax_matching) <
             kMaxCancellationBits);
    if (cancellation_safe) {
      st->plan = QueryPlan::kComplement;
      plan_counters_.complement.fetch_add(1, std::memory_order_relaxed);
      out = rollup_->total();
      MSKETCH_CHECK(
          out.SubtractFlatFast(cols, non_matching.data(),
                               non_matching.size())
              .ok());
      if (out.count() > 0) out.SetRange(mn, mx);
      st->subtract_merges = non_matching.size();
      st->visited += non_matching.size();
      return out;
    }
  }

  if (m == n_cells) {
    // Everything matches: unit-stride merge (or the pre-merged total).
    if (rollup_fresh) {
      st->plan = QueryPlan::kRollup;
      plan_counters_.rollup.fetch_add(1, std::memory_order_relaxed);
      return rollup_->total();
    }
    st->visited += n_cells;
    MSKETCH_CHECK(out.MergeFlatRangeFast(cols, 0, n_cells).ok());
  } else {
    st->visited += m;
    MSKETCH_CHECK(out.MergeFlatFast(cols, ids, m).ok());
  }
  if (st->plan == QueryPlan::kScan) {
    plan_counters_.scan.fetch_add(1, std::memory_order_relaxed);
  } else {
    plan_counters_.intersect.fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

MomentsSketch CubeStore::MergeWhere(const CubeFilter& filter,
                                    QueryStats* stats) const {
  MomentsSketch out(k_);
  bool unconstrained = true;
  for (int64_t f : filter) unconstrained &= (f == kAnyValue);
  if (unconstrained) {
    MSKETCH_CHECK(filter.size() == num_dims_);
    MSKETCH_CHECK(out.MergeFlatRange(Columns(), 0, coords_.size()).ok());
    if (stats != nullptr) {
      stats->merges = coords_.size();
      stats->visited = coords_.size();
    }
    return out;
  }
  // Every constrained dimension participated in the intersection, so the
  // candidates are exactly the matching cells — no re-check needed.
  std::vector<uint32_t> ids = MatchingCells(filter);
  MSKETCH_CHECK(out.MergeFlat(Columns(), ids.data(), ids.size()).ok());
  if (stats != nullptr) {
    stats->merges = ids.size();
    stats->visited = ids.size();
  }
  return out;
}

MomentsSketch CubeStore::MergeWhereScan(const CubeFilter& filter,
                                        QueryStats* stats) const {
  MSKETCH_CHECK(filter.size() == num_dims_);
  std::vector<uint32_t> ids;
  for (uint32_t id = 0; id < coords_.size(); ++id) {
    if (FilterMatches(coords_[id], filter)) ids.push_back(id);
  }
  MomentsSketch out(k_);
  MSKETCH_CHECK(out.MergeFlat(Columns(), ids.data(), ids.size()).ok());
  if (stats != nullptr) {
    stats->merges = ids.size();
    stats->visited = coords_.size();
  }
  return out;
}

MomentsSketch CubeStore::MergeAll() const {
  return MergeRange(0, coords_.size());
}

MomentsSketch CubeStore::MergeCells(const uint32_t* cell_ids,
                                    size_t n) const {
  MomentsSketch out(k_);
  MSKETCH_CHECK(out.MergeFlat(Columns(), cell_ids, n).ok());
  return out;
}

MomentsSketch CubeStore::MergeRange(size_t begin, size_t end) const {
  MomentsSketch out(k_);
  MSKETCH_CHECK(out.MergeFlatRange(Columns(), begin, end).ok());
  return out;
}

double CubeStore::SumWhere(const CubeFilter& filter) const {
  MSKETCH_CHECK(filter.size() == num_dims_);
  double acc = 0.0;
  bool unconstrained = true;
  for (int64_t f : filter) unconstrained &= (f == kAnyValue);
  if (unconstrained) {
    // Stream the packed sums column directly; no id list needed.
    for (double s : sums_) acc += s;
    return acc;
  }
  for (uint32_t id : MatchingCells(filter)) acc += sums_[id];
  return acc;
}

void CubeStore::ForEachGroup(
    const std::vector<size_t>& group_dims,
    const std::function<void(const CubeCoords&, const MomentsSketch&)>& fn)
    const {
  const GroupPartition partition = PartitionGroups(group_dims);
  std::vector<uint32_t> every_group(partition.num_groups());
  std::iota(every_group.begin(), every_group.end(), 0u);
  const size_t width = group_dims.size();
  CubeCoords key;
  ReduceGroups(partition, every_group,
               [&](size_t g, const MomentsSketch& sketch) {
                 const uint32_t* packed =
                     partition.keys.Key(static_cast<uint32_t>(g));
                 key.assign(packed, packed + width);
                 fn(key, sketch);
               });
}

GroupPartition CubeStore::PartitionGroups(
    const std::vector<size_t>& group_dims) const {
  for (size_t d : group_dims) {
    MSKETCH_CHECK_MSG(d < num_dims_,
                      "GROUP BY: group dimension out of range");
  }
  const size_t n = coords_.size();
  const size_t width = group_dims.size();
  // Built in locals and moved into the partition at the end, so the
  // compiler can keep the index's state in registers across the stores.
  TupleIndex index(width);
  std::vector<uint32_t> group_of(n);
  std::vector<GroupRange> ranges;
  // Each group's range starts in a fresh sketch's state and folds its
  // cells in ascending id, as the sketch's own min/max would.
  const MomentsSketch empty(k_);
  const GroupRange fresh{0, empty.min(), empty.max(), 0};
  std::vector<uint32_t> key(width);
  for (uint32_t id = 0; id < n; ++id) {
    const uint32_t* coords = cell_index_.Key(id);
    for (size_t g = 0; g < width; ++g) key[g] = coords[group_dims[g]];
    bool created = false;
    const uint32_t g = index.FindOrInsert(key.data(), &created);
    if (created) ranges.push_back(fresh);
    group_of[id] = g;
    GroupRange& r = ranges[g];
    r.count += counts_[id];
    r.min = std::min(r.min, mins_[id]);
    r.max = std::max(r.max, maxs_[id]);
    ++r.num_cells;
  }
  GroupPartition p(width);
  p.keys = std::move(index);
  p.group_of = std::move(group_of);
  p.ranges = std::move(ranges);
  return p;
}

void CubeStore::ReduceGroups(
    const GroupPartition& partition, const std::vector<uint32_t>& groups,
    const std::function<void(size_t, const MomentsSketch&)>& fn) const {
  const size_t n = partition.group_of.size();
  MSKETCH_CHECK_MSG(n == coords_.size(),
                    "ReduceGroups: partition of another store state");
  const size_t num_groups = partition.num_groups();
  const size_t m = groups.size();
  for (size_t j = 0; j < m; ++j) {
    MSKETCH_CHECK_MSG(
        groups[j] < num_groups && (j == 0 || groups[j - 1] < groups[j]),
        "ReduceGroups: group ids must be strictly ascending");
  }
  // Listed group j accumulates in row j. When every group is listed,
  // groups[j] == j, so the partition's group ids are the rows.
  const uint32_t* rows = partition.group_of.data();
  const uint32_t* cells = nullptr;  // null: every cell, in id order
  size_t len = n;
  size_t num_rows = m;
  std::vector<uint32_t> row_buf, cell_buf;
  if (m < num_groups) {
    // Unlisted groups map to the discard row m.
    std::vector<uint32_t> row_of(num_groups, static_cast<uint32_t>(m));
    size_t listed_cells = 0;
    for (size_t j = 0; j < m; ++j) {
      row_of[groups[j]] = static_cast<uint32_t>(j);
      listed_cells += partition.ranges[groups[j]].num_cells;
    }
    if (2 * listed_cells >= n) {
      // Direct: visit every cell; unlisted cells add into the discard
      // row, so the column loops stay unit-stride over the sources.
      row_buf.resize(n);
      for (size_t c = 0; c < n; ++c) {
        row_buf[c] = row_of[partition.group_of[c]];
      }
      num_rows = m + 1;
    } else {
      // Gather: the listed groups' cells only, still in ascending id.
      row_buf.reserve(listed_cells);
      cell_buf.reserve(listed_cells);
      for (uint32_t c = 0; c < n; ++c) {
        const uint32_t r = row_of[partition.group_of[c]];
        if (r == m) continue;
        cell_buf.push_back(c);
        row_buf.push_back(r);
      }
      cells = cell_buf.data();
      len = listed_cells;
    }
    rows = row_buf.data();
  }
  // One column at a time into accumulators that start in a fresh
  // sketch's state, ascending cell id within each column: the addition
  // sequence of per-cell MergeFlat calls into a fresh sketch.
  MomentSlab acc(k_);
  acc.AppendEmpty(num_rows);
  const MutableFlatMomentColumns out = acc.MutableColumns();
  for (int i = 0; i < k_; ++i) {
    ReduceColumn(power_ptrs_[i], rows, cells, len, out.power_sums[i]);
  }
  for (int i = 0; i < k_; ++i) {
    ReduceColumn(log_ptrs_[i], rows, cells, len, out.log_sums[i]);
  }
  ReduceColumn(log_counts_.data(), rows, cells, len, out.log_counts);
  for (size_t j = 0; j < m; ++j) {
    const GroupRange& r = partition.ranges[groups[j]];
    out.counts[j] = r.count;
    out.mins[j] = r.min;
    out.maxs[j] = r.max;
  }
  // Each group's sketch is its row folded into a fresh sketch (0.0 + sum
  // keeps every sum's bits).
  const FlatMomentColumns sums = acc.Columns();
  const MomentsSketch empty(k_);
  MomentsSketch sketch(k_);
  for (uint32_t j = 0; j < m; ++j) {
    sketch = empty;
    MSKETCH_CHECK(sketch.MergeFlat(sums, &j, 1).ok());
    fn(j, sketch);
  }
}

MomentsSketch CubeStore::CellSketch(uint32_t cell_id) const {
  MSKETCH_CHECK(cell_id < coords_.size());
  return MergeCells(&cell_id, 1);
}

size_t CubeStore::SummaryBytes() const {
  // Per cell: 2k sum doubles + min/max + count/log_count — the same
  // state a standalone sketch serializes, minus per-object overhead.
  return coords_.size() * ((2 * static_cast<size_t>(k_) + 2) *
                               sizeof(double) +
                           2 * sizeof(uint64_t));
}

}  // namespace msketch
