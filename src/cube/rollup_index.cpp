#include "cube/rollup_index.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "core/simd_reduce.h"

namespace msketch {

MomentSlab::MomentSlab(int k) : k_(k) {
  MSKETCH_CHECK(k >= 1 && k <= 64);
  power_cols_.resize(k);
  log_cols_.resize(k);
  power_ptrs_.resize(k);
  log_ptrs_.resize(k);
}

uint32_t MomentSlab::Append(const MomentsSketch& s) {
  MSKETCH_CHECK(s.k() == k_);
  const uint32_t node = static_cast<uint32_t>(counts_.size());
  for (int i = 0; i < k_; ++i) {
    power_cols_[i].push_back(s.power_sums()[i]);
    log_cols_[i].push_back(s.log_sums()[i]);
  }
  counts_.push_back(s.count());
  log_counts_.push_back(s.log_count());
  mins_.push_back(s.min());
  maxs_.push_back(s.max());
  return node;
}

uint32_t MomentSlab::AppendEmpty(size_t n) {
  const uint32_t first = static_cast<uint32_t>(counts_.size());
  const size_t size = counts_.size() + n;
  for (int i = 0; i < k_; ++i) {
    power_cols_[i].resize(size, 0.0);
    log_cols_[i].resize(size, 0.0);
  }
  counts_.resize(size, 0);
  log_counts_.resize(size, 0);
  mins_.resize(size, std::numeric_limits<double>::infinity());
  maxs_.resize(size, -std::numeric_limits<double>::infinity());
  return first;
}

MutableFlatMomentColumns MomentSlab::MutableColumns() {
  power_mut_ptrs_.resize(k_);
  log_mut_ptrs_.resize(k_);
  for (int i = 0; i < k_; ++i) {
    power_mut_ptrs_[i] = power_cols_[i].data();
    log_mut_ptrs_[i] = log_cols_[i].data();
  }
  MutableFlatMomentColumns cols;
  cols.k = k_;
  cols.num_cells = counts_.size();
  cols.power_sums = power_mut_ptrs_.data();
  cols.log_sums = log_mut_ptrs_.data();
  cols.counts = counts_.data();
  cols.log_counts = log_counts_.data();
  cols.mins = mins_.data();
  cols.maxs = maxs_.data();
  return cols;
}

FlatMomentColumns MomentSlab::Columns() const {
  for (int i = 0; i < k_; ++i) {
    power_ptrs_[i] = power_cols_[i].data();
    log_ptrs_[i] = log_cols_[i].data();
  }
  FlatMomentColumns cols;
  cols.k = k_;
  cols.num_cells = counts_.size();
  cols.power_sums = power_ptrs_.data();
  cols.log_sums = log_ptrs_.data();
  cols.counts = counts_.data();
  cols.log_counts = log_counts_.data();
  cols.mins = mins_.data();
  cols.maxs = maxs_.data();
  return cols;
}

size_t MomentSlab::SizeBytes() const {
  return counts_.size() * ((2 * static_cast<size_t>(k_) + 2) *
                               sizeof(double) +
                           2 * sizeof(uint64_t));
}

RollupIndex::RollupIndex(int k, const RollupOptions& options)
    : k_(k), span_log2_(options.span_log2), slab_(k), total_(k) {
  MSKETCH_CHECK(span_log2_ >= 1 && span_log2_ <= 20);
}

void RollupIndex::AppendSpans(const std::vector<uint32_t>& postings,
                              std::vector<uint32_t>* nodes,
                              std::vector<NodeJob>* jobs) {
  const size_t covered = nodes->size();
  const size_t spans = postings.size() >> span_log2_;
  if (spans <= covered) return;
  const uint32_t first = slab_.AppendEmpty(spans - covered);
  for (size_t j = covered; j < spans; ++j) {
    const uint32_t node = first + static_cast<uint32_t>(j - covered);
    nodes->push_back(node);
    jobs->push_back({node, postings.data() + (j << span_log2_)});
  }
}

void RollupIndex::MergeNodes(const FlatMomentColumns& cols,
                             const std::vector<NodeJob>& jobs) {
  MSKETCH_CHECK(cols.k == k_);
  const size_t width = span_width();
  for (const NodeJob& job : jobs) {
    // Postings ascend, so the last id bounds the span.
    MSKETCH_CHECK(job.ids[width - 1] < cols.num_cells);
  }
  // Column at a time: one source column (8 B per cell) and the postings
  // stay cache-resident while every job gathers from it, instead of
  // each node touching all 2k + 4 columns at 2^span_log2 scattered
  // cells. Each node sum is the ReduceAddGather over the same ids that
  // MergeFlatFast runs, folded into a fresh node (0.0 + r), and the
  // counts and min/max fold in postings order as MergeFlatFast does, so
  // a node is bit-identical to MergeFlatFast on an empty sketch.
  const MutableFlatMomentColumns out = slab_.MutableColumns();
  for (int i = 0; i < k_; ++i) {
    const double* src = cols.power_sums[i];
    double* dst = out.power_sums[i];
    for (const NodeJob& job : jobs) {
      dst[job.node] = 0.0 + simd::ReduceAddGather(src, job.ids, width);
    }
  }
  for (int i = 0; i < k_; ++i) {
    const double* src = cols.log_sums[i];
    double* dst = out.log_sums[i];
    for (const NodeJob& job : jobs) {
      dst[job.node] = 0.0 + simd::ReduceAddGather(src, job.ids, width);
    }
  }
  for (const NodeJob& job : jobs) {
    uint64_t count = 0, log_count = 0;
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < width; ++j) {
      const uint32_t id = job.ids[j];
      count += cols.counts[id];
      log_count += cols.log_counts[id];
      mn = std::min(mn, cols.mins[id]);
      mx = std::max(mx, cols.maxs[id]);
    }
    out.counts[job.node] = count;
    out.log_counts[job.node] = log_count;
    out.mins[job.node] = mn;
    out.maxs[job.node] = mx;
  }
}

void RollupIndex::Finish(const FlatMomentColumns& cols, uint64_t version) {
  total_ = MomentsSketch(k_);
  MSKETCH_CHECK(total_.MergeFlatRangeFast(cols, 0, cols.num_cells).ok());
  built_ = true;
  built_version_ = version;
  built_cells_ = cols.num_cells;
}

void RollupIndex::Build(const FlatMomentColumns& cols,
                        const std::vector<DimIndex>& dims, uint64_t version) {
  slab_ = MomentSlab(k_);
  per_dim_.assign(dims.size(), {});
  std::vector<NodeJob> jobs;
  for (size_t d = 0; d < dims.size(); ++d) {
    auto& values = per_dim_[d];
    values.reserve(dims[d].num_values());
    dims[d].ForEachValue(
        [&](uint32_t value, const std::vector<uint32_t>& postings) {
          if (postings.size() < span_width()) return;  // residual-only
          AppendSpans(postings, &values[value], &jobs);
        });
  }
  MergeNodes(cols, jobs);
  Finish(cols, version);
}

void RollupIndex::Refresh(const FlatMomentColumns& cols,
                          const std::vector<DimIndex>& dims,
                          const std::vector<CubeCoords>& coords,
                          const std::vector<uint32_t>& postings_pos,
                          const std::vector<uint32_t>& dirty_cells,
                          uint64_t version) {
  if (!built_) {
    Build(cols, dims, version);
    return;
  }
  const size_t num_dims = dims.size();
  MSKETCH_CHECK(postings_pos.size() == cols.num_cells * num_dims);
  std::vector<NodeJob> jobs;
  // The span node covering each dirty cell in each dimension, queued
  // once even when several dirty cells share a span. A dirty cell past
  // a value's last full span sits in the residual and has no node.
  std::vector<uint8_t> queued(slab_.size(), 0);
  for (uint32_t cell : dirty_cells) {
    const uint32_t* pos = &postings_pos[size_t{cell} * num_dims];
    for (size_t d = 0; d < num_dims; ++d) {
      const uint32_t value = coords[cell][d];
      auto it = per_dim_[d].find(value);
      if (it == per_dim_[d].end()) continue;  // no full span for this value
      const size_t span = pos[d] >> span_log2_;
      if (span >= it->second.size()) continue;
      const uint32_t node = it->second[span];
      if (queued[node]) continue;
      queued[node] = 1;
      jobs.push_back(
          {node, dims[d].Postings(value).data() + (span << span_log2_)});
    }
  }
  // Spans completed by cells created since the last refresh: a new cell
  // at postings position p completes a span exactly when p + 1 is a
  // multiple of the span width. Only those values are extended (postings
  // grow only at the tail, so existing nodes are unaffected).
  const size_t mask = span_width() - 1;
  for (size_t cell = built_cells_; cell < cols.num_cells; ++cell) {
    const uint32_t* pos = &postings_pos[cell * num_dims];
    for (size_t d = 0; d < num_dims; ++d) {
      if (((pos[d] + size_t{1}) & mask) != 0) continue;
      const uint32_t value = coords[cell][d];
      AppendSpans(dims[d].Postings(value), &per_dim_[d][value], &jobs);
    }
  }
  MergeNodes(cols, jobs);
  Finish(cols, version);
}

RollupIndex::ValueSpans RollupIndex::SpansFor(size_t dim,
                                              uint32_t value) const {
  ValueSpans out;
  if (!built_ || dim >= per_dim_.size()) return out;
  auto it = per_dim_[dim].find(value);
  if (it == per_dim_[dim].end() || it->second.empty()) return out;
  out.nodes = &it->second;
  out.covered = it->second.size() << span_log2_;
  return out;
}

}  // namespace msketch
