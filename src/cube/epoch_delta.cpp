#include "cube/epoch_delta.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/macros.h"

namespace msketch {

EpochDelta::EpochDelta(size_t num_dims, int k)
    : num_dims_(num_dims),
      k_(k),
      moments_(std::max(k, 1)),
      level_bounds_{0} {}

void EpochDelta::Clear() {
  coords_.clear();
  moments_.Clear();
  kll_of_.clear();
  kll_.clear();
  level_bounds_.resize(1);
  kll_items_.clear();
}

void EpochDelta::Append(const uint32_t* coords, const FlatMomentColumns& src,
                        size_t row, const KllView* kll) {
  MSKETCH_DCHECK(k_ >= 1 && src.k == k_);
  coords_.insert(coords_.end(), coords, coords + num_dims_);
  moments_.AppendRow(src, row);
  if (kll != nullptr) {
    AppendKll(*kll);
  } else {
    kll_of_.push_back(kNoKll);
  }
}

void EpochDelta::Append(const uint32_t* coords, const MomentsSketch& sketch,
                        const KllView* kll) {
  Append(coords, SketchColumns(sketch).cols(), 0, kll);
}

void EpochDelta::AppendKll(const KllView& view) {
  kll_of_.push_back(static_cast<uint32_t>(kll_.size()));
  kll_.push_back({view.header,
                  static_cast<uint32_t>(level_bounds_.size() - 1)});
  for (size_t h = 0; h < view.header.num_levels; ++h) {
    kll_items_.insert(kll_items_.end(), view.level_items[h],
                      view.level_items[h] + view.level_sizes[h]);
    level_bounds_.push_back(static_cast<uint32_t>(kll_items_.size()));
  }
}

Status EpochDelta::AppendSerialized(const uint32_t* coords, bool has_kll,
                                    BytesReader* in) {
  MSKETCH_DCHECK(k_ >= 1);
  // The row is read into one sketch's worth of locals, then appended
  // (push_back per column is cheaper than growing the slab by a row).
  uint64_t count = 0, log_count = 0;
  double mn = 0.0, mx = 0.0, power[64], logs[64];
  double* power_ptrs[64];
  double* log_ptrs[64];
  for (int i = 0; i < k_; ++i) {
    power_ptrs[i] = &power[i];
    log_ptrs[i] = &logs[i];
  }
  MutableFlatMomentColumns row;
  row.k = k_;
  row.num_cells = 1;
  row.power_sums = power_ptrs;
  row.log_sums = log_ptrs;
  row.counts = &count;
  row.log_counts = &log_count;
  row.mins = &mn;
  row.maxs = &mx;
  MSKETCH_RETURN_NOT_OK(ReadMomentState(in, row, 0));
  FlatMomentColumns read;
  read.k = k_;
  read.num_cells = 1;
  read.power_sums = power_ptrs;
  read.log_sums = log_ptrs;
  read.counts = &count;
  read.log_counts = &log_count;
  read.mins = &mn;
  read.maxs = &mx;
  coords_.insert(coords_.end(), coords, coords + num_dims_);
  moments_.AppendRow(read, 0);
  if (!has_kll) {
    kll_of_.push_back(kNoKll);
    return Status::OK();
  }
  kll_of_.push_back(static_cast<uint32_t>(kll_.size()));
  kll_.push_back({KllHeader(),
                  static_cast<uint32_t>(level_bounds_.size() - 1)});
  return ReadKll(in, &kll_.back().header, &kll_items_, &level_bounds_);
}

KllView EpochDelta::Kll(size_t i) const {
  MSKETCH_DCHECK(HasKll(i));
  const KllEntry& e = kll_[kll_of_[i]];
  KllView view;
  view.header = e.header;
  for (size_t h = 0; h < e.header.num_levels; ++h) {
    const uint32_t begin = level_bounds_[e.first_level + h];
    view.level_items[h] = kll_items_.data() + begin;
    view.level_sizes[h] = level_bounds_[e.first_level + h + 1] - begin;
  }
  return view;
}

MomentsSketch EpochDelta::CellSketch(size_t i) const {
  MomentsSketch sketch(k_);
  const uint32_t id = static_cast<uint32_t>(i);
  MSKETCH_CHECK(sketch.MergeFlat(Moments(), &id, 1).ok());
  return sketch;
}

void EpochDelta::AppendCellOf(const EpochDelta& src,
                              const FlatMomentColumns& src_moments, size_t i) {
  coords_.insert(coords_.end(), src.Coords(i), src.Coords(i) + num_dims_);
  moments_.AppendRow(src_moments, i);
  if (src.HasKll(i)) {
    AppendKll(src.Kll(i));
  } else {
    kll_of_.push_back(kNoKll);
  }
}

void EpochDelta::SortByCoords(EpochDelta* scratch) {
  const size_t n = size();
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), 0u);
  const size_t d = num_dims_;
  const uint32_t* keys = coords_.data();
  std::stable_sort(perm_.begin(), perm_.end(), [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(keys + a * d, keys + a * d + d,
                                        keys + b * d, keys + b * d + d);
  });
  bool sorted = true;
  for (size_t j = 0; j < n && sorted; ++j) sorted = perm_[j] == j;
  if (sorted) return;
  if (scratch->num_dims_ != num_dims_ || scratch->k_ != k_) {
    *scratch = EpochDelta(num_dims_, k_);
  }
  scratch->Clear();
  const FlatMomentColumns moments = Moments();
  for (uint32_t i : perm_) scratch->AppendCellOf(*this, moments, i);
  std::swap(coords_, scratch->coords_);
  std::swap(moments_, scratch->moments_);
  std::swap(kll_of_, scratch->kll_of_);
  std::swap(kll_, scratch->kll_);
  std::swap(level_bounds_, scratch->level_bounds_);
  std::swap(kll_items_, scratch->kll_items_);
}

}  // namespace msketch
