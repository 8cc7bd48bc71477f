#include "core/moments_sketch.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "core/accumulate_kernel.h"
#include "core/simd_reduce.h"

namespace msketch {
namespace {

// Unit-stride column indexing: the sketch's member vectors are dense
// order-major arrays, so the kernel's idx(i) is the identity.
struct UnitIdx {
  size_t operator()(int i) const { return static_cast<size_t>(i); }
};

}  // namespace

MomentsSketch::MomentsSketch(int k) : k_(k) {
  MSKETCH_CHECK(k >= 1 && k <= 64);
  power_sums_.assign(k, 0.0);
  log_sums_.assign(k, 0.0);
}

void MomentsSketch::Accumulate(double x) {
  internal::AccumulateOneInto(k_, &count_, &log_count_, &min_, &max_,
                              power_sums_.data(), UnitIdx{}, log_sums_.data(),
                              UnitIdx{}, x);
}

void MomentsSketch::AccumulateBatch(const double* xs, size_t n) {
  // The shared 4-lane kernel (core/accumulate_kernel.h), instantiated at
  // unit stride: identical code to the pre-extraction loop, and the same
  // per-column addend sequence as scalar Accumulate — hence bit-identical
  // to an in-order element loop.
  internal::AccumulateBatchInto(k_, &count_, &log_count_, &min_, &max_,
                                power_sums_.data(), UnitIdx{},
                                log_sums_.data(), UnitIdx{}, xs, n);
}

Status MomentsSketch::Merge(const MomentsSketch& other) {
  if (other.k_ != k_) {
    return Status::InvalidArgument("MomentsSketch: mismatched order k");
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  log_count_ += other.log_count_;
  for (int i = 0; i < k_; ++i) {
    power_sums_[i] += other.power_sums_[i];
    log_sums_[i] += other.log_sums_[i];
  }
  return Status::OK();
}

Status MomentsSketch::Subtract(const MomentsSketch& other) {
  if (other.k_ != k_) {
    return Status::InvalidArgument("MomentsSketch: mismatched order k");
  }
  if (other.count_ > count_ || other.log_count_ > log_count_) {
    return Status::InvalidArgument(
        "MomentsSketch: subtracting more elements than present");
  }
  count_ -= other.count_;
  log_count_ -= other.log_count_;
  for (int i = 0; i < k_; ++i) {
    power_sums_[i] -= other.power_sums_[i];
    log_sums_[i] -= other.log_sums_[i];
  }
  // Same guards as SubtractFlat, so the object and columnar turnstile
  // paths stay bit-identical step for step.
  ApplyCancellationGuards();
  return Status::OK();
}

Status MomentsSketch::MergeFlat(const FlatMomentColumns& cols,
                                const uint32_t* cell_ids, size_t n) {
  if (cols.k != k_) {
    return Status::InvalidArgument("MergeFlat: mismatched order k");
  }
  if (n == 0) return Status::OK();
  for (size_t j = 0; j < n; ++j) {
    if (cell_ids[j] >= cols.num_cells) {
      return Status::OutOfRange("MergeFlat: cell id out of range");
    }
  }
  // Cell-outer, order-inner: the k accumulators form independent FP
  // dependency chains (same instruction-level parallelism as per-object
  // Merge), while each column's additions still happen in id order — so
  // the result is bit-identical to per-object merges in the same order.
  double* power = power_sums_.data();
  double* logs = log_sums_.data();
  uint64_t count = 0, log_count = 0;
  double mn = min_, mx = max_;
  for (size_t j = 0; j < n; ++j) {
    const uint32_t id = cell_ids[j];
    for (int i = 0; i < k_; ++i) power[i] += cols.power_sums[i][id];
    for (int i = 0; i < k_; ++i) logs[i] += cols.log_sums[i][id];
    count += cols.counts[id];
    log_count += cols.log_counts[id];
    mn = std::min(mn, cols.mins[id]);
    mx = std::max(mx, cols.maxs[id]);
  }
  count_ += count;
  log_count_ += log_count;
  min_ = mn;
  max_ = mx;
  return Status::OK();
}

Status MomentsSketch::MergeFlatRange(const FlatMomentColumns& cols,
                                     size_t begin, size_t end) {
  if (cols.k != k_) {
    return Status::InvalidArgument("MergeFlatRange: mismatched order k");
  }
  if (begin > end || end > cols.num_cells) {
    return Status::OutOfRange("MergeFlatRange: bad cell range");
  }
  // Unit-stride streams over every column, cell-outer for ILP (see
  // MergeFlat); per-column addition order is ascending cell id.
  double* power = power_sums_.data();
  double* logs = log_sums_.data();
  uint64_t count = 0, log_count = 0;
  double mn = min_, mx = max_;
  for (size_t j = begin; j < end; ++j) {
    for (int i = 0; i < k_; ++i) power[i] += cols.power_sums[i][j];
    for (int i = 0; i < k_; ++i) logs[i] += cols.log_sums[i][j];
    count += cols.counts[j];
    log_count += cols.log_counts[j];
    mn = std::min(mn, cols.mins[j]);
    mx = std::max(mx, cols.maxs[j]);
  }
  count_ += count;
  log_count_ += log_count;
  min_ = mn;
  max_ = mx;
  return Status::OK();
}

Status MomentsSketch::SubtractFlat(const FlatMomentColumns& cols,
                                   const uint32_t* cell_ids, size_t n) {
  if (cols.k != k_) {
    return Status::InvalidArgument("SubtractFlat: mismatched order k");
  }
  uint64_t count = 0, log_count = 0;
  for (size_t j = 0; j < n; ++j) {
    if (cell_ids[j] >= cols.num_cells) {
      return Status::OutOfRange("SubtractFlat: cell id out of range");
    }
    count += cols.counts[cell_ids[j]];
    log_count += cols.log_counts[cell_ids[j]];
  }
  if (count > count_ || log_count > log_count_) {
    return Status::InvalidArgument(
        "SubtractFlat: subtracting more elements than present");
  }
  double* power = power_sums_.data();
  double* logs = log_sums_.data();
  for (size_t j = 0; j < n; ++j) {
    const uint32_t id = cell_ids[j];
    for (int i = 0; i < k_; ++i) power[i] -= cols.power_sums[i][id];
    for (int i = 0; i < k_; ++i) logs[i] -= cols.log_sums[i][id];
  }
  count_ -= count;
  log_count_ -= log_count;
  ApplyCancellationGuards();
  return Status::OK();
}

Status MomentsSketch::MergeFlatRangeFast(const FlatMomentColumns& cols,
                                         size_t begin, size_t end) {
  if (cols.k != k_) {
    return Status::InvalidArgument("MergeFlatRangeFast: mismatched order k");
  }
  if (begin > end || end > cols.num_cells) {
    return Status::OutOfRange("MergeFlatRangeFast: bad cell range");
  }
  const size_t n = end - begin;
  if (n == 0) return Status::OK();
  // Column-major: each column is one vectorized unit-stride reduction
  // into a register sum, folded into the sketch with a single add — no
  // per-cell store/reload of the accumulators, and one prefetch-friendly
  // stream at a time.
  for (int i = 0; i < k_; ++i) {
    power_sums_[i] += simd::ReduceAddRange(cols.power_sums[i] + begin, n);
  }
  for (int i = 0; i < k_; ++i) {
    log_sums_[i] += simd::ReduceAddRange(cols.log_sums[i] + begin, n);
  }
  uint64_t count = 0, log_count = 0;
  for (size_t j = begin; j < end; ++j) count += cols.counts[j];
  for (size_t j = begin; j < end; ++j) log_count += cols.log_counts[j];
  count_ += count;
  log_count_ += log_count;
  double mn, mx;
  simd::ReduceMinMaxRange(cols.mins + begin, n, &mn, &mx);
  min_ = std::min(min_, mn);
  simd::ReduceMinMaxRange(cols.maxs + begin, n, &mn, &mx);
  max_ = std::max(max_, mx);
  return Status::OK();
}

Status MomentsSketch::MergeFlatFast(const FlatMomentColumns& cols,
                                    const uint32_t* cell_ids, size_t n) {
  if (cols.k != k_) {
    return Status::InvalidArgument("MergeFlatFast: mismatched order k");
  }
  if (n == 0) return Status::OK();
  for (size_t j = 0; j < n; ++j) {
    if (cell_ids[j] >= cols.num_cells) {
      return Status::OutOfRange("MergeFlatFast: cell id out of range");
    }
  }
  for (int i = 0; i < k_; ++i) {
    power_sums_[i] += simd::ReduceAddGather(cols.power_sums[i], cell_ids, n);
  }
  for (int i = 0; i < k_; ++i) {
    log_sums_[i] += simd::ReduceAddGather(cols.log_sums[i], cell_ids, n);
  }
  uint64_t count = 0, log_count = 0;
  double mn = min_, mx = max_;
  for (size_t j = 0; j < n; ++j) {
    const uint32_t id = cell_ids[j];
    count += cols.counts[id];
    log_count += cols.log_counts[id];
    mn = std::min(mn, cols.mins[id]);
    mx = std::max(mx, cols.maxs[id]);
  }
  count_ += count;
  log_count_ += log_count;
  min_ = mn;
  max_ = mx;
  return Status::OK();
}

Status MomentsSketch::SubtractFlatFast(const FlatMomentColumns& cols,
                                       const uint32_t* cell_ids, size_t n) {
  if (cols.k != k_) {
    return Status::InvalidArgument("SubtractFlatFast: mismatched order k");
  }
  uint64_t count = 0, log_count = 0;
  for (size_t j = 0; j < n; ++j) {
    if (cell_ids[j] >= cols.num_cells) {
      return Status::OutOfRange("SubtractFlatFast: cell id out of range");
    }
    count += cols.counts[cell_ids[j]];
    log_count += cols.log_counts[cell_ids[j]];
  }
  if (count > count_ || log_count > log_count_) {
    return Status::InvalidArgument(
        "SubtractFlatFast: subtracting more elements than present");
  }
  // One lane-structured sum of the subtrahend per column, then a single
  // subtract — the complement-plan analogue of MergeFlatFast.
  for (int i = 0; i < k_; ++i) {
    power_sums_[i] -= simd::ReduceAddGather(cols.power_sums[i], cell_ids, n);
  }
  for (int i = 0; i < k_; ++i) {
    log_sums_[i] -= simd::ReduceAddGather(cols.log_sums[i], cell_ids, n);
  }
  count_ -= count;
  log_count_ -= log_count;
  ApplyCancellationGuards();
  return Status::OK();
}

void MomentsSketch::ApplyCancellationGuards() {
  if (count_ == 0) {
    std::fill(power_sums_.begin(), power_sums_.end(), 0.0);
    std::fill(log_sums_.begin(), log_sums_.end(), 0.0);
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
    return;
  }
  if (log_count_ == 0) {
    std::fill(log_sums_.begin(), log_sums_.end(), 0.0);
  }
  // power_sums_[i] holds the exponent-(i+1) sum, so odd i is an even
  // power: a sum of non-negative terms that only cancellation noise can
  // drive negative.
  for (int i = 1; i < k_; i += 2) {
    if (power_sums_[i] < 0.0) power_sums_[i] = 0.0;
    if (log_sums_[i] < 0.0) log_sums_[i] = 0.0;
  }
}

void MomentsSketch::SetRange(double min, double max) {
  MSKETCH_CHECK(min <= max);
  min_ = min;
  max_ = max;
}

std::vector<double> MomentsSketch::StandardMoments() const {
  std::vector<double> mu(k_ + 1, 0.0);
  mu[0] = 1.0;
  if (count_ == 0) return mu;
  const double inv = 1.0 / static_cast<double>(count_);
  for (int i = 0; i < k_; ++i) mu[i + 1] = power_sums_[i] * inv;
  return mu;
}

std::vector<double> MomentsSketch::LogMoments() const {
  std::vector<double> nu(k_ + 1, 0.0);
  nu[0] = 1.0;
  if (log_count_ == 0) return nu;
  const double inv = 1.0 / static_cast<double>(log_count_);
  for (int i = 0; i < k_; ++i) nu[i + 1] = log_sums_[i] * inv;
  return nu;
}

size_t MomentsSketch::SizeBytes() const {
  // min, max, 2k sums (doubles) + count, log_count (u64) + k (u16).
  return (2 + 2 * static_cast<size_t>(k_)) * sizeof(double) +
         2 * sizeof(uint64_t) + sizeof(uint16_t);
}

SketchColumns::SketchColumns(const MomentsSketch& sketch) {
  for (int i = 0; i < sketch.k_; ++i) {
    power_[i] = &sketch.power_sums_[i];
    logs_[i] = &sketch.log_sums_[i];
  }
  cols_.k = sketch.k_;
  cols_.num_cells = 1;
  cols_.power_sums = power_;
  cols_.log_sums = logs_;
  cols_.counts = &sketch.count_;
  cols_.log_counts = &sketch.log_count_;
  cols_.mins = &sketch.min_;
  cols_.maxs = &sketch.max_;
}

void WriteMomentRow(const FlatMomentColumns& cols, size_t row,
                    BytesWriter* out) {
  out->PutU32(static_cast<uint32_t>(cols.k));
  out->PutU64(cols.counts[row]);
  out->PutU64(cols.log_counts[row]);
  out->PutDouble(cols.mins[row]);
  out->PutDouble(cols.maxs[row]);
  for (int i = 0; i < cols.k; ++i) out->PutDouble(cols.power_sums[i][row]);
  for (int i = 0; i < cols.k; ++i) out->PutDouble(cols.log_sums[i][row]);
}

Status ReadMomentOrder(BytesReader* in, int* k) {
  uint32_t order = 0;
  MSKETCH_RETURN_NOT_OK(in->GetU32(&order));
  if (order < 1 || order > 64) {
    return Status::Serialization("MomentsSketch: bad order k");
  }
  *k = static_cast<int>(order);
  return Status::OK();
}

Status ReadMomentState(BytesReader* in, const MutableFlatMomentColumns& cols,
                       size_t row) {
  MSKETCH_RETURN_NOT_OK(in->GetU64(&cols.counts[row]));
  MSKETCH_RETURN_NOT_OK(in->GetU64(&cols.log_counts[row]));
  MSKETCH_RETURN_NOT_OK(in->GetDouble(&cols.mins[row]));
  MSKETCH_RETURN_NOT_OK(in->GetDouble(&cols.maxs[row]));
  for (int i = 0; i < cols.k; ++i) {
    MSKETCH_RETURN_NOT_OK(in->GetDouble(&cols.power_sums[i][row]));
  }
  for (int i = 0; i < cols.k; ++i) {
    MSKETCH_RETURN_NOT_OK(in->GetDouble(&cols.log_sums[i][row]));
  }
  if (cols.log_counts[row] > cols.counts[row]) {
    return Status::Serialization("MomentsSketch: log_count > count");
  }
  return Status::OK();
}

void MomentsSketch::Serialize(BytesWriter* out) const {
  WriteMomentRow(SketchColumns(*this).cols(), 0, out);
}

Result<MomentsSketch> MomentsSketch::Deserialize(BytesReader* in) {
  int k = 0;
  MSKETCH_RETURN_NOT_OK(ReadMomentOrder(in, &k));
  MomentsSketch s(k);
  double* power[64];
  double* logs[64];
  for (int i = 0; i < k; ++i) {
    power[i] = &s.power_sums_[i];
    logs[i] = &s.log_sums_[i];
  }
  MutableFlatMomentColumns cols;
  cols.k = k;
  cols.num_cells = 1;
  cols.power_sums = power;
  cols.log_sums = logs;
  cols.counts = &s.count_;
  cols.log_counts = &s.log_count_;
  cols.mins = &s.min_;
  cols.maxs = &s.max_;
  MSKETCH_RETURN_NOT_OK(ReadMomentState(in, cols, 0));
  return s;
}

bool MomentsSketch::IdenticalTo(const MomentsSketch& other) const {
  if (k_ != other.k_ || count_ != other.count_ ||
      log_count_ != other.log_count_) {
    return false;
  }
  if (count_ > 0 && (min_ != other.min_ || max_ != other.max_)) return false;
  for (int i = 0; i < k_; ++i) {
    if (power_sums_[i] != other.power_sums_[i]) return false;
    if (log_sums_[i] != other.log_sums_[i]) return false;
  }
  return true;
}

}  // namespace msketch
