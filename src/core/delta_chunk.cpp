#include "core/delta_chunk.h"

#include <algorithm>
#include <limits>

#include "core/accumulate_kernel.h"

namespace msketch {
namespace {

// Column-major lane indexing: order i lives at offset i * num_slots
// from the slot's base pointer.
struct StrideIdx {
  size_t stride;
  size_t operator()(int i) const { return static_cast<size_t>(i) * stride; }
};

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

DeltaChunk::DeltaChunk(int k, size_t capacity, size_t batch_size, int kll_k)
    : k_(k), capacity_(capacity), batch_size_(batch_size), kll_k_(kll_k) {
  MSKETCH_CHECK(k >= 1 && k <= 64);
  MSKETCH_CHECK(capacity >= 1);
  MSKETCH_CHECK(batch_size >= 1);
  if (kll_k_ > 0) {
    klls_.reserve(capacity);
    for (size_t s = 0; s < capacity; ++s) klls_.emplace_back(kll_k_);
  }
  lanes_.assign(2 * static_cast<size_t>(k) * capacity, 0.0);
  pow_cols_.resize(k);
  log_cols_.resize(k);
  for (int i = 0; i < k; ++i) {
    pow_cols_[i] = lanes_.data() + static_cast<size_t>(i) * capacity;
    log_cols_[i] = lanes_.data() + static_cast<size_t>(k + i) * capacity;
  }
  counts_.assign(capacity, 0);
  log_counts_.assign(capacity, 0);
  mins_.assign(capacity, kInf);
  maxs_.assign(capacity, -kInf);
  coords_.resize(capacity);
  pending_.assign(capacity * batch_size, 0.0);
  pending_len_.assign(capacity, 0);
}

void DeltaChunk::FoldPending(size_t slot) {
  uint32_t& len = pending_len_[slot];
  if (len == 0) return;
  internal::AccumulateBatchInto(
      k_, &counts_[slot], &log_counts_[slot], &mins_[slot], &maxs_[slot],
      lanes_.data() + slot, StrideIdx{capacity_},
      lanes_.data() + static_cast<size_t>(k_) * capacity_ + slot,
      StrideIdx{capacity_}, pending_.data() + slot * batch_size_, len);
  len = 0;
}

void DeltaChunk::PushRun(size_t slot, const double* values, size_t n) {
  MSKETCH_DCHECK(slot < used_);
  if (n == 0) return;
  rows_ += n;
  if (kll_k_ > 0) klls_[slot].AccumulateBatch(values, n);
  uint32_t& len = pending_len_[slot];
  double* tail = pending_.data() + slot * batch_size_;
  size_t i = 0;
  if (len > 0) {
    while (i < n && len < batch_size_) tail[len++] = values[i++];
    if (len == batch_size_) FoldPending(slot);
  }
  if (i < n) {
    const size_t whole = ((n - i) / batch_size_) * batch_size_;
    if (whole > 0) {
      internal::AccumulateBatchInto(
          k_, &counts_[slot], &log_counts_[slot], &mins_[slot], &maxs_[slot],
          lanes_.data() + slot, StrideIdx{capacity_},
          lanes_.data() + static_cast<size_t>(k_) * capacity_ + slot,
          StrideIdx{capacity_}, values + i, whole);
      i += whole;
    }
    for (; i < n; ++i) tail[len++] = values[i];
  }
}

void DeltaChunk::FoldAll() {
  for (size_t slot = 0; slot < used_; ++slot) FoldPending(slot);
}

FlatMomentColumns DeltaChunk::View() const {
  FlatMomentColumns cols;
  cols.k = k_;
  cols.num_cells = used_;
  cols.power_sums = pow_cols_.data();
  cols.log_sums = log_cols_.data();
  cols.counts = counts_.data();
  cols.log_counts = log_counts_.data();
  cols.mins = mins_.data();
  cols.maxs = maxs_.data();
  return cols;
}

void DeltaChunk::Reset() {
  for (int i = 0; i < 2 * k_; ++i) {
    std::fill_n(lanes_.data() + static_cast<size_t>(i) * capacity_, used_,
                0.0);
  }
  std::fill_n(counts_.data(), used_, uint64_t{0});
  std::fill_n(log_counts_.data(), used_, uint64_t{0});
  std::fill_n(mins_.data(), used_, kInf);
  std::fill_n(maxs_.data(), used_, -kInf);
  std::fill_n(pending_len_.data(), used_, uint32_t{0});
  // Reset() gives each used sketch a fresh sketch's state (zeroed coin
  // included), so every chunk reuse is deterministic; level 0 keeps its
  // buffer.
  for (size_t s = 0; s < used_ && kll_k_ > 0; ++s) klls_[s].Reset();
  used_ = 0;
  rows_ = 0;
  session_ = 0;
}

}  // namespace msketch
