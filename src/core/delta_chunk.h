// DeltaChunk: the fixed-capacity unit of hand-off between an ingest
// writer and the epoch publisher (src/ingest/ingest_shard.h).
//
// A chunk is a small columnar cube fragment: up to `capacity` cells
// (slots), each holding the same flat moment state as one column slot
// of cube/cube_store.h — counts, min/max, and the 2k power/log-sum
// lanes laid out column-major (lane i of every slot is contiguous), so
// View() exposes the standard FlatMomentColumns shape and the publisher
// converts a slot into a delta sketch with one MergeFlat call.
//
// Each slot also owns a `batch_size`-deep pending-value tail. Push()
// buffers values there and folds a full tail into the slot's lanes
// through the shared 4-lane kernel (core/accumulate_kernel.h) — the
// exact addition sequence of MomentsSketch::AccumulateBatch, which is
// itself bit-identical to an in-order Accumulate loop. A slot that
// receives a cell's whole value stream therefore holds state
// bit-identical to a single-writer sketch fed the same values.
//
// Threading: a chunk is single-owner at any instant; ownership moves
// between writer and publisher through the shard's parked-token and
// ring protocol (release/acquire edges live there, not here). No member
// is atomic by design.
#ifndef MSKETCH_CORE_DELTA_CHUNK_H_
#define MSKETCH_CORE_DELTA_CHUNK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "cube/cube_types.h"
#include "core/moments_sketch.h"
#include "sketches/kll_sketch.h"

namespace msketch {

class DeltaChunk {
 public:
  /// `k`: sketch order; `capacity`: max distinct cells before the owner
  /// must seal; `batch_size`: pending-tail depth per slot (the
  /// AccumulateBatch flush granularity, as in the old mutex shard).
  /// `kll_k` > 0 dual-writes every row into a per-slot KLL rank sketch
  /// (the multi-backend router's fallback summary); 0 disables the side
  /// column entirely — no allocation, no hot-path branch cost beyond
  /// one predictable compare.
  DeltaChunk(int k, size_t capacity, size_t batch_size, int kll_k = 0);

  DeltaChunk(const DeltaChunk&) = delete;
  DeltaChunk& operator=(const DeltaChunk&) = delete;

  size_t capacity() const { return capacity_; }
  size_t used() const { return used_; }
  bool full() const { return used_ == capacity_; }
  /// Rows pushed since the last Reset (pending + folded).
  uint64_t rows() const { return rows_; }

  /// Shard-local service-entry sequence number: stamped by the writer
  /// when the chunk leaves the freelist, so the publisher can order a
  /// drain's chunks by the age of the rows they carry (ring FIFO order
  /// alone is not enough once the parked chunk is stolen mid-stream).
  uint64_t session() const { return session_; }
  void set_session(uint64_t s) { session_ = s; }

  /// Claims the next slot for `coords`. Caller checks full() first.
  size_t AddSlot(const CubeCoords& coords) {
    MSKETCH_DCHECK(used_ < capacity_);
    coords_[used_] = coords;  // copy-assign reuses the vector's storage
    return used_++;
  }

  const CubeCoords& SlotCoords(size_t slot) const {
    MSKETCH_DCHECK(slot < used_);
    return coords_[slot];
  }

  /// Buffers one value into the slot's pending tail, folding the tail
  /// through the batch kernel when it fills. The writer hot path: one
  /// store plus a counter bump per row.
  void Push(size_t slot, double value) {
    MSKETCH_DCHECK(slot < used_);
    uint32_t& len = pending_len_[slot];
    pending_[slot * batch_size_ + len] = value;
    ++rows_;
    if (kll_k_ > 0) klls_[slot].Accumulate(value);
    if (++len == batch_size_) FoldPending(slot);
  }

  /// Buffers a pre-grouped run of values for one slot, preserving the
  /// same per-cell fold boundaries as n Push calls: top up the pending
  /// tail, stream whole batches straight through the kernel, buffer the
  /// remainder. Bit-identical to the Push loop.
  void PushRun(size_t slot, const double* values, size_t n);

  /// Folds every slot's pending tail (pre-seal / pre-drain fixup).
  void FoldAll();

  /// Columnar view over slots [0, used()). Call FoldAll() first; the
  /// view reflects only folded state.
  FlatMomentColumns View() const;

  /// Clears all slot state for reuse (the freelist recycle path). Only
  /// the previously used slots are touched.
  void Reset();

  bool kll_enabled() const { return kll_k_ > 0; }
  /// The slot's rank sketch (KLL must be enabled); Reset() returns it to
  /// a fresh sketch's state.
  const KllSketch& SlotKll(size_t slot) const {
    MSKETCH_DCHECK(kll_k_ > 0 && slot < used_);
    return klls_[slot];
  }

 private:
  void FoldPending(size_t slot);

  const int k_;
  const size_t capacity_;
  const size_t batch_size_;
  const int kll_k_;
  size_t used_ = 0;
  uint64_t rows_ = 0;
  uint64_t session_ = 0;

  // Column-major lane storage: lanes_[i * capacity + slot] holds slot's
  // sum x^(i+1) for i < k, and sum log^(i-k+1) x for i >= k.
  std::vector<double> lanes_;
  std::vector<const double*> pow_cols_;  // k pointers into lanes_
  std::vector<const double*> log_cols_;  // k pointers into lanes_
  std::vector<uint64_t> counts_;
  std::vector<uint64_t> log_counts_;
  std::vector<double> mins_;
  std::vector<double> maxs_;
  std::vector<CubeCoords> coords_;

  // Per-slot pending tails: pending_[slot * batch_size .. +len).
  std::vector<double> pending_;
  std::vector<uint32_t> pending_len_;

  // Per-slot rank sketches (empty vector when kll_k_ == 0).
  std::vector<KllSketch> klls_;
};

}  // namespace msketch

#endif  // MSKETCH_CORE_DELTA_CHUNK_H_
