// Per-writer ingest shard: the lock-free write side of the streaming
// ingest engine (see src/ingest/README.md for the full protocol).
//
// A shard owns a small pool of fixed-capacity DeltaChunks (flat
// columnar cell deltas, core/delta_chunk.h) and two bounded SPSC rings:
// a FULL ring carrying sealed chunks to the epoch publisher and a FREE
// ring carrying recycled chunks back. Writers fill the current chunk —
// a flat-table slot probe plus one buffered store per row, with the
// power chains running batched through the shared AccumulateBatch
// kernel — and hand it over with a release store. No std::mutex exists
// anywhere in this class; the only writer-side waiting is backpressure
// (spin-then-yield) when the publisher falls behind and the FREE ring
// is empty.
//
// Ownership protocol (the parked token). `parked_` holds one of:
//
//   chunk pointer  the current working chunk, parked: a writer may
//                  claim it (CAS -> kHeld) and the publisher may steal
//                  it (CAS -> nullptr);
//   kHeld          a writer is mid-append; the publisher waits briefly
//                  or gives up (those rows ride the next epoch);
//   nullptr        no working chunk; the next writer pops a fresh one
//                  from the FREE ring.
//
// The CAS acquire/release chain serializes writers (any thread may
// append to any shard) and carries the happens-before edges that make
// the chunk contents, the slot directory, and the ring index caches
// race-free without locks.
//
// Backpressure: when a seal finds the FREE ring empty the writer spins
// (pause), then yields, until the publisher recycles a chunk. The
// episode and the rows riding on the stalled call are counted in
// stats() — appends never drop rows and never allocate past the pool.
//
// Determinism: within a shard, each cell's values accumulate in arrival
// order into one slot per chunk, and the fold kernel is bit-identical
// to an in-order Accumulate loop — so a drained delta matches a
// single-threaded sketch fed the same per-cell value sequence, exactly,
// whenever the cell's stream lands in one chunk (see README for the
// multi-chunk FP-reassociation caveat).
#ifndef MSKETCH_INGEST_INGEST_SHARD_H_
#define MSKETCH_INGEST_INGEST_SHARD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/delta_chunk.h"
#include "core/moments_sketch.h"
#include "cube/cube_types.h"
#include "cube/epoch_delta.h"
#include "ingest/spsc_ring.h"

namespace msketch {

/// One encoded row for the batched append paths.
struct IngestRow {
  CubeCoords coords;
  double value = 0.0;
};

/// Writer/hand-off counters, readable while writers run (all relaxed).
struct IngestShardStats {
  uint64_t rows_appended = 0;
  /// Rows whose append stalled waiting for a free chunk (each stalled
  /// call counts the rows it was carrying).
  uint64_t rows_backpressured = 0;
  /// Distinct ring-full wait episodes.
  uint64_t backpressure_events = 0;
  uint64_t chunks_sealed = 0;
  uint64_t chunks_drained = 0;
  /// Peak FULL-ring occupancy observed at seal time.
  uint64_t full_ring_high_water = 0;
  /// Drains that found the working chunk held by a mid-append writer
  /// and left it for the next epoch.
  uint64_t steal_giveups = 0;
  /// Backpressure waits that exhausted the stall budget (the append
  /// returned kDeadlineExceeded instead of spinning forever against a
  /// dead or wedged publisher).
  uint64_t deadline_events = 0;
  /// Rows carried by those failed appends (not appended; the caller
  /// must retry or drop them).
  uint64_t rows_deadline_failed = 0;
};

class IngestShard {
 public:
  /// Distinct cells a chunk can hold before the writer must seal it.
  static constexpr size_t kDefaultChunkCells = 2048;
  /// Chunks in the shard pool (working set + in-flight + recycling).
  static constexpr size_t kDefaultChunksPerShard = 4;
  /// Default backpressure stall budget: generous enough that a merely
  /// slow publisher never trips it, finite so a dead one turns a silent
  /// hang into kDeadlineExceeded.
  static constexpr std::chrono::milliseconds kDefaultStallBudget{10000};

  /// `batch_size`: pending values buffered per cell before a flush
  /// through the AccumulateBatch kernel (also the drain-time flush
  /// granularity). `chunk_cells`/`chunks` bound the shard's memory:
  /// appends backpressure rather than allocate past the pool.
  /// `stall_budget` bounds one append's backpressure wait (<= 0 waits
  /// forever, the pre-budget behavior). `kll_k` > 0 dual-writes every
  /// row into a per-cell KLL rank sketch alongside the moment state
  /// (the router's fallback backend); 0 keeps the moments-only path.
  IngestShard(size_t num_dims, int k, size_t batch_size,
              size_t chunk_cells = kDefaultChunkCells,
              size_t chunks = kDefaultChunksPerShard,
              std::chrono::milliseconds stall_budget = kDefaultStallBudget,
              int kll_k = 0);

  IngestShard(const IngestShard&) = delete;
  IngestShard& operator=(const IngestShard&) = delete;

  // Appends buffer rows into the working chunk. They fail only with
  // kDeadlineExceeded, when backpressure outlasts the stall budget
  // because no drainer is recycling chunks (publisher stopped, wedged,
  // or never started); the failed call's rows are NOT appended, and
  // rows already buffered by earlier calls are unaffected.

  /// Buffers one row into the cell at `coords`.
  Status Append(const CubeCoords& coords, double value);

  /// Buffers `n` rows for one cell — one directory probe and one token
  /// acquisition for the whole run (pre-grouped micro-batches are the
  /// high-rate ingest fast path).
  Status AppendBatch(const CubeCoords& coords, const double* values, size_t n);

  /// Buffers `n` mixed-cell rows under ONE token acquisition, with a
  /// last-cell memo that skips the directory probe for consecutive
  /// same-cell rows. Semantically identical to `n` Append calls (same
  /// per-cell value order). On a stall-budget failure, rows before the
  /// failure point stay appended; the error reports the dropped count.
  Status AppendRows(const IngestRow* rows, size_t n);

  /// Publisher side: pops every sealed chunk from the FULL ring, steals
  /// the parked working chunk (bounded wait if a writer holds it —
  /// give-ups ride the next drain), orders the chunks by service entry,
  /// appends each chunk's non-empty slots to `out` as cells (the slot's
  /// coordinates, its moment row copied straight from the chunk's
  /// columns, and its KLL delta when the shard dual-writes), and
  /// recycles the chunks through the FREE ring. No sketch is built per
  /// slot. Writers never stall on a drain. Callers must serialize
  /// Drain() against itself (the publisher's publish lock does; tests
  /// call it single-threaded).
  void Drain(EpochDelta* out);

  /// Rows appended so far (relaxed; readable while writers run). Rows
  /// are counted before the chunk carrying them can publish, so
  /// published rows never exceed this.
  uint64_t rows_appended() const {
    return rows_appended_.load(std::memory_order_relaxed);
  }

  IngestShardStats stats() const;

  size_t num_dims() const { return num_dims_; }
  int k() const { return k_; }
  size_t chunk_cells() const { return chunk_cells_; }
  size_t num_chunks() const { return pool_.size(); }

 private:
  /// The token-held sentinel (any non-chunk, non-null pointer).
  DeltaChunk* Held() const {
    return const_cast<DeltaChunk*>(
        reinterpret_cast<const DeltaChunk*>(&held_marker_));
  }

  /// Claims the writer token, spinning while another writer holds it.
  /// Returns the current working chunk, or nullptr if there is none
  /// (fresh shard, or the publisher stole it).
  DeltaChunk* AcquireCurrent();
  /// Parks `chunk` as the working chunk and releases the token.
  void Park(DeltaChunk* chunk);
  /// Publisher side of the token: nullptr if no chunk is parked or a
  /// writer held it past the bounded wait.
  DeltaChunk* StealParked();

  /// Pops a fresh chunk (backpressure-spinning if the FREE ring is
  /// empty), stamps its service session, and clears the directory.
  /// Token must be held. Returns nullptr when the wait exceeds the
  /// stall budget (the caller surfaces kDeadlineExceeded).
  DeltaChunk* TakeFresh(size_t rows_at_stake);
  /// The kDeadlineExceeded status for a failed append of `dropped` rows.
  Status StallError(size_t dropped) const;
  /// Folds `chunk` and pushes it onto the FULL ring, first flushing any
  /// rows this call pushed into it but has not yet counted.
  void Seal(DeltaChunk* chunk, uint64_t* uncounted);
  /// Directory lookup for `coords` in the working chunk, sealing and
  /// replacing the chunk when a new cell finds it full.
  size_t SlotOf(DeltaChunk** chunk, const CubeCoords& coords,
                size_t rows_at_stake, uint64_t* uncounted);

  // Flat open-addressed directory over the working chunk's slots:
  // entry = (hash tag << 32) | (slot + 1), 0 = empty. Sized for load
  // factor <= 1/2 at a full chunk, cleared on every chunk switch.
  // Token-protected, like every non-atomic member below it.
  size_t DirFind(DeltaChunk* chunk, const CubeCoords& coords, uint64_t hash);
  void DirInsert(uint64_t hash, size_t slot);

  const size_t num_dims_;
  const int k_;
  const size_t batch_size_;
  const size_t chunk_cells_;
  const std::chrono::milliseconds stall_budget_;

  std::vector<std::unique_ptr<DeltaChunk>> pool_;
  SpscRing<DeltaChunk*> full_ring_;
  SpscRing<DeltaChunk*> free_ring_;
  std::atomic<DeltaChunk*> parked_{nullptr};

  // Token-protected writer state.
  std::vector<uint64_t> dir_;
  size_t dir_mask_ = 0;
  uint64_t next_session_ = 1;

  std::atomic<uint64_t> rows_appended_{0};
  std::atomic<uint64_t> rows_backpressured_{0};
  std::atomic<uint64_t> backpressure_events_{0};
  std::atomic<uint64_t> chunks_sealed_{0};
  std::atomic<uint64_t> chunks_drained_{0};
  std::atomic<uint64_t> full_ring_high_water_{0};
  std::atomic<uint64_t> steal_giveups_{0};
  std::atomic<uint64_t> deadline_events_{0};
  std::atomic<uint64_t> rows_deadline_failed_{0};

  static const char held_marker_;
};

}  // namespace msketch

#endif  // MSKETCH_INGEST_INGEST_SHARD_H_
