// Epoch publication for the streaming ingest engine: drains shard
// deltas into double-buffered immutable cube snapshots and swaps them
// in atomically, so queries run against a consistent cube while writers
// keep appending (see src/ingest/README.md for the consistency model).
//
// Mechanism. The publisher owns a small pool of CubeStore buffers
// (default two). Each Publish():
//
//   1. drains every shard's delta map (an O(1)-lock swap per shard) and
//      stable-sorts the combined batch by cell coordinates, so cells
//      are created in a deterministic order and same-cell deltas apply
//      in shard order;
//   2. takes a free buffer from the pool — a buffer is free once the
//      epoch that retired it has no readers left — and catches it up by
//      replaying every batch published since the buffer last left the
//      pool (one batch behind in steady state, the classic
//      double-buffer lag), one CubeStore::ApplyDeltas call per batch;
//   3. incrementally refreshes the buffer's rollup index (only the
//      spans covering dirty cells rebuild, column by column — CubeStore's
//      dirty-cell tracking does the bookkeeping);
//   4. publishes the buffer with an atomic shared_ptr swap.
//
// Reclamation is epoch-based via the snapshot handles themselves: every
// reader holds a shared_ptr whose deleter returns the buffer to the
// pool, so a retired buffer is recycled exactly when its last in-flight
// query finishes — queries never observe torn columns, and memory stays
// bounded at pool_size copies of the cube. The pointer swap is the only
// coupling between readers and the publisher; readers never block
// writers and vice versa.
//
// Lifetime rule: snapshot handles must be released before the publisher
// is destroyed (the destructor waits for all buffers to return).
#ifndef MSKETCH_INGEST_EPOCH_PUBLISHER_H_
#define MSKETCH_INGEST_EPOCH_PUBLISHER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/moments_sketch.h"
#include "cube/cube_store.h"
#include "cube/rollup_index.h"
#include "ingest/ingest_shard.h"
#include "obs/metrics.h"

namespace msketch {

/// Streaming ingest engine configuration (shared by IngestShard,
/// EpochPublisher, and StreamingCube).
struct IngestOptions {
  /// Writer shards. Throughput scales with shards when each writer
  /// thread appends to its own shard.
  size_t num_shards = 4;
  /// Per-cell pending-value buffer length before an AccumulateBatch
  /// flush inside the shard.
  size_t batch_size = 64;
  /// Distinct cells a shard's delta chunk holds before the writer seals
  /// it to the publisher ring. Size it at or above the expected
  /// per-shard working set: larger keeps each cell's epoch delta in one
  /// chunk (better batching, per-cell bit-identity on a single drain);
  /// smaller trades memory for more frequent hand-offs.
  size_t chunk_cells = IngestShard::kDefaultChunkCells;
  /// Chunk pool per shard (bounds shard memory). When sealed chunks
  /// exhaust the pool, appends backpressure (spin-then-yield) until the
  /// publisher recycles one — so a drainer must run (the background
  /// publisher or periodic Flush calls) whenever writers can outrun it.
  size_t chunks_per_shard = IngestShard::kDefaultChunksPerShard;
  /// Snapshot buffers in the publisher pool. Two gives the classic
  /// double buffer; more tolerates slower readers without stalling
  /// Publish at the cost of extra cube copies.
  size_t snapshot_buffers = 2;
  /// Build and incrementally refresh the rollup index on every
  /// published snapshot (unfiltered and single-dimension queries answer
  /// from pre-merged spans).
  bool build_rollup = true;
  RollupOptions rollup;
  /// Cadence of the background publisher thread (Start()).
  std::chrono::milliseconds epoch_interval{20};
  /// Bound on one append's backpressure wait when the chunk pool is
  /// exhausted and nothing is draining: past it the append fails with
  /// kDeadlineExceeded instead of spinning forever against a stopped or
  /// wedged publisher. <= 0 waits forever (the pre-budget behavior).
  std::chrono::milliseconds backpressure_stall_budget =
      IngestShard::kDefaultStallBudget;
  /// Dual-write every row into a per-cell KLL rank sketch alongside the
  /// moment columns. This is what arms the multi-backend summary router:
  /// pathological cells (atomic, heavy-tailed, near-singular) degrade to
  /// deterministic rank certificates instead of failed solves. Costs one
  /// amortized-O(1) sketch update per row on the writer path and
  /// ~kll_k doubles per cell per snapshot buffer.
  bool enable_kll = false;
  /// Per-level KLL capacity when enable_kll is set (certified rank error
  /// ~= log2(n/k)/(2k) of the cell count).
  int kll_k = 64;
};

/// One published, immutable-while-published cube state. `epoch` is the
/// publish sequence number; `epoch_delta` is the merged sketch of the
/// rows that entered in this epoch. Readers hold the snapshot via shared_ptr; the
/// backing buffer is recycled when the last holder releases it.
struct CubeSnapshot {
  CubeSnapshot(size_t num_dims, int k)
      : store(num_dims, k), epoch_delta(k) {}

  uint64_t epoch = 0;
  CubeStore store;
  MomentsSketch epoch_delta;
  size_t buffer_index = 0;  // pool slot backing this snapshot

  uint64_t rows() const { return store.num_rows(); }
};

/// Publisher-side latency counters (stats(); milliseconds).
struct PublisherStats {
  uint64_t epochs_published = 0;
  /// Shard drain (ring sweep + chunk-to-delta conversion) of the most
  /// recent Publish, and the maximum observed.
  double last_drain_ms = 0.0;
  double max_drain_ms = 0.0;
  /// Whole Publish (drain + replay + rollup + swap), last and maximum.
  double last_publish_ms = 0.0;
  double max_publish_ms = 0.0;
  /// The two buffer-maintenance steps inside the most recent publish:
  /// replaying the missed delta batches into the buffer (ApplyDeltas),
  /// and building or refreshing its rollup index.
  double last_apply_ms = 0.0;
  double last_refresh_ms = 0.0;
  /// Durability hook (WAL append + fsync) of the most recent Publish,
  /// and the maximum — the write-ahead cost inside the publish path.
  double last_durability_ms = 0.0;
  double max_durability_ms = 0.0;
  /// Epochs whose durability hook failed: they published (availability
  /// first) but are NOT crash-durable until the next checkpoint.
  uint64_t durability_failures = 0;
  /// Full latency distributions behind the last/max scalars above: one
  /// observation per Publish for the shard drain, the whole publish,
  /// the durability hook, the batch replay and the rollup refresh
  /// (mergeable fixed-bucket histograms in seconds — a single mean hides
  /// drain stalls; these keep the tail). Scraped into the registry as
  /// msk_publisher_{drain,publish,durability,apply,refresh}_seconds.
  obs::HistogramSnapshot drain_hist;
  obs::HistogramSnapshot publish_hist;
  obs::HistogramSnapshot durability_hist;
  obs::HistogramSnapshot apply_hist;
  obs::HistogramSnapshot refresh_hist;
};

class EpochPublisher {
 public:
  using DeltaBatch = std::vector<IngestShard::DeltaCell>;
  /// Called after each non-empty publish, from the publishing thread,
  /// with the snapshot just made current.
  using EpochSink = std::function<void(const CubeSnapshot&)>;
  /// Called inside Publish with the drained batch BEFORE the epoch's
  /// snapshot becomes visible (write-ahead ordering: an epoch a query
  /// can observe has already been offered to the log). A non-OK return
  /// is counted and the publish proceeds — ingest availability is never
  /// held hostage to a failing disk; the durability layer re-bases at
  /// its next checkpoint.
  using DurabilityHook =
      std::function<Status(uint64_t epoch, const DeltaBatch& batch)>;

  /// `shards` are borrowed and must outlive the publisher. Publishes an
  /// empty epoch-0 snapshot immediately (without draining), so
  /// Current() is never null; rows already buffered in the shards enter
  /// at the first Publish().
  EpochPublisher(size_t num_dims, int k, const IngestOptions& options,
                 std::vector<IngestShard*> shards);
  /// Stops the background thread and waits for every outstanding
  /// snapshot handle to be released.
  ~EpochPublisher();

  EpochPublisher(const EpochPublisher&) = delete;
  EpochPublisher& operator=(const EpochPublisher&) = delete;

  /// Drains all shards and publishes one epoch. When the drain comes
  /// back empty the current snapshot already covers every appended row
  /// and is returned unchanged (no epoch is spent). Serialized against
  /// the background thread; safe to call concurrently with readers and
  /// writers.
  std::shared_ptr<const CubeSnapshot> Publish();

  /// The latest published snapshot (atomic pointer load; wait-free with
  /// respect to the publisher).
  std::shared_ptr<const CubeSnapshot> Current() const;

  /// Publish-loop thread control. Start is idempotent.
  void Start();
  void Stop();

  /// Must be set before Start() or concurrent Publish() calls. The
  /// sink runs on the publishing thread, serialized in epoch order; it
  /// may read the publisher (Current, lag_batches) but must not call
  /// Publish()/Flush() — that would re-enter the sink serialization.
  void SetEpochSink(EpochSink sink) { sink_ = std::move(sink); }

  /// Must be set before Start() or concurrent Publish() calls. Runs
  /// under the publish lock, so its latency (WAL fsync) extends the
  /// publish critical section — the price of write-ahead ordering.
  void SetDurabilityHook(DurabilityHook hook) { durability_ = std::move(hook); }

  /// Resets a freshly constructed publisher to a recovered state: every
  /// pool buffer becomes a copy of `store`, `epoch` becomes the applied
  /// and published epoch, and the next real epoch is `epoch` + 1. Only
  /// legal before the first Publish/Start and with no snapshot handles
  /// outstanding (recovery constructs the cube privately).
  Status Restore(uint64_t epoch, const CubeStore& store);

  uint64_t epochs_published() const {
    return epochs_published_.load(std::memory_order_relaxed);
  }

  /// Delta batches retained for buffers that have not replayed them yet
  /// (diagnostics; bounded by the pool size when publishing regularly).
  size_t lag_batches() const {
    std::lock_guard<std::mutex> lock(publish_mu_);
    return history_.size();
  }

  /// Drain/publish latency counters (serialized with Publish).
  PublisherStats stats() const {
    std::lock_guard<std::mutex> lock(publish_mu_);
    PublisherStats s = latency_;
    s.epochs_published = epochs_published_.load(std::memory_order_relaxed);
    s.drain_hist = drain_h_.Snapshot();
    s.publish_hist = publish_h_.Snapshot();
    s.durability_hist = durability_h_.Snapshot();
    s.apply_hist = apply_h_.Snapshot();
    s.refresh_hist = refresh_h_.Snapshot();
    return s;
  }

 private:
  std::unique_ptr<CubeSnapshot> TakeBuffer();
  void ReturnBuffer(CubeSnapshot* snap);
  /// Drains every shard and stable-sorts the combined batch by coords
  /// (stability keeps same-cell deltas in shard order).
  DeltaBatch DrainShards();
  void ApplyBatch(CubeStore* store, const DeltaBatch& batch);

  const size_t num_dims_;
  const int k_;
  const IngestOptions options_;
  std::vector<IngestShard*> shards_;

  // Buffer pool (FIFO, so every buffer cycles through publishes).
  // Buffers are mutated only between TakeBuffer and the publish swap;
  // pool_mu_/pool_cv_ carry the reader-to-publisher happens-before edge
  // when a buffer is recycled.
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::deque<std::unique_ptr<CubeSnapshot>> free_;
  size_t total_buffers_;

  // Publish state (guarded by publish_mu_): batches not yet replayed
  // into every buffer, and each buffer's applied-through epoch. Epoch 0
  // is the constructor's empty snapshot; real epochs start at 1.
  mutable std::mutex publish_mu_;
  uint64_t next_epoch_ = 1;
  std::deque<std::pair<uint64_t, DeltaBatch>> history_;
  std::vector<uint64_t> buffer_epoch_;
  PublisherStats latency_;  // epochs_published_ tracked separately
  // Per-Publish latency distributions (lock-free; snapshotted into
  // PublisherStats and scraped by the StreamingCube collector).
  obs::Histogram drain_h_{obs::HistogramUnit::kSeconds};
  obs::Histogram publish_h_{obs::HistogramUnit::kSeconds};
  obs::Histogram durability_h_{obs::HistogramUnit::kSeconds};
  obs::Histogram apply_h_{obs::HistogramUnit::kSeconds};
  obs::Histogram refresh_h_{obs::HistogramUnit::kSeconds};

  // The published snapshot; accessed via std::atomic_load/atomic_store.
  std::shared_ptr<const CubeSnapshot> published_;

  std::atomic<uint64_t> epochs_published_{0};
  // Serializes sink invocations in epoch order (see Publish).
  std::mutex sink_mu_;
  EpochSink sink_;
  DurabilityHook durability_;

  // Background publish loop.
  std::thread loop_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
};

/// The batch as DeltaRef views (borrowing `batch`), for ApplyDeltas and
/// the WAL record encoder. An empty KLL delta is left null, so the record
/// carries no rank sketch for the cell.
std::vector<DeltaRef> DeltaRefsOf(const EpochPublisher::DeltaBatch& batch);

}  // namespace msketch

#endif  // MSKETCH_INGEST_EPOCH_PUBLISHER_H_
