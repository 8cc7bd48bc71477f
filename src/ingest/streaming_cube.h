// StreamingCube: query-while-ingest façade over the streaming ingest
// engine (sharded writers + epoch-published snapshots).
//
// Writers append rows — dictionary-encoded coordinates plus a metric
// value — into per-shard delta buffers; the epoch publisher folds the
// deltas into immutable cube snapshots on a fixed cadence (or on
// Flush()); queries run the full static-cube machinery — planned
// QueryWhere, rollup spans, batched GROUP BY — against the latest
// published snapshot. Consistency contract (src/ingest/README.md):
//
//   * a query sees every row drained into the snapshot it runs on — a
//     consistent prefix of each shard's append stream, never a torn or
//     partially applied epoch;
//   * staleness is bounded by one epoch interval plus publish time;
//     Flush() publishes synchronously, after which queries see every
//     row appended before the Flush call;
//   * a fully drained StreamingCube holds the state of a single-writer
//     DataCube fed the same per-shard row streams: counts, min/max and
//     cell sets exactly, moment sums to FP re-association. Per-cell
//     bit-identity additionally needs each cell's values to reach the
//     cube as one in-order sequence — one shard per cell (the default
//     coordinate-hash routing) AND a single drain (epoch boundaries
//     split a cell's stream into separately-summed deltas) — or
//     exact-arithmetic data, for which any interleaving is
//     bit-identical.
//
// Thread safety: any number of writer threads (Append*), one or more
// query threads, plus the background publisher may run concurrently.
// Snapshot handles returned by Snapshot()/Flush() pin a buffer; release
// them before destroying the cube.
#ifndef MSKETCH_INGEST_STREAMING_CUBE_H_
#define MSKETCH_INGEST_STREAMING_CUBE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/moments_summary.h"
#include "cube/batch_query.h"
#include "cube/cube_store.h"
#include "cube/cube_types.h"
#include "cube/dictionary.h"
#include "cube/summary_router.h"
#include "ingest/epoch_publisher.h"
#include "ingest/ingest_shard.h"
#include "persist/durable_log.h"

namespace msketch {

class ReplicationSource;

/// Aggregated engine counters (StreamingCube::stats()): writer-side
/// hand-off behavior summed over shards, the dictionary's exclusive
/// intern count, and publisher drain/publish latency — enough to read
/// the scaling curve (backpressure means the publisher is the
/// bottleneck; a hot dict_exclusive_locks means the value universe is
/// still growing).
struct IngestStats {
  uint64_t rows_appended = 0;
  uint64_t rows_backpressured = 0;
  uint64_t backpressure_events = 0;
  uint64_t chunks_sealed = 0;
  uint64_t chunks_drained = 0;
  /// Max over shards of the FULL-ring occupancy high-water.
  uint64_t full_ring_high_water = 0;
  uint64_t steal_giveups = 0;
  /// Writer-path blocking-lock acquisitions: every mutex the encode or
  /// append path can take bumps this (currently only the dictionary
  /// intern lock). Zero over an interval == the writer hot path ran
  /// entirely lock-free.
  uint64_t dict_exclusive_locks = 0;
  /// Stall-budget expirations across shards (appends that returned
  /// kDeadlineExceeded) and the rows those calls failed to append.
  uint64_t deadline_events = 0;
  uint64_t rows_deadline_failed = 0;
  PublisherStats publisher;
};

class StreamingCube {
 public:
  /// The prototype fixes the sketch order and estimator options, as in
  /// DataCube<MomentsSummary>. The background publisher is NOT started;
  /// call StartPublisher() (or drive epochs manually via Flush()).
  StreamingCube(size_t num_dims, MomentsSummary prototype,
                IngestOptions options = IngestOptions());
  ~StreamingCube();

  StreamingCube(const StreamingCube&) = delete;
  StreamingCube& operator=(const StreamingCube&) = delete;

  // ------------------------------------------------------------ writers
  //
  // Appends fail only with kDeadlineExceeded, when backpressure outlasts
  // IngestOptions::backpressure_stall_budget because nothing is draining
  // (publisher stopped or wedged); the failed call's rows are not
  // appended.

  /// Appends one row, routing to a shard by coordinate hash. The hash
  /// routing makes every cell shard-affine, which keeps per-cell
  /// accumulation order deterministic no matter which thread appends.
  Status Append(const CubeCoords& coords, double value) {
    return AppendToShard(CubeCoordsHash()(coords) % shards_.size(), coords,
                         value);
  }

  /// Appends one row into an explicit shard (writer-per-shard setups).
  Status AppendToShard(size_t shard, const CubeCoords& coords, double value) {
    return shards_[shard]->Append(coords, value);
  }

  /// Appends a pre-grouped run of values for one cell (single hash
  /// probe; the high-rate path).
  Status AppendBatch(size_t shard, const CubeCoords& coords,
                     const double* values, size_t n) {
    return shards_[shard]->AppendBatch(coords, values, n);
  }

  /// Appends a run of encoded mixed-cell rows into one shard under a
  /// single shard-lock acquisition (IngestShard::AppendRows) — the
  /// high-rate path for writer-per-shard feeds that cannot pre-group
  /// rows by cell.
  Status AppendRowsToShard(size_t shard, const IngestRow* rows, size_t n) {
    return shards_[shard]->AppendRows(rows, n);
  }

  /// Appends encoded rows, routing each to its coordinate-hash shard.
  /// Rows for the same shard are delivered as one batch (per-cell order
  /// preserved), so the per-row lock cost amortizes across the batch.
  Status AppendRows(const IngestRow* rows, size_t n);

  /// Dictionary-encodes a row of string dimension values (interning new
  /// ones) and appends it.
  Status AppendRow(const std::vector<std::string>& dims, double value);

  /// Batch variant of AppendRow: encodes all `n` rows against one
  /// lock-free dictionary version, then appends via the batched shard
  /// path. A malformed row aborts the batch before any append; a
  /// stall-budget failure mid-batch leaves the rows appended before it.
  Status AppendRowBatch(const std::vector<std::vector<std::string>>& rows,
                        const double* values);

  /// Interns `dims` and returns the encoded coordinates (for callers
  /// that batch rows per cell before appending).
  Result<CubeCoords> EncodeRow(const std::vector<std::string>& dims);

  /// Batch encode. The fast path is lock-free: one acquire load of the
  /// current dictionary version covers the whole batch. Only when a row
  /// carries a never-seen value does the call take the intern lock —
  /// once for the entire batch — to publish a new version.
  Result<std::vector<CubeCoords>> EncodeRows(
      const std::vector<std::vector<std::string>>& rows);

  /// Encodes a string filter: empty string = unconstrained dimension.
  /// Unknown values yield an error (nothing to match).
  Result<CubeFilter> EncodeFilter(const std::vector<std::string>& dims) const;

  /// Decodes one dimension value id (thread-safe dictionary read).
  Result<std::string> DecodeValue(size_t dim, uint32_t id) const;

  // ------------------------------------------------------------- epochs

  /// Synchronously drains all shards and publishes a fresh snapshot
  /// covering every row appended before this call.
  std::shared_ptr<const CubeSnapshot> Flush() { return publisher_->Publish(); }

  /// The latest published snapshot. Hold the handle to run several
  /// queries against one consistent state.
  std::shared_ptr<const CubeSnapshot> Snapshot() const {
    return publisher_->Current();
  }

  /// Background epoch publication at options.epoch_interval.
  void StartPublisher() { publisher_->Start(); }
  void StopPublisher() { publisher_->Stop(); }

  /// Called after every non-empty publish with the new snapshot (e.g.
  /// the sliding-window pane feed). Set before StartPublisher().
  void SetEpochSink(EpochPublisher::EpochSink sink) {
    user_sink_ = std::move(sink);
  }

  // --------------------------------------------------------- durability
  //
  // See src/persist/README.md for the full protocol and the recovery
  // guarantees; src/ingest/README.md states the contract.

  /// Makes this cube crash-recoverable: commits a baseline (empty
  /// checkpoint + empty WAL) under `options.dir` and wires the epoch
  /// pipeline so every published epoch's delta batch is WAL-logged
  /// before it becomes visible, with periodic snapshot checkpoints.
  /// Only legal on a fresh cube (nothing appended or published) — an
  /// existing durable directory must go through Recover() instead.
  Status EnableDurability(const DurabilityOptions& options);

  /// Rebuilds a cube from `durability.dir`: loads the last checkpoint,
  /// replays the WAL tail (truncating torn or corrupt records), and
  /// re-opens the directory for continued durable ingest. The recovered
  /// cube's published state is bit-exact to the pre-crash cube at its
  /// last durable epoch. `prototype` and `num_dims` must match the
  /// recorded shape.
  static Result<std::unique_ptr<StreamingCube>> Recover(
      size_t num_dims, MomentsSummary prototype, IngestOptions options,
      const DurabilityOptions& durability, RecoveryStats* stats = nullptr);

  /// Tees every published epoch's delta batch (and the dictionary
  /// delta) into `source` so followers can replicate this cube, and
  /// wires the snapshot provider (a full checkpoint image of the
  /// current published state) for follower resyncs. `source` is
  /// borrowed and must outlive the cube. Composes with durability —
  /// the same publish hook feeds both — and, like the durable log,
  /// never blocks or fails a publish. Call before rows are appended.
  Status EnableReplication(ReplicationSource* source);

  /// True when EnableDurability (or Recover) wired a durable log.
  bool durable() const { return log_ != nullptr; }
  /// Durability counters (zero-value struct when not durable).
  DurabilityStats durability_stats() const {
    return log_ ? log_->stats() : DurabilityStats();
  }

  // ------------------------------------------------------------ queries
  //
  // Convenience wrappers that run against the latest snapshot. Each
  // call pins the snapshot for its own duration only; hold Snapshot()
  // yourself for multi-query consistency.

  MomentsSummary QueryWhere(const CubeFilter& filter,
                            CubeStore::QueryStats* stats = nullptr) const;

  // Quantile queries are certified: every answer over a non-empty
  // selection carries an error interval provably enclosing the true
  // quantile, assembled by the multi-backend summary router (moments
  // bounds, intersected with the KLL rank certificate when
  // IngestOptions::enable_kll dual-wrote one). Solver failures on
  // pathological cells degrade through atomic-fit -> KLL ->
  // bounds-midpoint instead of surfacing; the only non-OK status is an
  // empty selection/group. GROUP BY solves run as warm chains
  // (cube/batch_query.h). Uncertified estimates come from the
  // store-level functions on Snapshot()->store.
  CertifiedQuantile QueryQuantileCertified(const CubeFilter& filter,
                                           double phi,
                                           RouterStats* stats = nullptr) const;
  std::vector<GroupQuantilesCertified> GroupByQuantilesCertified(
      const std::vector<size_t>& group_dims, const std::vector<double>& phis,
      const RouterOptions& options, RouterStats* stats = nullptr) const;
  /// Overload defaulting the router's maxent options to the cube's
  /// estimator options (can't be a default argument — it depends on
  /// member state).
  std::vector<GroupQuantilesCertified> GroupByQuantilesCertified(
      const std::vector<size_t>& group_dims,
      const std::vector<double>& phis) const;
  std::vector<GroupThreshold> GroupByThreshold(
      const std::vector<size_t>& group_dims, double phi, double t,
      const BatchOptions& options = BatchOptions(),
      BatchStats* stats = nullptr) const;

  // --------------------------------------------------------- accounting

  /// Rows appended across all shards (includes rows not yet published).
  uint64_t rows_appended() const;
  /// Rows covered by the latest published snapshot.
  uint64_t rows_published() const { return Snapshot()->rows(); }
  /// The staleness bound: appended-but-not-yet-published rows. Zero
  /// right after Flush() (with writers paused).
  uint64_t staleness_rows() const {
    // Read the published count first: rows only move appended ->
    // published, so this ordering can only over-report staleness, never
    // report published rows as missing.
    const uint64_t published = rows_published();
    return rows_appended() - published;
  }
  uint64_t last_published_epoch() const { return Snapshot()->epoch; }

  size_t num_dims() const { return num_dims_; }
  size_t num_shards() const { return shards_.size(); }
  int k() const { return prototype_k_; }
  const MaxEntOptions& estimator_options() const { return options_maxent_; }

  /// Engine counters aggregated across shards, the dictionary, and the
  /// publisher. Safe to call while writers and the publisher run.
  IngestStats stats() const;
  /// One shard's counters (diagnostics; shard load balance).
  IngestShardStats shard_stats(size_t shard) const {
    return shards_[shard]->stats();
  }

 private:
  /// An immutable dictionary version. Readers load the current version
  /// with one acquire load and use it lock-free; interning publishes a
  /// copied successor (read-copy-update). Retired versions stay alive
  /// in dict_versions_ until the cube is destroyed — versions are tiny
  /// next to the cube and this keeps reader lifetimes trivial (no
  /// hazard pointers, no reader registration).
  struct DictSnapshot {
    std::vector<Dictionary> dicts;
  };

  /// The current dictionary version (acquire load to read).
  const DictSnapshot* Dicts() const {
    return dict_.load(std::memory_order_acquire);
  }
  /// Interns every (dim, value) pair in `rows` that the current version
  /// lacks, publishing one new version under one intern_mu_ hold.
  /// Returns the version containing every value in `rows`.
  const DictSnapshot* InternMissing(
      const std::vector<std::vector<std::string>>& rows);

  /// Recovery: re-interns the recovered per-dimension values, in order,
  /// as the first real dictionary version (ids are intern order, so the
  /// recovered ids equal the originals), and sets dict_watermark_ to
  /// their sizes. Dictionaries must be empty.
  void InstallDicts(const std::vector<std::vector<std::string>>& values);
  /// Points the publisher's durability hook at OnEpochDrained. Called
  /// by every path that wires a sink, never for a cube without one (so
  /// its durability latency stays zero).
  void InstallEpochHook();
  /// The publisher's durability hook, run under the publish lock:
  /// encodes epoch `epoch`'s drained batch and the dictionary delta
  /// beyond dict_watermark_ into one record, then hands the same bytes
  /// to the replication tee and to the durable log, in that order.
  Status OnEpochDrained(uint64_t epoch, const EpochDelta& batch);
  /// The publisher's epoch sink: drives periodic checkpoints, then
  /// forwards to the user sink.
  void OnEpochPublished(const CubeSnapshot& snap);

  const size_t num_dims_;
  const int prototype_k_;
  const MaxEntOptions options_maxent_;
  const IngestOptions options_;

  /// Per-dimension count of dictionary values already carried by an
  /// encoded epoch record (or by the recovered state); touched only by
  /// OnEpochDrained under the publish lock, and by Recover (through
  /// InstallDicts) before the cube is shared. It advances even when the
  /// WAL append of that record fails. That is safe: a failed append
  /// breaks the log until a checkpoint rotates it. That checkpoint, at
  /// epoch C, stores the full dictionaries, read after C's record was
  /// encoded; so the record of C + 1, the first one replay chains onto
  /// it, has a dict_start of at most the checkpoint's dictionary size,
  /// and each later record starts where its predecessor ended.
  /// RecoverState (like the replica's ApplyDeltaRecord) appends only the
  /// tail beyond what it already holds.
  std::vector<uint32_t> dict_watermark_;

  // Dictionary versions: dict_ points at the newest, dict_versions_
  // (guarded by intern_mu_) owns them all. dict_exclusive_locks_ counts
  // intern_mu_ acquisitions — the writer-hot-path "zero mutex" witness.
  std::atomic<const DictSnapshot*> dict_{nullptr};
  std::mutex intern_mu_;
  std::vector<std::unique_ptr<DictSnapshot>> dict_versions_;
  mutable std::atomic<uint64_t> dict_exclusive_locks_{0};

  std::vector<std::unique_ptr<IngestShard>> shards_;
  /// Metrics collector registered with obs::GlobalRegistry(): scrape
  /// time reads of the shard/publisher/durability counters (the hot
  /// paths carry no registry calls). Unregistered in the destructor
  /// before any member is torn down.
  int obs_collector_id_ = 0;
  /// Set by EnableDurability/Recover; must outlive publisher_ (whose
  /// hook and sink call into it), hence declared before it.
  std::unique_ptr<DurableLog> log_;
  /// Borrowed replication tee (EnableReplication); referenced by the
  /// publish hook, hence declared before publisher_ too.
  ReplicationSource* replica_source_ = nullptr;
  /// The user's epoch sink; invoked by OnEpochPublished after the
  /// durability work (same thread and ordering contract as before).
  EpochPublisher::EpochSink user_sink_;
  std::unique_ptr<EpochPublisher> publisher_;
};

}  // namespace msketch

#endif  // MSKETCH_INGEST_STREAMING_CUBE_H_
