#include "ingest/streaming_cube.h"

#include <algorithm>
#include <utility>

#include "common/bytes.h"
#include "common/macros.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replica/replication_source.h"

namespace msketch {

namespace {

// End-to-end query latency histogram, one per query kind. The registry
// lookup runs once per kind (function-local static at each call site).
obs::Histogram* QueryHist(const char* kind) {
  return obs::GlobalRegistry().GetHistogram(
      "msk_query_seconds", {{"kind", kind}},
      "End-to-end StreamingCube query latency by kind",
      obs::HistogramUnit::kSeconds);
}

std::string ShardLabel(size_t shard) { return std::to_string(shard); }

}  // namespace

StreamingCube::StreamingCube(size_t num_dims, MomentsSummary prototype,
                             IngestOptions options)
    : num_dims_(num_dims),
      prototype_k_(prototype.k()),
      options_maxent_(prototype.options()),
      options_(options),
      dict_watermark_(num_dims, 0) {
  MSKETCH_CHECK(num_dims >= 1);
  MSKETCH_CHECK(options_.num_shards >= 1);
  auto initial = std::make_unique<DictSnapshot>();
  initial->dicts.resize(num_dims_);
  dict_.store(initial.get(), std::memory_order_release);
  dict_versions_.push_back(std::move(initial));
  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<IngestShard>(
        num_dims_, prototype_k_, options_.batch_size, options_.chunk_cells,
        options_.chunks_per_shard, options_.backpressure_stall_budget,
        options_.enable_kll ? options_.kll_k : 0));
  }
  std::vector<IngestShard*> shard_ptrs;
  shard_ptrs.reserve(shards_.size());
  for (auto& s : shards_) shard_ptrs.push_back(s.get());
  publisher_ = std::make_unique<EpochPublisher>(num_dims_, prototype_k_,
                                                options_, shard_ptrs);
  // The cube always owns the publisher's sink; OnEpochPublished forwards
  // to the user's sink after the durability work (if any).
  publisher_->SetEpochSink(
      [this](const CubeSnapshot& snap) { OnEpochPublished(snap); });
  // Scrape-time collector: reads the existing relaxed-atomic *Stats
  // surfaces, so the writer hot path carries zero registry calls. The
  // callback runs under the registry's collector mutex; the destructor
  // unregisters (and thereby drains in-flight scrapes) before teardown.
  obs_collector_id_ = obs::GlobalRegistry().AddCollector(
      [this](obs::MetricsEmitter& em) {
        const IngestStats agg = stats();
        em.EmitCounter("msk_ingest_rows_appended_total", {},
                       "Rows appended across all shards", agg.rows_appended);
        em.EmitCounter("msk_ingest_rows_backpressured_total", {},
                       "Rows that waited on chunk-pool backpressure",
                       agg.rows_backpressured);
        em.EmitCounter("msk_ingest_backpressure_events_total", {},
                       "Appends that hit chunk-pool backpressure",
                       agg.backpressure_events);
        em.EmitCounter("msk_ingest_chunks_sealed_total", {},
                       "Delta chunks sealed to the publisher ring",
                       agg.chunks_sealed);
        em.EmitCounter("msk_ingest_chunks_drained_total", {},
                       "Delta chunks drained by the publisher",
                       agg.chunks_drained);
        em.EmitCounter("msk_ingest_steal_giveups_total", {},
                       "Chunk-steal attempts that gave up",
                       agg.steal_giveups);
        em.EmitCounter("msk_ingest_deadline_events_total", {},
                       "Appends that failed the backpressure stall budget",
                       agg.deadline_events);
        em.EmitCounter("msk_ingest_rows_deadline_failed_total", {},
                       "Rows not appended due to stall-budget expiry",
                       agg.rows_deadline_failed);
        em.EmitCounter("msk_ingest_dict_exclusive_locks_total", {},
                       "Writer-path exclusive dictionary-intern locks",
                       agg.dict_exclusive_locks);
        // Defensive null check: Restore() (recovery) briefly swaps the
        // published snapshot out while this collector is registered.
        const std::shared_ptr<const CubeSnapshot> snap = Snapshot();
        const uint64_t published = snap ? snap->rows() : 0;
        em.EmitGauge("msk_ingest_staleness_rows", {},
                     "Appended-but-not-yet-published rows",
                     static_cast<double>(agg.rows_appended - published));
        for (size_t s = 0; s < shards_.size(); ++s) {
          const IngestShardStats ss = shards_[s]->stats();
          const obs::Labels labels = {{"shard", ShardLabel(s)}};
          em.EmitCounter("msk_ingest_shard_rows_appended_total", labels,
                         "Rows appended into one shard", ss.rows_appended);
          em.EmitGauge("msk_ingest_shard_ring_high_water", labels,
                       "FULL-ring occupancy high-water for one shard",
                       static_cast<double>(ss.full_ring_high_water));
        }
        const PublisherStats ps = agg.publisher;
        em.EmitCounter("msk_publisher_epochs_published_total", {},
                       "Epoch snapshots published", ps.epochs_published);
        em.EmitCounter("msk_publisher_durability_failures_total", {},
                       "Epochs whose durability hook failed",
                       ps.durability_failures);
        em.EmitHistogram("msk_publisher_drain_seconds", {},
                         "Per-publish shard drain latency", ps.drain_hist);
        em.EmitHistogram("msk_publisher_publish_seconds", {},
                         "Whole-publish latency (drain+replay+rollup+swap)",
                         ps.publish_hist);
        em.EmitHistogram("msk_publisher_durability_seconds", {},
                         "Durability hook (WAL append+fsync) latency",
                         ps.durability_hist);
        em.EmitHistogram("msk_publisher_apply_seconds", {},
                         "Per-publish delta batch replay latency",
                         ps.apply_hist);
        em.EmitHistogram("msk_publisher_refresh_seconds", {},
                         "Per-publish rollup build/refresh latency",
                         ps.refresh_hist);
        if (log_ != nullptr) {
          const DurabilityStats ds = log_->stats();
          em.EmitCounter("msk_wal_epochs_logged_total", {},
                         "Epoch delta batches appended to the WAL",
                         ds.epochs_logged);
          em.EmitCounter("msk_wal_bytes_total", {},
                         "Bytes appended to the WAL", ds.wal_bytes);
          em.EmitCounter("msk_wal_syncs_total", {}, "WAL fsync calls",
                         ds.wal_syncs);
          em.EmitCounter("msk_wal_write_retries_total", {},
                         "Short-write retries on WAL appends",
                         ds.write_retries);
          em.EmitCounter("msk_wal_append_failures_total", {},
                         "WAL appends that failed", ds.wal_append_failures);
          em.EmitCounter("msk_checkpoints_written_total", {},
                         "Full-state checkpoints committed",
                         ds.checkpoints_written);
          em.EmitCounter("msk_checkpoint_failures_total", {},
                         "Checkpoint attempts that failed",
                         ds.checkpoint_failures);
          em.EmitGauge("msk_wal_broken", {},
                       "1 when the WAL is marked broken (re-bases at the "
                       "next checkpoint)",
                       ds.log_broken ? 1.0 : 0.0);
        }
      });
}

StreamingCube::~StreamingCube() {
  // Block until no scrape can be reading members, then stop publishing.
  obs::GlobalRegistry().RemoveCollector(obs_collector_id_);
  publisher_->Stop();
}

Status StreamingCube::AppendRow(const std::vector<std::string>& dims,
                                double value) {
  Result<CubeCoords> coords = EncodeRow(dims);
  if (!coords.ok()) return coords.status();
  return Append(coords.value(), value);
}

Status StreamingCube::AppendRows(const IngestRow* rows, size_t n) {
  if (n == 0) return Status::OK();
  // Partition into per-shard runs, preserving arrival order within each
  // shard (cells are shard-affine, so per-cell order is preserved too).
  std::vector<std::vector<IngestRow>> parts(shards_.size());
  for (size_t i = 0; i < n; ++i) {
    parts[CubeCoordsHash()(rows[i].coords) % shards_.size()].push_back(
        rows[i]);
  }
  // A stalled shard fails its own run; the other shards' runs still
  // append (per-shard streams are independent). The first error wins —
  // with one wedged drainer every shard is wedged, so one is enough.
  Status first;
  for (size_t s = 0; s < parts.size(); ++s) {
    if (!parts[s].empty()) {
      Status st = shards_[s]->AppendRows(parts[s].data(), parts[s].size());
      if (!st.ok() && first.ok()) first = std::move(st);
    }
  }
  return first;
}

Status StreamingCube::AppendRowBatch(
    const std::vector<std::vector<std::string>>& rows, const double* values) {
  Result<std::vector<CubeCoords>> coords = EncodeRows(rows);
  if (!coords.ok()) return coords.status();
  std::vector<IngestRow> encoded(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    encoded[i].coords = std::move(coords.value()[i]);
    encoded[i].value = values[i];
  }
  return AppendRows(encoded.data(), encoded.size());
}

Status StreamingCube::EnableDurability(const DurabilityOptions& options) {
  if (log_) {
    return Status::InvalidArgument("EnableDurability: already durable");
  }
  if (rows_appended() != 0 || publisher_->epochs_published() != 0) {
    return Status::InvalidArgument(
        "EnableDurability: cube already holds data — durability must cover "
        "every row (use Recover() to reopen a durable directory)");
  }
  // Baseline: an empty checkpoint at epoch 0 (the constructor's empty
  // snapshot) plus an empty WAL. Committed before the first row can be
  // acknowledged, so the directory is always recoverable.
  CubeStore empty(num_dims_, prototype_k_);
  // The baseline checkpoint records the KLL side column's existence, so
  // recovery re-arms it before replaying any cell.
  if (options_.enable_kll) empty.EnableKll(options_.kll_k);
  Result<std::unique_ptr<DurableLog>> log = DurableLog::Open(
      options, /*epoch=*/0, empty, Dicts()->dicts, /*allow_existing=*/false);
  if (!log.ok()) return log.status();
  log_ = std::move(log).value();
  InstallEpochHook();
  return Status::OK();
}

void StreamingCube::InstallEpochHook() {
  publisher_->SetDurabilityHook(
      [this](uint64_t epoch, const EpochDelta& batch) {
        return OnEpochDrained(epoch, batch);
      });
}

Status StreamingCube::OnEpochDrained(uint64_t epoch,
                                     const EpochDelta& batch) {
  // The current dictionary version covers every id in the batch: rows
  // encode against a version no newer than the one visible at publish
  // time, and versions only grow. The record carries the values beyond
  // the watermark, which then advances whatever the sinks do with it.
  const std::vector<Dictionary>& dicts = Dicts()->dicts;
  std::vector<uint32_t> dict_start = dict_watermark_;
  std::vector<std::vector<std::string>> dict_delta(num_dims_);
  for (size_t d = 0; d < num_dims_; ++d) {
    for (uint32_t id = dict_start[d]; id < dicts[d].size(); ++id) {
      dict_delta[d].push_back(dicts[d].ValueOf(id));
    }
    dict_watermark_[d] = static_cast<uint32_t>(dicts[d].size());
  }
  BytesWriter payload;
  EncodeEpochRecord(epoch, dict_start, dict_delta, batch, &payload);
  auto record = std::make_shared<const std::vector<uint8_t>>(payload.Take());
  // Replication tee first: OnEpoch never fails, and followers want the
  // epoch even when the durable log is broken (availability-first).
  if (replica_source_ != nullptr) replica_source_->OnEpoch(epoch, record);
  if (log_ == nullptr) return Status::OK();
  return log_->LogEpoch(epoch, *record);
}

Status StreamingCube::EnableReplication(ReplicationSource* source) {
  if (source == nullptr) {
    return Status::InvalidArgument("EnableReplication: null source");
  }
  if (replica_source_ != nullptr) {
    return Status::InvalidArgument("EnableReplication: already enabled");
  }
  replica_source_ = source;
  source->SetShape(prototype_k_, num_dims_,
                   options_.enable_kll ? options_.kll_k : 0);
  source->SetSnapshotProvider([this]() -> Result<SnapshotImage> {
    std::shared_ptr<const CubeSnapshot> snap = Snapshot();
    std::vector<uint8_t> bytes;
    // Same dictionary rule as Checkpoint: the current version covers
    // every id the published store uses (versions only grow).
    MSKETCH_RETURN_IF_ERROR(
        EncodeCheckpointImage(snap->epoch, snap->store, Dicts()->dicts,
                              &bytes));
    SnapshotImage image;
    image.epoch = snap->epoch;
    image.bytes =
        std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
    return image;
  });
  InstallEpochHook();
  return Status::OK();
}

void StreamingCube::OnEpochPublished(const CubeSnapshot& snap) {
  if (log_ && log_->ShouldCheckpoint()) {
    // Best-effort: a failure is counted in DurabilityStats and retried
    // at the next published epoch (ShouldCheckpoint stays true).
    Status st = log_->Checkpoint(snap.epoch, snap.store, Dicts()->dicts);
    (void)st;
  }
  if (user_sink_) user_sink_(snap);
}

Result<std::unique_ptr<StreamingCube>> StreamingCube::Recover(
    size_t num_dims, MomentsSummary prototype, IngestOptions options,
    const DurabilityOptions& durability, RecoveryStats* stats) {
  obs::Span span("ingest.recover");
  RecoveryStats local;
  RecoveryStats* rs = stats ? stats : &local;
  *rs = RecoveryStats();
  Env* env = durability.env != nullptr ? durability.env : Env::Default();
  Result<RecoveredState> state = RecoverState(env, durability.dir, rs);
  if (!state.ok()) return state.status();
  if (state.value().checkpoint.num_dims != num_dims ||
      state.value().checkpoint.k != prototype.k()) {
    return Status::InvalidArgument(
        "Recover: cube shape does not match the durable directory "
        "(num_dims/k recorded at EnableDurability time)");
  }
  CubeStore store(num_dims, prototype.k());
  MSKETCH_RETURN_IF_ERROR(RebuildStore(state.value(), &store, rs));

  auto cube = std::unique_ptr<StreamingCube>(
      new StreamingCube(num_dims, std::move(prototype), std::move(options)));
  cube->InstallDicts(state.value().dict_values);
  const uint64_t epoch = state.value().epochs.empty()
                             ? state.value().checkpoint.epoch
                             : state.value().epochs.back().epoch;
  MSKETCH_RETURN_IF_ERROR(cube->publisher_->Restore(epoch, store));
  // Re-open the directory for continued logging: commits a fresh
  // baseline (checkpoint at the recovered epoch + empty WAL), so a
  // recovered-then-crashed cube recovers again without replaying the old
  // tail twice.
  Result<std::unique_ptr<DurableLog>> log = DurableLog::Open(
      durability, epoch, store, cube->Dicts()->dicts, /*allow_existing=*/true);
  if (!log.ok()) return log.status();
  cube->log_ = std::move(log).value();
  cube->InstallEpochHook();
  // Recovery outcome counters (coarse one-shot events; no hot path).
  obs::MetricsRegistry& reg = obs::GlobalRegistry();
  reg.GetCounter("msk_recovery_runs_total", {},
                 "Successful StreamingCube::Recover calls")
      ->Add(1);
  reg.GetCounter("msk_recovery_epochs_replayed_total", {},
                 "WAL epochs replayed during recovery")
      ->Add(rs->epochs_replayed);
  reg.GetCounter("msk_recovery_cells_replayed_total", {},
                 "Cells replayed from the WAL during recovery")
      ->Add(rs->cells_replayed);
  reg.GetCounter("msk_recovery_rows_recovered_total", {},
                 "Rows restored into the recovered cube")
      ->Add(rs->rows_recovered);
  reg.GetCounter("msk_recovery_bytes_truncated_total", {},
                 "Torn-tail WAL bytes truncated during recovery")
      ->Add(rs->bytes_truncated);
  reg.GetCounter("msk_recovery_checksum_failures_total", {},
                 "Checksum mismatches encountered during recovery")
      ->Add(rs->checksum_failures);
  return cube;
}

void StreamingCube::InstallDicts(
    const std::vector<std::vector<std::string>>& values) {
  std::lock_guard<std::mutex> lock(intern_mu_);
  dict_exclusive_locks_.fetch_add(1, std::memory_order_relaxed);
  auto next = std::make_unique<DictSnapshot>(*dict_versions_.back());
  MSKETCH_CHECK(values.size() == num_dims_);
  for (size_t d = 0; d < num_dims_; ++d) {
    MSKETCH_CHECK(next->dicts[d].size() == 0);  // recovery precedes use
    for (const std::string& v : values[d]) next->dicts[d].Intern(v);
    // The recovered state holds every value: records start past them.
    dict_watermark_[d] = static_cast<uint32_t>(values[d].size());
  }
  const DictSnapshot* published = next.get();
  dict_versions_.push_back(std::move(next));
  dict_.store(published, std::memory_order_release);
}

const StreamingCube::DictSnapshot* StreamingCube::InternMissing(
    const std::vector<std::vector<std::string>>& rows) {
  std::lock_guard<std::mutex> lock(intern_mu_);
  dict_exclusive_locks_.fetch_add(1, std::memory_order_relaxed);
  // Copy the newest version (dict_versions_.back(), which intern_mu_
  // guards — dict_ always points at it). Intern is idempotent, so rows
  // another interner published while we waited for the lock just
  // resolve to their existing ids.
  auto next = std::make_unique<DictSnapshot>(*dict_versions_.back());
  for (const std::vector<std::string>& row : rows) {
    for (size_t d = 0; d < num_dims_; ++d) {
      next->dicts[d].Intern(row[d]);
    }
  }
  const DictSnapshot* published = next.get();
  dict_versions_.push_back(std::move(next));
  // The release store pairs with readers' acquire loads: a reader that
  // sees the new pointer sees the fully built dictionaries.
  dict_.store(published, std::memory_order_release);
  return published;
}

Result<CubeCoords> StreamingCube::EncodeRow(
    const std::vector<std::string>& dims) {
  if (dims.size() != num_dims_) {
    return Status::InvalidArgument("EncodeRow: wrong dimension arity");
  }
  CubeCoords coords(num_dims_);
  // Fast path: every value already interned — one acquire load, no lock.
  const DictSnapshot* snap = Dicts();
  bool all_known = true;
  for (size_t d = 0; d < num_dims_; ++d) {
    Result<uint32_t> id = snap->dicts[d].Find(dims[d]);
    if (!id.ok()) {
      all_known = false;
      break;
    }
    coords[d] = id.value();
  }
  if (all_known) return coords;
  // Slow path: publish a version containing this row, then encode from
  // it (every value is present by construction).
  snap = InternMissing({dims});
  for (size_t d = 0; d < num_dims_; ++d) {
    coords[d] = snap->dicts[d].Find(dims[d]).value();
  }
  return coords;
}

Result<std::vector<CubeCoords>> StreamingCube::EncodeRows(
    const std::vector<std::vector<std::string>>& rows) {
  // Validate arity for every row before interning anything, so a
  // malformed batch fails without publishing a partial version.
  for (const std::vector<std::string>& row : rows) {
    if (row.size() != num_dims_) {
      return Status::InvalidArgument("EncodeRows: wrong dimension arity");
    }
  }
  std::vector<CubeCoords> out(rows.size(), CubeCoords(num_dims_));
  // Fast path: one acquire load covers the whole batch; misses are
  // remembered and resolved against the upgraded version below.
  const DictSnapshot* snap = Dicts();
  size_t first_miss = rows.size();
  for (size_t i = 0; i < rows.size() && first_miss == rows.size(); ++i) {
    for (size_t d = 0; d < num_dims_; ++d) {
      Result<uint32_t> id = snap->dicts[d].Find(rows[i][d]);
      if (!id.ok()) {
        first_miss = i;
        break;
      }
      out[i][d] = id.value();
    }
  }
  if (first_miss == rows.size()) return out;
  // Slow path: exactly one exclusive upgrade for the whole batch, no
  // matter how many rows or values are new.
  snap = InternMissing(rows);
  for (size_t i = first_miss; i < rows.size(); ++i) {
    for (size_t d = 0; d < num_dims_; ++d) {
      out[i][d] = snap->dicts[d].Find(rows[i][d]).value();
    }
  }
  return out;
}

Result<CubeFilter> StreamingCube::EncodeFilter(
    const std::vector<std::string>& dims) const {
  if (dims.size() != num_dims_) {
    return Status::InvalidArgument("EncodeFilter: wrong dimension arity");
  }
  CubeFilter filter(num_dims_, kAnyValue);
  const DictSnapshot* snap = Dicts();
  for (size_t d = 0; d < num_dims_; ++d) {
    if (dims[d].empty()) continue;
    Result<uint32_t> id = snap->dicts[d].Find(dims[d]);
    if (!id.ok()) return id.status();
    filter[d] = static_cast<int64_t>(id.value());
  }
  return filter;
}

Result<std::string> StreamingCube::DecodeValue(size_t dim,
                                               uint32_t id) const {
  if (dim >= num_dims_) {
    return Status::InvalidArgument("DecodeValue: dimension out of range");
  }
  const DictSnapshot* snap = Dicts();
  if (id >= snap->dicts[dim].size()) {
    return Status::OutOfRange("DecodeValue: unknown value id");
  }
  return snap->dicts[dim].ValueOf(id);
}

MomentsSummary StreamingCube::QueryWhere(const CubeFilter& filter,
                                         CubeStore::QueryStats* stats) const {
  static obs::Histogram* const hist = QueryHist("where");
  obs::ScopedLatencyTimer timer(hist);
  obs::Span span("query.where");
  std::shared_ptr<const CubeSnapshot> snap = Snapshot();
  return MomentsSummary(snap->store.QueryWhere(filter, stats),
                        options_maxent_);
}

CertifiedQuantile StreamingCube::QueryQuantileCertified(
    const CubeFilter& filter, double phi, RouterStats* stats) const {
  static obs::Histogram* const hist = QueryHist("quantile_certified");
  obs::ScopedLatencyTimer timer(hist);
  obs::Span span("query.certified");
  std::shared_ptr<const CubeSnapshot> snap = Snapshot();
  const MomentsSketch moments = snap->store.QueryWhere(filter);
  KllSketch kll;
  const KllSketch* kll_ptr = nullptr;
  if (snap->store.kll_enabled()) {
    Result<KllSketch> merged = snap->store.MergeKllWhere(filter);
    if (merged.ok()) {
      kll = std::move(merged).value();
      kll_ptr = &kll;
    }
  }
  RouterOptions opt;
  opt.maxent = options_maxent_;
  SummaryRouter router(opt);
  CertifiedQuantile out = router.Query(moments, kll_ptr, phi);
  if (stats != nullptr) stats->MergeFrom(router.stats());
  return out;
}

std::vector<GroupQuantilesCertified> StreamingCube::GroupByQuantilesCertified(
    const std::vector<size_t>& group_dims, const std::vector<double>& phis,
    const RouterOptions& options, RouterStats* stats) const {
  static obs::Histogram* const hist = QueryHist("groupby_certified");
  obs::ScopedLatencyTimer timer(hist);
  obs::Span span("query.certified_groupby");
  std::shared_ptr<const CubeSnapshot> snap = Snapshot();
  return msketch::GroupByQuantilesCertified(snap->store, group_dims, phis,
                                            options, stats);
}

std::vector<GroupQuantilesCertified> StreamingCube::GroupByQuantilesCertified(
    const std::vector<size_t>& group_dims,
    const std::vector<double>& phis) const {
  RouterOptions opt;
  opt.maxent = options_maxent_;
  return GroupByQuantilesCertified(group_dims, phis, opt, nullptr);
}

std::vector<GroupThreshold> StreamingCube::GroupByThreshold(
    const std::vector<size_t>& group_dims, double phi, double t,
    const BatchOptions& options, BatchStats* stats) const {
  static obs::Histogram* const hist = QueryHist("groupby_threshold");
  obs::ScopedLatencyTimer timer(hist);
  obs::Span span("query.threshold");
  std::shared_ptr<const CubeSnapshot> snap = Snapshot();
  return msketch::GroupByThreshold(snap->store, group_dims, phi, t, options,
                                   stats);
}

uint64_t StreamingCube::rows_appended() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->rows_appended();
  return total;
}

IngestStats StreamingCube::stats() const {
  IngestStats agg;
  for (const auto& shard : shards_) {
    const IngestShardStats s = shard->stats();
    agg.rows_appended += s.rows_appended;
    agg.rows_backpressured += s.rows_backpressured;
    agg.backpressure_events += s.backpressure_events;
    agg.chunks_sealed += s.chunks_sealed;
    agg.chunks_drained += s.chunks_drained;
    agg.full_ring_high_water =
        std::max(agg.full_ring_high_water, s.full_ring_high_water);
    agg.steal_giveups += s.steal_giveups;
    agg.deadline_events += s.deadline_events;
    agg.rows_deadline_failed += s.rows_deadline_failed;
  }
  agg.dict_exclusive_locks =
      dict_exclusive_locks_.load(std::memory_order_relaxed);
  agg.publisher = publisher_->stats();
  return agg;
}

}  // namespace msketch
