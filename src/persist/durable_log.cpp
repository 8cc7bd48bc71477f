#include "persist/durable_log.h"

#include <algorithm>
#include <cstdio>

#include "common/bytes.h"
#include "common/macros.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace msketch {

namespace {

constexpr char kCheckpointPrefix[] = "CHECKPOINT-";
constexpr char kWalPrefix[] = "WAL-";

std::string SeqName(const char* prefix, uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06llu",
                static_cast<unsigned long long>(seq));
  return std::string(prefix) + buf;
}

bool HasPrefix(const std::string& name, const char* prefix) {
  return name.rfind(prefix, 0) == 0;
}

WalWriterOptions WalOptions(const DurabilityOptions& options) {
  WalWriterOptions w;
  w.fsync_policy = options.fsync_policy;
  w.fsync_every_n = options.fsync_every_n;
  w.max_write_retries = options.max_write_retries;
  w.retry_backoff = options.retry_backoff;
  return w;
}

}  // namespace

Result<std::unique_ptr<DurableLog>> DurableLog::Open(
    const DurabilityOptions& options, uint64_t epoch, const CubeStore& store,
    const std::vector<Dictionary>& dicts, bool allow_existing) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("DurableLog: empty directory");
  }
  Env* env = options.env != nullptr ? options.env : Env::Default();
  MSKETCH_RETURN_NOT_OK(env->CreateDir(options.dir));

  uint64_t next_seq = 1;
  if (env->FileExists(JoinPath(options.dir, kManifestName))) {
    if (!allow_existing) {
      return Status::InvalidArgument(
          "DurableLog: directory already holds a durable cube (recover it, "
          "or point a fresh cube at an empty directory): " +
          options.dir);
    }
    Result<Manifest> old = ReadManifest(env, options.dir);
    if (!old.ok()) return old.status();
    next_seq = old->wal_seq + 1;
  }

  std::unique_ptr<DurableLog> log(new DurableLog(options, env));
  log->next_seq_ = next_seq;
  const uint64_t seq = log->NextSeq();
  Manifest m;
  m.checkpoint_epoch = epoch;
  m.checkpoint_file = SeqName(kCheckpointPrefix, seq);
  m.wal_file = SeqName(kWalPrefix, seq);
  m.wal_seq = seq;

  MSKETCH_RETURN_NOT_OK(WriteCheckpoint(
      env, JoinPath(options.dir, m.checkpoint_file), epoch, store, dicts));
  Result<std::unique_ptr<WalWriter>> wal =
      WalWriter::Create(env, JoinPath(options.dir, m.wal_file), store.k(),
                        store.num_dims(), WalOptions(options));
  if (!wal.ok()) return wal.status();
  // The manifest rename is what makes the new baseline live; a crash
  // before this point leaves the previous manifest (if any) intact.
  MSKETCH_RETURN_NOT_OK(WriteManifest(env, options.dir, m));

  log->wal_ = std::move(wal).value();
  log->wal_name_ = m.wal_file;
  log->last_logged_epoch_ = epoch;
  log->checkpoint_epoch_ = epoch;
  log->checkpoints_written_ = 1;
  log->DeleteDeadFiles(m);
  return log;
}

uint64_t DurableLog::NextSeq() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_++;
}

Status DurableLog::LogEpoch(uint64_t epoch,
                            const std::vector<uint8_t>& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (log_broken_) {
    // The WAL may end in a torn record; appending past it would hide an
    // epoch gap from replay. Fail fast until a checkpoint rebases.
    return Status::IOError("WAL broken (" + last_error_ +
                           "); epochs are not durable until the next "
                           "checkpoint succeeds");
  }
  // WAL append latency (the append+fsync is the part a slow disk
  // stretches, and the part the publish path waits on).
  static obs::Histogram* const append_hist =
      obs::GlobalRegistry().GetHistogram(
          "msk_wal_append_seconds", {},
          "WAL epoch-record append latency (including fsync policy)",
          obs::HistogramUnit::kSeconds);
  Status st;
  {
    obs::ScopedLatencyTimer timer(append_hist);
    obs::Span span("ingest.wal_append");
    st = wal_->AppendRecord(kWalRecordEpoch, record);
  }
  if (!st.ok()) {
    log_broken_ = true;
    ++wal_append_failures_;
    last_error_ = st.ToString();
    return st;
  }
  last_logged_epoch_ = epoch;
  ++epochs_logged_;
  ++epochs_since_checkpoint_;
  return Status::OK();
}

Status DurableLog::Checkpoint(uint64_t epoch, const CubeStore& store,
                              const std::vector<Dictionary>& dicts) {
  const uint64_t seq = NextSeq();
  const std::string ckpt_name = SeqName(kCheckpointPrefix, seq);
  // The heavy write runs outside mu_ so concurrent LogEpoch calls only
  // stall for the commit below, not the full state serialization.
  static obs::Histogram* const ckpt_hist =
      obs::GlobalRegistry().GetHistogram(
          "msk_checkpoint_seconds", {},
          "Full-state checkpoint serialization+write latency",
          obs::HistogramUnit::kSeconds);
  Status st;
  {
    obs::ScopedLatencyTimer timer(ckpt_hist);
    obs::Span span("ingest.checkpoint");
    st = WriteCheckpoint(env_, JoinPath(options_.dir, ckpt_name), epoch,
                         store, dicts);
  }
  // Every failure leaves the previous manifest live (new files are
  // garbage); the caller holds mu_.
  auto failed = [this](const Status& why) {
    ++checkpoint_failures_;
    last_error_ = why.ToString();
    return why;
  };
  if (!st.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    return failed(st);
  }

  Manifest m;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Rotate to an empty WAL only when the current one holds nothing
    // beyond this checkpoint — LogEpoch may already have appended later
    // epochs (the checkpoint is cut from an older published snapshot),
    // and those records must survive.
    const bool rotate = last_logged_epoch_ <= epoch;
    m.checkpoint_epoch = epoch;
    m.checkpoint_file = ckpt_name;
    m.wal_file = rotate ? SeqName(kWalPrefix, seq) : wal_name_;
    m.wal_seq = seq;
    std::unique_ptr<WalWriter> fresh;
    if (rotate) {
      Result<std::unique_ptr<WalWriter>> wal =
          WalWriter::Create(env_, JoinPath(options_.dir, m.wal_file),
                            store.k(), store.num_dims(), WalOptions(options_));
      if (!wal.ok()) return failed(wal.status());
      fresh = std::move(wal).value();
    }
    st = WriteManifest(env_, options_.dir, m);
    if (!st.ok()) return failed(st);
    if (rotate) {
      retired_wal_bytes_ += wal_->bytes_appended();
      retired_wal_syncs_ += wal_->syncs();
      retired_wal_retries_ += wal_->write_retries();
      wal_->Close();  // retired file; the manifest no longer names it
      wal_ = std::move(fresh);
      wal_name_ = m.wal_file;
      last_logged_epoch_ = std::max(last_logged_epoch_, epoch);
      log_broken_ = false;  // full state re-committed; the log is whole
    }
    checkpoint_epoch_ = epoch;
    epochs_since_checkpoint_ = 0;
    ++checkpoints_written_;
  }
  DeleteDeadFiles(m);
  return Status::OK();
}

bool DurableLog::ShouldCheckpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  // A broken log wants a checkpoint immediately: it is the only way
  // durability resumes.
  return log_broken_ ||
         epochs_since_checkpoint_ >= options_.checkpoint_every_epochs;
}

DurabilityStats DurableLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DurabilityStats s;
  s.epochs_logged = epochs_logged_;
  s.wal_bytes = retired_wal_bytes_ + (wal_ ? wal_->bytes_appended() : 0);
  s.wal_syncs = retired_wal_syncs_ + (wal_ ? wal_->syncs() : 0);
  s.write_retries = retired_wal_retries_ + (wal_ ? wal_->write_retries() : 0);
  s.wal_append_failures = wal_append_failures_;
  s.checkpoints_written = checkpoints_written_;
  s.checkpoint_failures = checkpoint_failures_;
  s.log_broken = log_broken_;
  s.last_error = last_error_;
  return s;
}

void DurableLog::DeleteDeadFiles(const Manifest& live) {
  Result<std::vector<std::string>> names = env_->ListDir(options_.dir);
  if (!names.ok()) return;  // best-effort; orphans retry next checkpoint
  for (const std::string& name : *names) {
    const bool dead =
        (HasPrefix(name, kCheckpointPrefix) && name != live.checkpoint_file) ||
        (HasPrefix(name, kWalPrefix) && name != live.wal_file) ||
        name == std::string(kManifestName) + ".tmp";
    if (dead) env_->DeleteFile(JoinPath(options_.dir, name));
  }
}

Result<RecoveredState> RecoverState(Env* env, const std::string& dir,
                                    RecoveryStats* stats) {
  RecoveryStats local;
  RecoveryStats* st = stats != nullptr ? stats : &local;
  *st = RecoveryStats();

  RecoveredState rs;
  Result<Manifest> manifest = ReadManifest(env, dir);
  if (!manifest.ok()) return manifest.status();
  rs.manifest = std::move(manifest).value();

  Result<CheckpointData> ckpt =
      ReadCheckpoint(env, JoinPath(dir, rs.manifest.checkpoint_file));
  if (!ckpt.ok()) return ckpt.status();
  rs.checkpoint = std::move(ckpt).value();
  st->checkpoint_loaded = true;
  st->checkpoint_epoch = rs.checkpoint.epoch;
  rs.dict_values = rs.checkpoint.dict_values;

  Result<std::vector<uint8_t>> wal_bytes =
      env->ReadFile(JoinPath(dir, rs.manifest.wal_file));
  if (!wal_bytes.ok()) return wal_bytes.status();

  // Replay plan: records at or below the checkpoint epoch contribute
  // only their dictionary deltas (the checkpoint already covers their
  // cells); later records must chain consecutively. A record that does
  // not chain — or whose dictionary delta leaves a gap — marks the
  // trustworthy prefix's end, and the rest of the file is ignored the
  // same way a torn tail is.
  bool chain_broken = false;
  uint64_t next_expected = rs.checkpoint.epoch + 1;
  WalReadStats wal_stats;
  Status read_st = ReadWalRecords(
      *wal_bytes,
      [&](uint8_t type, BytesReader* payload) -> Status {
        if (chain_broken) return Status::OK();
        if (type != kWalRecordEpoch) return Status::OK();  // future types
        Result<WalEpochRecord> decoded = DecodeEpochRecord(payload);
        if (!decoded.ok()) return decoded.status();
        WalEpochRecord rec = std::move(decoded).value();
        if (rec.dict_start.size() != rs.dict_values.size()) {
          return Status::Corruption("WAL record dimension mismatch");
        }
        for (size_t d = 0; d < rec.dict_start.size(); ++d) {
          const size_t have = rs.dict_values[d].size();
          const uint32_t start = rec.dict_start[d];
          if (start > have) {  // ids [have, start) are nowhere: gap
            chain_broken = true;
            return Status::OK();
          }
          // The checkpoint (or an earlier record) may already cover a
          // prefix of this delta; append only the genuinely new tail.
          for (size_t i = have - start; i < rec.dict_values[d].size(); ++i) {
            rs.dict_values[d].push_back(rec.dict_values[d][i]);
          }
        }
        if (rec.epoch <= rs.checkpoint.epoch) return Status::OK();
        if (rec.epoch != next_expected) {
          chain_broken = true;
          return Status::OK();
        }
        ++next_expected;
        st->cells_replayed += rec.cells.size();
        rs.epochs.push_back(std::move(rec));
        return Status::OK();
      },
      &wal_stats);
  if (!read_st.ok()) return read_st;
  if (wal_stats.k != rs.checkpoint.k ||
      wal_stats.num_dims != rs.checkpoint.num_dims) {
    return Status::Corruption("WAL header disagrees with checkpoint");
  }
  st->epochs_replayed = rs.epochs.size();
  st->bytes_truncated = wal_stats.bytes_truncated;
  st->checksum_failures = wal_stats.checksum_failures;
  return rs;
}

Status RebuildStore(const RecoveredState& state, CubeStore* store,
                    RecoveryStats* stats) {
  const CheckpointData& ckpt = state.checkpoint;
  if (store->num_cells() != 0 || store->num_rows() != 0) {
    return Status::InvalidArgument("RebuildStore: store must be empty");
  }
  if (store->num_dims() != ckpt.num_dims || store->k() != ckpt.k) {
    return Status::InvalidArgument(
        "RebuildStore: store shape does not match the checkpoint");
  }
  // The KLL side column must be armed before the first cell lands (an
  // EnableKll on a populated store would leave uncovered rows).
  if (ckpt.kll_enabled) {
    if (ckpt.kll_cells.size() != ckpt.cell_coords.size()) {
      return Status::Corruption(
          "checkpoint: KLL section disagrees with cell table");
    }
    store->EnableKll(ckpt.kll_k);
  }
  std::vector<const double*> power_ptrs(ckpt.k), log_ptrs(ckpt.k);
  for (int i = 0; i < ckpt.k; ++i) {
    power_ptrs[i] = ckpt.columns.power_cols[i].data();
    log_ptrs[i] = ckpt.columns.log_cols[i].data();
  }
  FlatMomentColumns cols;
  cols.k = ckpt.k;
  cols.num_cells = ckpt.columns.num_cells;
  cols.power_sums = power_ptrs.data();
  cols.log_sums = log_ptrs.data();
  cols.counts = ckpt.columns.counts.data();
  cols.log_counts = ckpt.columns.log_counts.data();
  cols.mins = ckpt.columns.mins.data();
  cols.maxs = ckpt.columns.maxs.data();

  // Checkpoint cells in cell-id order, as ApplyDeltas batches of
  // kRestoreBatch cells (bounding the decoded sketches held at once):
  // each cell lands in the empty store as one add from zero per column —
  // a bit-exact copy — under the same id for the same coordinates. The
  // KLL delta adopts wholesale into the just-created (empty) cell: a
  // bit-exact copy of the pre-crash rank sketch, coin state included.
  constexpr uint32_t kRestoreBatch = 4096;
  std::vector<MomentsSketch> cells;
  std::vector<DeltaRef> refs;
  for (uint32_t begin = 0; begin < ckpt.columns.num_cells;
       begin += kRestoreBatch) {
    const uint32_t end = static_cast<uint32_t>(std::min<size_t>(
        ckpt.columns.num_cells, size_t{begin} + kRestoreBatch));
    cells.assign(end - begin, MomentsSketch(ckpt.k));
    refs.clear();
    for (uint32_t id = begin; id < end; ++id) {
      MomentsSketch& cell = cells[id - begin];
      MSKETCH_RETURN_NOT_OK(cell.MergeFlat(cols, &id, 1));
      if (cell.count() == 0 && cell.log_count() == 0) {
        // ApplyDeltas would skip an empty delta, shifting every later
        // cell id — and a live cube can't produce an empty cell anyway.
        return Status::Corruption("checkpoint contains an empty cell");
      }
      refs.push_back({&ckpt.cell_coords[id], &cell,
                      ckpt.kll_enabled ? &ckpt.kll_cells[id] : nullptr});
    }
    MSKETCH_RETURN_NOT_OK(store->ApplyDeltas(refs.data(), refs.size()));
  }
  // WAL epochs in publish order: the exact ApplyDeltas calls the
  // pre-crash store executed after the checkpoint.
  for (const WalEpochRecord& rec : state.epochs) {
    const std::vector<DeltaRef> refs = DeltaRefsOf(rec);
    MSKETCH_RETURN_NOT_OK(store->ApplyDeltas(refs.data(), refs.size()));
  }
  if (stats != nullptr) stats->rows_recovered = store->num_rows();
  return Status::OK();
}

}  // namespace msketch
