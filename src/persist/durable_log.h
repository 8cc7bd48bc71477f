// DurableLog: the durability engine behind StreamingCube — a WAL of
// epoch delta batches plus periodic snapshot checkpoints, committed
// through the manifest protocol (see src/persist/README.md).
//
// Directory layout:
//
//   MANIFEST           root pointer (checkpoint.h commit protocol)
//   CHECKPOINT-<seq>   full cube state at one epoch
//   WAL-<seq>          epoch records after that checkpoint
//
// Only the files the MANIFEST names are live; everything else is
// garbage from interrupted cycles, deleted on the next commit.
//
// Write protocol. LogEpoch(E) appends epoch E's encoded record (the
// drained batch plus the dictionary delta, encoded once by the cube's
// publish hook) as one checksummed WAL record, before the publisher
// makes the epoch visible.
// Checkpoint(E) writes the published state at E to a fresh checkpoint
// file, rotates to an empty WAL when no epoch beyond E has been logged
// (the log may already be ahead of the snapshot the checkpoint was cut
// from — then the old WAL stays live and recovery skips the records the
// checkpoint covers), and commits the manifest.
//
// Failure semantics. A failed LogEpoch (after bounded retries) may
// leave a torn record; the log is then marked broken and later
// LogEpochs fail fast — a WAL must never contain an epoch gap, because
// replay trusts record order. The next successful Checkpoint rotates
// the broken WAL away and restores durability from full state. A failed
// Checkpoint leaves the previous manifest intact: recovery simply
// replays a longer WAL tail.
//
// Concurrency. One internal mutex serializes LogEpoch against
// Checkpoint (the publisher calls them from different serialization
// domains — the publish lock and the sink lock). Checkpoint
// serialization happens outside the mutex so appends only stall for the
// commit, not the full state write.
#ifndef MSKETCH_PERSIST_DURABLE_LOG_H_
#define MSKETCH_PERSIST_DURABLE_LOG_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "cube/cube_store.h"
#include "cube/dictionary.h"
#include "persist/checkpoint.h"
#include "persist/env.h"
#include "persist/wal.h"

namespace msketch {

struct DurabilityOptions {
  /// Directory holding MANIFEST / CHECKPOINT-* / WAL-* (created if
  /// missing).
  std::string dir;
  /// File system to write through; null = Env::Default(). Borrowed —
  /// must outlive the log (tests pass a FaultInjectingEnv).
  Env* env = nullptr;
  /// When WAL appends reach disk (see wal.h). kPerEpoch makes every
  /// acknowledged epoch crash-durable; kEveryN / kNone trade the tail.
  FsyncPolicy fsync_policy = FsyncPolicy::kPerEpoch;
  size_t fsync_every_n = 8;
  /// Checkpoint after this many logged epochs (bounds WAL growth and
  /// recovery replay time).
  uint64_t checkpoint_every_epochs = 64;
  /// Transient write-error retry budget (doubling backoff).
  int max_write_retries = 4;
  std::chrono::milliseconds retry_backoff{1};
};

/// Cumulative durability counters (DurableLog::stats()).
struct DurabilityStats {
  uint64_t epochs_logged = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_syncs = 0;
  /// Transient write failures absorbed by retry.
  uint64_t write_retries = 0;
  /// LogEpoch calls that failed outright (the log breaks until the next
  /// checkpoint).
  uint64_t wal_append_failures = 0;
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_failures = 0;
  /// True while the WAL is broken: epochs since the failure are NOT
  /// durable and will not be until a checkpoint succeeds.
  bool log_broken = false;
  std::string last_error;
};

/// What recovery found and did (StreamingCube::Recover / RecoverState).
struct RecoveryStats {
  bool checkpoint_loaded = false;
  uint64_t checkpoint_epoch = 0;
  /// WAL epoch records replayed on top of the checkpoint.
  uint64_t epochs_replayed = 0;
  /// Cell deltas applied across all replayed epochs.
  uint64_t cells_replayed = 0;
  /// Rows in the recovered cube (checkpoint + replay).
  uint64_t rows_recovered = 0;
  /// WAL tail bytes discarded as torn or corrupt.
  uint64_t bytes_truncated = 0;
  /// Checksum mismatches / length-prefix lies hit at the truncation
  /// point (0 for a clean shutdown, typically 1 after a torn write).
  uint64_t checksum_failures = 0;
};

class DurableLog {
 public:
  /// Opens `options.dir` for logging and commits a baseline: a
  /// checkpoint of (`epoch`, `store`, `dicts`) plus an empty WAL. With
  /// `allow_existing` false an already-initialized directory is an
  /// error (fresh cubes must not silently clobber a previous life's
  /// state); recovery re-opens with true, which supersedes the old
  /// manifest only once the new baseline has committed.
  static Result<std::unique_ptr<DurableLog>> Open(
      const DurabilityOptions& options, uint64_t epoch,
      const CubeStore& store, const std::vector<Dictionary>& dicts,
      bool allow_existing);

  /// Appends epoch `epoch`'s encoded record (EncodeEpochRecord payload)
  /// as one WAL record. Epochs must arrive in order (the publisher's
  /// hook guarantees it). On failure the log is broken until the next
  /// successful Checkpoint.
  Status LogEpoch(uint64_t epoch, const std::vector<uint8_t>& record);

  /// Checkpoints the published state at `epoch` and commits the
  /// manifest (rotating the WAL when it holds nothing beyond `epoch`).
  /// Failure keeps the previous manifest live.
  Status Checkpoint(uint64_t epoch, const CubeStore& store,
                    const std::vector<Dictionary>& dicts);

  /// True when checkpoint_every_epochs have been logged since the last
  /// checkpoint (or the log is broken and a checkpoint would repair it).
  bool ShouldCheckpoint() const;

  DurabilityStats stats() const;
  const DurabilityOptions& options() const { return options_; }

 private:
  DurableLog(const DurabilityOptions& options, Env* env)
      : options_(options), env_(env) {}

  /// Allocates the next file sequence number.
  uint64_t NextSeq();
  /// Deletes CHECKPOINT-*/WAL-* files the manifest no longer names
  /// (best-effort; orphans are retried on the next checkpoint).
  void DeleteDeadFiles(const Manifest& live);

  const DurabilityOptions options_;
  Env* const env_;

  mutable std::mutex mu_;
  std::unique_ptr<WalWriter> wal_;
  std::string wal_name_;           // manifest-relative name of wal_
  uint64_t next_seq_ = 1;          // next CHECKPOINT-/WAL- sequence
  uint64_t last_logged_epoch_ = 0;
  uint64_t checkpoint_epoch_ = 0;
  uint64_t epochs_since_checkpoint_ = 0;
  bool log_broken_ = false;

  uint64_t epochs_logged_ = 0;
  uint64_t wal_append_failures_ = 0;
  uint64_t checkpoints_written_ = 0;
  uint64_t checkpoint_failures_ = 0;
  /// WAL writer counters accumulated across rotations.
  uint64_t retired_wal_bytes_ = 0;
  uint64_t retired_wal_syncs_ = 0;
  uint64_t retired_wal_retries_ = 0;
  std::string last_error_;
};

/// Everything recovery reads from a durable directory, decoded and
/// integrity-checked: the live checkpoint plus the WAL epochs to replay
/// on top of it (ascending, consecutive, each beyond the checkpoint),
/// and the fully patched dictionaries.
struct RecoveredState {
  Manifest manifest;
  CheckpointData checkpoint;
  std::vector<WalEpochRecord> epochs;
  /// checkpoint dictionaries + every WAL dictionary delta, in intern
  /// order (re-interning in this order reproduces the original ids).
  std::vector<std::vector<std::string>> dict_values;
};

/// Loads `dir`'s manifest, checkpoint, and WAL tail. Torn or corrupt
/// WAL tails truncate gracefully (reported in `stats`); a damaged
/// manifest or checkpoint is an error — those are atomically committed
/// and fsynced, so damage there is real corruption, not a crash
/// artifact.
Result<RecoveredState> RecoverState(Env* env, const std::string& dir,
                                    RecoveryStats* stats);

/// Rebuilds the cube store from a recovered state: checkpoint cells
/// first (in cell-id order, so ids and postings match the original),
/// then each WAL epoch's deltas in publish order — the exact
/// ApplyDeltas calls the pre-crash store executed, hence bit-exact
/// columns.
Status RebuildStore(const RecoveredState& state, CubeStore* store,
                    RecoveryStats* stats);

}  // namespace msketch

#endif  // MSKETCH_PERSIST_DURABLE_LOG_H_
