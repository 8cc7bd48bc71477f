// ReplicationSource: the leader side of snapshot shipping + delta
// replication.
//
// The source is fed by the leader cube's publish pipeline — OnEpoch()
// receives every published epoch's encoded record (the very bytes the
// durable log appends) and keeps it in a bounded in-memory history.
// Serve() answers one follower connection with a follower-driven pull
// protocol (frame.h):
//
//   * a Hello whose have_epoch the delta history covers gets the
//     missing kDelta records (consecutive epochs), then kCaughtUp;
//   * a Hello too far behind (history evicted) gets a full snapshot —
//     the checkpoint image from the SnapshotProvider, shipped as
//     CRC32C-framed chunks (kSnapBegin / kSnapChunk* / kSnapEnd), then
//     the deltas beyond the snapshot epoch, then kCaughtUp;
//   * a resume Hello for the still-cached snapshot image restarts the
//     chunk stream at the requested index instead of re-cutting;
//   * every kCaughtUp echoes the Hello's round; idle gaps emit
//     kHeartbeat carrying the last round served, so the follower can
//     tell a quiet leader from a dead one, and a heartbeat queued
//     before its round from one sent after it.
//
// Every send runs through bounded exponential backoff with jitter and
// a retry budget (backoff.h); a dead transport ends Serve() — the
// follower reconnects and resumes. OnEpoch never blocks on a follower
// and never fails the publish (availability-first, mirroring the
// durability hook's never-block-publish contract).
#ifndef MSKETCH_REPLICA_REPLICATION_SOURCE_H_
#define MSKETCH_REPLICA_REPLICATION_SOURCE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "replica/backoff.h"
#include "replica/transport.h"

namespace msketch {

/// A cut snapshot: the full checkpoint image (persist/checkpoint.h
/// encoding, CRC trailer included) for one epoch. Shared so a cached
/// image can serve resumed transfers without copying.
struct SnapshotImage {
  uint64_t epoch = 0;
  std::shared_ptr<const std::vector<uint8_t>> bytes;
};

struct ReplicationSourceStats {
  uint64_t hellos_served = 0;
  uint64_t epochs_shipped = 0;
  uint64_t snapshots_shipped = 0;
  uint64_t snapshots_resumed = 0;
  uint64_t chunks_shipped = 0;
  uint64_t bytes_shipped = 0;
  uint64_t heartbeats_sent = 0;
  uint64_t send_retries = 0;
  uint64_t send_failures = 0;
  uint64_t corrupt_requests = 0;
  uint64_t history_evictions = 0;
  /// Snapshot bytes queued for the current transfer, not yet shipped.
  uint64_t bytes_in_flight = 0;
};

struct ReplicationOptions {
  /// Encoded epoch records kept for delta catch-up; followers further
  /// behind than this resync from a snapshot.
  size_t history_epochs = 1024;
  /// Snapshot chunk payload size.
  size_t chunk_bytes = 64 * 1024;
  /// Per-send retry schedule (transient transport errors only).
  BackoffPolicy send_backoff;
  /// Idle heartbeat cadence while serving.
  std::chrono::milliseconds heartbeat_interval{100};
  /// Serve()'s request poll granularity (also the stop-check latency).
  std::chrono::milliseconds recv_poll{20};
  /// Backoff jitter stream seed (deterministic soaks).
  uint64_t seed = 0x5eed5eedULL;
};

class ReplicationSource {
 public:
  explicit ReplicationSource(ReplicationOptions options = {});
  ~ReplicationSource();

  ReplicationSource(const ReplicationSource&) = delete;
  ReplicationSource& operator=(const ReplicationSource&) = delete;

  /// Cuts a full checkpoint image of the leader's current published
  /// state. Wired by StreamingCube::EnableReplication; standalone
  /// tests install their own.
  using SnapshotProvider = std::function<Result<SnapshotImage>()>;
  void SetSnapshotProvider(SnapshotProvider provider);

  /// The leader's shape, checked against every Hello (a mismatched
  /// follower gets a terminal kError frame, not a byte stream it will
  /// misparse). kll_k = 0 means no KLL side column.
  void SetShape(int k, size_t num_dims, int kll_k);

  /// An encoded epoch record (persist/wal.h payload), shared between
  /// the durable log, the delta history and in-flight ships.
  using EpochRecord = std::shared_ptr<const std::vector<uint8_t>>;

  /// Publish-pipeline tee: appends epoch `epoch`'s encoded record to
  /// the delta history. Must be called in epoch order (the publisher
  /// hook guarantees it). Never fails the publish.
  void OnEpoch(uint64_t epoch, EpochRecord record);

  /// Serves one follower connection until the transport dies or
  /// RequestStop(). Returns why it stopped (kUnavailable = link down —
  /// the normal end of a connection).
  Status Serve(Transport* transport);
  /// Makes Serve() return within ~recv_poll (sticky until the next
  /// Serve call observes it; one serving loop per source at a time).
  void RequestStop();

  /// Highest epoch OnEpoch has seen (0 before the first).
  uint64_t current_epoch() const {
    return current_epoch_.load(std::memory_order_acquire);
  }

  ReplicationSourceStats stats() const;

 private:
  struct HistoryEntry {
    uint64_t epoch = 0;
    EpochRecord record;
  };

  /// Sends one frame with bounded retry/backoff on retryable errors.
  Status SendWithRetry(Transport* t, const std::vector<uint8_t>& wire);
  /// Answers one Hello: deltas, snapshot + deltas, or caught-up.
  Status HandleHello(Transport* t, const struct HelloFrame& hello);
  /// Sends kCaughtUp through `through` for the follower's `round`.
  Status SendCaughtUp(Transport* t, uint64_t through, uint64_t round);
  /// Ships `image` chunks [first_chunk, num_chunks), then SnapEnd.
  Status ShipSnapshot(Transport* t, const SnapshotImage& image,
                      uint32_t first_chunk);
  /// Ships history deltas in (after_epoch, current] then kCaughtUp.
  Status ShipDeltasAndCaughtUp(Transport* t, uint64_t after_epoch,
                               uint64_t round);

  const ReplicationOptions options_;

  mutable std::mutex mu_;
  SnapshotProvider provider_;
  int k_ = 0;
  size_t num_dims_ = 0;
  int kll_k_ = 0;
  bool shape_set_ = false;
  std::deque<HistoryEntry> history_;
  /// Last cut snapshot image, kept for resumed transfers.
  SnapshotImage cached_snapshot_;
  ReplicationSourceStats stats_;

  std::atomic<uint64_t> current_epoch_{0};
  std::atomic<bool> stop_requested_{false};
  int obs_collector_id_ = 0;
};

}  // namespace msketch

#endif  // MSKETCH_REPLICA_REPLICATION_SOURCE_H_
