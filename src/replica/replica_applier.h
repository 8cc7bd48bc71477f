// ReplicaApplier: the follower side of snapshot shipping + delta
// replication.
//
// The applier owns a follower-local CubeStore + dictionaries and pulls
// state from a leader's ReplicationSource over a Transport. One sync
// round (SyncOnce) sends a Hello carrying the applied epoch and shape,
// then applies the leader's plan frame by frame:
//
//   * kDelta records must chain consecutively onto the applied epoch —
//     the WAL replay rule (RecoverState). Anything else (duplicates,
//     gaps, corrupt payloads) is SKIPPED with a counter, never applied:
//     the leader pumps its whole plan without waiting for acks, so one
//     round must absorb a damaged plan rather than abort at the first
//     bad frame and choke on the leftovers.
//   * a snapshot transfer (kSnapBegin/kSnapChunk*/kSnapEnd) assembles
//     the checkpoint image chunk by chunk; duplicate/stale chunks are
//     skipped, a lost chunk parks the assembly at the first missing
//     index. The image only installs after the whole-image CRC in
//     kSnapEnd verifies, then rebuilds a fresh store through the
//     recovery path (RebuildStore) — bit-exact columns, dictionaries,
//     and KLL side column. A partially assembled image survives the
//     round, so the next Hello resumes the transfer at the first
//     missing chunk.
//   * kCaughtUp ends the round. Each Hello carries a fresh round
//     number and the leader echoes it, so a kCaughtUp from an earlier,
//     abandoned round is skipped (dup_frames) instead of ending this
//     one early. A caught-up epoch beyond the applied one proves frames
//     were lost or skipped — the round returns kCorruption and the next
//     Hello resyncs from the applied state.
//
// Stall detection: while waiting mid-round, receive timeouts and
// leader heartbeats of the current round count against a miss budget
// (such a heartbeat means the leader believes it finished while frames
// we needed never arrived). Heartbeats from an earlier round queued up
// while the follower was idle and count only once a wait has lasted a
// full recv_timeout. Budget exhaustion aborts the round — kCorruption
// (re-Hello) when heartbeats prove the leader alive, kUnavailable
// (reconnect) when the link is silent.
//
// SyncWithRetry wraps rounds in bounded backoff. Link corruption is
// round-retryable (the leader retransmits clean state on the next
// Hello), unlike storage corruption; kUnavailable returns to the
// caller once the transport is dead — reconnecting is the caller's
// job.
//
// Availability: the store is only locked while a frame applies, so
// certified queries (QueryQuantileCertified) keep answering from the
// last applied epoch throughout any outage — bounded staleness, never
// unavailability.
#ifndef MSKETCH_REPLICA_REPLICA_APPLIER_H_
#define MSKETCH_REPLICA_REPLICA_APPLIER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "cube/cube_store.h"
#include "cube/dictionary.h"
#include "cube/summary_router.h"
#include "replica/backoff.h"
#include "replica/transport.h"

namespace msketch {

struct ReplicaOptions {
  /// KLL side-column capacity; 0 = moments only. Must match the
  /// leader's shape (the Hello carries it; a mismatch is refused).
  int kll_k = 0;
  /// Certified query path configuration (SummaryRouter).
  RouterOptions router;
  /// Per-round retry schedule (SyncWithRetry).
  BackoffPolicy retry;
  /// How long one Recv waits before counting a heartbeat miss.
  std::chrono::milliseconds recv_timeout{200};
  /// Consecutive non-data waits (timeouts + mid-round heartbeats)
  /// tolerated before the round is declared stalled.
  int heartbeat_miss_budget = 3;
  /// Backoff jitter stream seed (deterministic soaks).
  uint64_t seed = 0xf0110eedULL;
};

struct ReplicaApplierStats {
  uint64_t rounds = 0;
  uint64_t epochs_applied = 0;
  uint64_t cells_applied = 0;
  /// Full snapshot installs (each one is a resync).
  uint64_t resyncs = 0;
  uint64_t snapshot_chunks = 0;
  /// Rounds that resumed a partially assembled snapshot.
  uint64_t snapshot_resumes = 0;
  uint64_t gaps_detected = 0;
  uint64_t corrupt_frames = 0;
  uint64_t dup_frames = 0;
  uint64_t round_retries = 0;
  uint64_t heartbeat_misses = 0;
  uint64_t heartbeats_seen = 0;
  uint64_t certified_queries = 0;
};

class ReplicaApplier {
 public:
  ReplicaApplier(int k, size_t num_dims, ReplicaOptions options = {});
  ~ReplicaApplier();

  ReplicaApplier(const ReplicaApplier&) = delete;
  ReplicaApplier& operator=(const ReplicaApplier&) = delete;

  /// One sync round: Hello -> apply the leader's plan -> CaughtUp.
  /// kCorruption = damaged/stalled round (re-Hello resyncs);
  /// kUnavailable = link down (reconnect and call again).
  Status SyncOnce(Transport* transport);

  /// SyncOnce under bounded backoff. Retries corrupt and transient
  /// rounds; returns once a round completes, the budget exhausts, the
  /// transport dies, or the error is terminal (e.g. shape refusal).
  Status SyncWithRetry(Transport* transport);

  /// Highest epoch fully applied to the local store.
  uint64_t applied_epoch() const {
    return applied_epoch_.load(std::memory_order_acquire);
  }
  /// Highest leader epoch heard (heartbeats / caught-up frames).
  uint64_t leader_epoch() const {
    return leader_epoch_.load(std::memory_order_acquire);
  }
  /// Bounded staleness: epochs the local store trails the leader by.
  uint64_t lag_epochs() const {
    const uint64_t leader = leader_epoch();
    const uint64_t applied = applied_epoch();
    return leader > applied ? leader - applied : 0;
  }

  /// Certified phi-quantile over the applied state. One string per
  /// dimension; "" = unconstrained. An unknown value matches nothing
  /// (empty input -> non-OK status, the router's only error). Answers
  /// come from the last applied epoch — available during any outage.
  CertifiedQuantile QueryQuantileCertified(
      const std::vector<std::string>& filter, double phi);

  /// Read access to the applied state under the applier's lock (test
  /// oracles fingerprint the store through this).
  void Inspect(const std::function<void(const CubeStore&,
                                        const std::vector<Dictionary>&)>& fn)
      const;

  ReplicaApplierStats stats() const;

 private:
  /// In-progress snapshot assembly (survives round aborts for resume).
  struct SnapshotAssembly {
    bool active = false;
    uint64_t epoch = 0;
    uint64_t total_bytes = 0;
    uint32_t num_chunks = 0;
    uint32_t chunk_bytes = 0;
    uint32_t next_chunk = 0;
    std::vector<uint8_t> buffer;
  };

  /// Sends one frame with bounded retry on transient transport errors.
  Status SendWithBackoff(Transport* t, const std::vector<uint8_t>& wire);
  /// Raises the observed leader epoch (monotone).
  void BumpLeaderEpoch(uint64_t epoch);

  // Frame handlers. Abnormal frames (duplicate, gapped, corrupt) are
  // absorbed — counted and skipped, Status::OK — so one round drains a
  // damaged plan; only real local-apply failures propagate.

  /// Applies one epoch record: chain check, dictionary patch, cells.
  Status ApplyDeltaRecord(const std::vector<uint8_t>& payload);
  /// Starts (or validates the resume of) a snapshot transfer.
  Status ApplySnapBegin(const std::vector<uint8_t>& payload);
  /// Appends one snapshot chunk (dup/stale skip, gap parks assembly).
  Status ApplySnapChunk(const std::vector<uint8_t>& payload);
  /// Verifies the assembled image against kSnapEnd and installs it.
  Status InstallSnapshot(const std::vector<uint8_t>& payload);

  const int k_;
  const size_t num_dims_;
  const ReplicaOptions options_;

  mutable std::mutex mu_;
  CubeStore store_;
  std::vector<Dictionary> dicts_;
  SummaryRouter router_;
  SnapshotAssembly snap_;
  ReplicaApplierStats stats_;
  /// Round number of the latest Hello (the leader echoes it).
  uint64_t round_ = 0;

  std::atomic<uint64_t> applied_epoch_{0};
  std::atomic<uint64_t> leader_epoch_{0};
  int obs_collector_id_ = 0;
};

}  // namespace msketch

#endif  // MSKETCH_REPLICA_REPLICA_APPLIER_H_
