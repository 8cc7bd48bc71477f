#include "replica/replica_applier.h"

#include <thread>
#include <utility>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/macros.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/checkpoint.h"
#include "persist/durable_log.h"
#include "persist/wal.h"
#include "replica/frame.h"

namespace msketch {

namespace {
/// True when a failed sync round is worth re-Helloing: transient
/// transport trouble, or link corruption — unlike storage corruption,
/// a damaged plan is transient because the leader retransmits clean
/// state from the follower's applied epoch on the next round.
bool RoundRetryable(const Status& st) {
  return IsRetryable(st) || st.code() == StatusCode::kCorruption;
}
}  // namespace

ReplicaApplier::ReplicaApplier(int k, size_t num_dims, ReplicaOptions options)
    : k_(k),
      num_dims_(num_dims),
      options_(options),
      store_(num_dims, k),
      dicts_(num_dims),
      router_(options.router) {
  // The KLL side column must be armed before the first cell lands —
  // the delta catch-up path applies straight into this store.
  if (options_.kll_k > 0) store_.EnableKll(options_.kll_k);
  obs_collector_id_ = obs::GlobalRegistry().AddCollector(
      [this](obs::MetricsEmitter& em) {
        const ReplicaApplierStats s = stats();
        em.EmitCounter("msk_replica_epochs_applied_total", {},
                       "Epoch delta records applied by the follower",
                       s.epochs_applied);
        em.EmitCounter("msk_replica_resyncs_total", {},
                       "Full snapshot installs (resyncs)", s.resyncs);
        em.EmitCounter("msk_replica_gaps_detected_total", {},
                       "Frames skipped because a predecessor was lost",
                       s.gaps_detected);
        em.EmitCounter("msk_replica_corrupt_frames_total", {},
                       "Frames rejected as torn or corrupt",
                       s.corrupt_frames);
        em.EmitCounter("msk_replica_dup_frames_total", {},
                       "Duplicate or stale frames skipped idempotently",
                       s.dup_frames);
        em.EmitCounter("msk_replica_round_retries_total", {},
                       "Sync rounds retried after a recoverable failure",
                       s.round_retries);
        em.EmitCounter("msk_replica_heartbeat_misses_total", {},
                       "Waits that counted against the stall budget",
                       s.heartbeat_misses);
        em.EmitGauge("msk_replica_lag_epochs", {},
                     "Epochs the follower trails the leader by",
                     static_cast<double>(lag_epochs()));
      });
}

ReplicaApplier::~ReplicaApplier() {
  obs::GlobalRegistry().RemoveCollector(obs_collector_id_);
}

Status ReplicaApplier::SendWithBackoff(Transport* t,
                                       const std::vector<uint8_t>& wire) {
  Backoff backoff(options_.retry, options_.seed);
  Status st;
  for (;;) {
    st = t->Send(wire);
    if (st.ok() || !backoff.ShouldRetry(st)) return st;
    std::this_thread::sleep_for(backoff.NextDelay());
  }
}

void ReplicaApplier::BumpLeaderEpoch(uint64_t epoch) {
  uint64_t leader = leader_epoch_.load(std::memory_order_relaxed);
  while (leader < epoch &&
         !leader_epoch_.compare_exchange_weak(leader, epoch)) {
  }
}

// Frame handlers absorb abnormal frames instead of aborting: the
// leader pumps its whole plan without waiting for acks, so after one
// lost or damaged frame the rest of the plan is already in flight.
// Skipping stale frames (with counters) lets one round drain the
// damaged plan; the closing kCaughtUp then reveals the shortfall
// (through > applied) and the round retries from clean applied state.

Status ReplicaApplier::ApplyDeltaRecord(const std::vector<uint8_t>& payload) {
  BytesReader reader(payload);
  Result<WalEpochRecord> decoded = DecodeEpochRecord(&reader);
  if (!decoded.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.corrupt_frames;
    return Status::OK();  // skip; the caught-up check reveals the hole
  }
  WalEpochRecord rec = std::move(decoded).value();

  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t applied = applied_epoch_.load(std::memory_order_relaxed);
  if (rec.epoch <= applied) {  // duplicate delivery: already applied
    ++stats_.dup_frames;
    return Status::OK();
  }
  if (rec.epoch != applied + 1) {  // a predecessor was lost: skip
    ++stats_.gaps_detected;
    return Status::OK();
  }
  if (rec.dict_start.size() != dicts_.size()) {
    ++stats_.corrupt_frames;
    return Status::OK();
  }
  // Dictionary patch, RecoverState's idempotent rule: the delta's
  // prefix may already be interned (a retransmitted record); only the
  // genuinely new tail appends. A start beyond our size is a gap.
  for (size_t d = 0; d < dicts_.size(); ++d) {
    const uint32_t start = rec.dict_start[d];
    if (start > dicts_[d].size()) {
      ++stats_.gaps_detected;
      return Status::OK();
    }
  }
  // The ApplyDeltas call the leader's publisher made for this epoch —
  // bit-exact columns. A failure here is real (a CRC-valid record the
  // store refuses), not link noise: propagate. ApplyDeltas validates
  // the whole record first, and the dictionaries patch only after it
  // succeeds, so a refused record leaves the follower as it was and a
  // redelivery cannot apply any cell twice.
  MSKETCH_RETURN_NOT_OK(store_.ApplyDeltas(rec.cells));
  for (size_t d = 0; d < dicts_.size(); ++d) {
    const size_t have = dicts_[d].size();
    const uint32_t start = rec.dict_start[d];
    for (size_t i = have - start; i < rec.dict_values[d].size(); ++i) {
      dicts_[d].Intern(rec.dict_values[d][i]);
    }
  }
  ++stats_.epochs_applied;
  stats_.cells_applied += rec.cells.size();
  applied_epoch_.store(rec.epoch, std::memory_order_release);
  return Status::OK();
}

Status ReplicaApplier::ApplySnapBegin(const std::vector<uint8_t>& payload) {
  Result<SnapBeginFrame> begin = DecodeSnapBegin(payload);
  std::lock_guard<std::mutex> lock(mu_);
  if (!begin.ok()) {
    ++stats_.corrupt_frames;
    return Status::OK();
  }
  const SnapBeginFrame& b = begin.value();
  if (b.first_chunk > 0) {
    // A resumed transfer must continue exactly where our partial image
    // ends; anything else would splice two images — drop the partial
    // and let the next round request a fresh transfer.
    if (!snap_.active || snap_.epoch != b.snapshot_epoch ||
        snap_.next_chunk != b.first_chunk ||
        snap_.total_bytes != b.total_bytes) {
      ++stats_.gaps_detected;
      snap_ = SnapshotAssembly();
    }
    return Status::OK();
  }
  snap_ = SnapshotAssembly();
  snap_.active = true;
  snap_.epoch = b.snapshot_epoch;
  snap_.total_bytes = b.total_bytes;
  snap_.num_chunks = b.num_chunks;
  snap_.chunk_bytes = b.chunk_bytes;
  snap_.buffer.reserve(b.total_bytes);
  return Status::OK();
}

Status ReplicaApplier::ApplySnapChunk(const std::vector<uint8_t>& payload) {
  Result<SnapChunkFrame> chunk = DecodeSnapChunk(payload);
  std::lock_guard<std::mutex> lock(mu_);
  if (!chunk.ok()) {
    ++stats_.corrupt_frames;
    return Status::OK();
  }
  if (!snap_.active) {  // stale chunk of a transfer we never began
    ++stats_.dup_frames;
    return Status::OK();
  }
  if (chunk.value().chunk_index < snap_.next_chunk) {  // duplicate
    ++stats_.dup_frames;
    return Status::OK();
  }
  if (chunk.value().chunk_index > snap_.next_chunk) {
    // A chunk before this one was lost. Keep next_chunk parked at the
    // first missing index — the next Hello resumes the transfer there.
    ++stats_.gaps_detected;
    return Status::OK();
  }
  snap_.buffer.insert(snap_.buffer.end(), chunk.value().bytes.begin(),
                      chunk.value().bytes.end());
  ++snap_.next_chunk;
  ++stats_.snapshot_chunks;
  return Status::OK();
}

Status ReplicaApplier::InstallSnapshot(const std::vector<uint8_t>& payload) {
  Result<SnapEndFrame> decoded = DecodeSnapEnd(payload);
  std::lock_guard<std::mutex> lock(mu_);
  if (!decoded.ok()) {
    ++stats_.corrupt_frames;
    return Status::OK();
  }
  const SnapEndFrame& end = decoded.value();
  if (!snap_.active || snap_.epoch != end.snapshot_epoch ||
      snap_.next_chunk != snap_.num_chunks ||
      snap_.buffer.size() != snap_.total_bytes) {
    // Image incomplete (lost chunks): keep the partial for resume.
    ++stats_.gaps_detected;
    return Status::OK();
  }
  obs::Span span("replica.resync");
  // Install gate: the whole-image CRC proves every chunk arrived
  // intact and in order — only then does the image touch the store.
  const uint32_t crc =
      crc32c::Mask(crc32c::Value(snap_.buffer.data(), snap_.buffer.size()));
  if (crc != end.image_crc) {
    ++stats_.corrupt_frames;
    snap_ = SnapshotAssembly();  // the image is trash; restart transfer
    return Status::OK();
  }
  Result<CheckpointData> ckpt = DecodeCheckpointImage(snap_.buffer);
  if (!ckpt.ok()) {
    ++stats_.corrupt_frames;
    snap_ = SnapshotAssembly();
    return Status::OK();
  }
  if (ckpt.value().num_dims != num_dims_ || ckpt.value().k != k_) {
    snap_ = SnapshotAssembly();
    return Status::InvalidArgument(
        "replica: snapshot shape does not match the applier");
  }
  // Rebuild through the recovery path: checkpoint cells in id order,
  // bit-exact columns, dictionaries, and KLL side column. Failures
  // here are real, not link noise: propagate.
  RecoveredState state;
  state.checkpoint = std::move(ckpt).value();
  state.dict_values = state.checkpoint.dict_values;
  CubeStore fresh(num_dims_, k_);
  MSKETCH_RETURN_NOT_OK(RebuildStore(state, &fresh, nullptr));
  std::vector<Dictionary> fresh_dicts(num_dims_);
  for (size_t d = 0; d < num_dims_; ++d) {
    for (const std::string& v : state.dict_values[d]) {
      fresh_dicts[d].Intern(v);
    }
  }
  store_ = std::move(fresh);
  dicts_ = std::move(fresh_dicts);
  const uint64_t epoch = state.checkpoint.epoch;
  snap_ = SnapshotAssembly();
  ++stats_.resyncs;
  applied_epoch_.store(epoch, std::memory_order_release);
  return Status::OK();
}

Status ReplicaApplier::SyncOnce(Transport* transport) {
  obs::Span span("replica.apply");
  HelloFrame hello;
  hello.have_epoch = applied_epoch();
  hello.k = static_cast<uint32_t>(k_);
  hello.num_dims = static_cast<uint32_t>(num_dims_);
  hello.kll_k = static_cast<uint32_t>(options_.kll_k);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rounds;
    hello.round = ++round_;
    // Resume a partial snapshot only while chunks are still missing; a
    // transfer that lost just its SnapEnd restarts (the source cannot
    // ship an empty chunk range).
    if (snap_.active && snap_.next_chunk < snap_.num_chunks) {
      hello.resume = true;
      hello.resume_epoch = snap_.epoch;
      hello.resume_next_chunk = snap_.next_chunk;
      ++stats_.snapshot_resumes;
    }
  }
  MSKETCH_RETURN_IF_ERROR(SendWithBackoff(
      transport, EncodeFrame(FrameType::kHello, EncodeHello(hello))));

  const auto round_start = std::chrono::steady_clock::now();
  const int budget = std::max(options_.heartbeat_miss_budget, 1);
  int non_data_waits = 0;
  bool heard_heartbeat = false;
  for (;;) {
    Result<std::vector<uint8_t>> wire = transport->Recv(options_.recv_timeout);
    if (!wire.ok()) {
      if (!transport->connected()) return wire.status();
      ++non_data_waits;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.heartbeat_misses;
      }
      if (non_data_waits >= budget) {
        // Silent link, no proof of life: treat as down and reconnect.
        if (!heard_heartbeat) {
          return Status::Unavailable("replica: leader silent");
        }
        // The leader is alive but the frames we need never arrived —
        // the round is stalled on a lost tail; re-Hello resyncs it.
        return Status::Corruption("replica: sync round stalled");
      }
      continue;
    }
    Result<Frame> frame = DecodeFrame(wire.value());
    if (!frame.ok()) {
      // Torn or bit-flipped frame: skip it. Whatever it carried shows
      // up as a gap downstream; the caught-up check forces the retry.
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.corrupt_frames;
      non_data_waits = 0;
      continue;
    }
    // Data frames prove the plan is still flowing; heartbeats must NOT
    // reset the stall counter — they are what an idle leader sends
    // after a lost tail, and each one counts against the budget below.
    if (frame.value().type != FrameType::kHeartbeat) non_data_waits = 0;
    switch (frame.value().type) {
      case FrameType::kDelta:
        MSKETCH_RETURN_IF_ERROR(ApplyDeltaRecord(frame.value().payload));
        break;
      case FrameType::kSnapBegin:
        MSKETCH_RETURN_IF_ERROR(ApplySnapBegin(frame.value().payload));
        break;
      case FrameType::kSnapChunk:
        MSKETCH_RETURN_IF_ERROR(ApplySnapChunk(frame.value().payload));
        break;
      case FrameType::kSnapEnd:
        MSKETCH_RETURN_IF_ERROR(InstallSnapshot(frame.value().payload));
        break;
      case FrameType::kCaughtUp: {
        Result<CaughtUpFrame> caught = DecodeCaughtUp(frame.value().payload);
        if (!caught.ok()) {
          // The plan's closing frame is unreadable: we cannot verify
          // completeness, so the round must retry.
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.corrupt_frames;
          return Status::Corruption("replica: unreadable caught-up frame");
        }
        if (caught.value().round != hello.round) {
          // The reply to an abandoned round: it proves nothing about
          // this round's plan, which is still on its way.
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.dup_frames;
          break;
        }
        const uint64_t through = caught.value().through_epoch;
        BumpLeaderEpoch(through);
        if (through > applied_epoch()) {
          // The plan claimed epochs that never landed — frames were
          // lost or skipped. Re-Hello from the applied state.
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.gaps_detected;
          return Status::Corruption("replica: caught-up beyond applied");
        }
        return Status::OK();  // round complete
      }
      case FrameType::kHeartbeat: {
        obs::Span hb_span("replica.heartbeat");
        Result<HeartbeatFrame> hb = DecodeHeartbeat(frame.value().payload);
        if (!hb.ok()) {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.corrupt_frames;
          break;
        }
        heard_heartbeat = true;
        BumpLeaderEpoch(hb.value().current_epoch);
        // A heartbeat after the leader served this round means it went
        // idle while we still wait — evidence of a lost tail, so it
        // counts against the stall budget like a timeout. An idle
        // leader serves a queued Hello before its next heartbeat, so an
        // earlier round's heartbeat was queued while we were idle —
        // unless it arrives a full recv_timeout into the round: then
        // the leader never got this Hello, and it counts too.
        const bool counts =
            hb.value().round == hello.round ||
            std::chrono::steady_clock::now() - round_start >=
                options_.recv_timeout;
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.heartbeats_seen;
          if (counts) ++stats_.heartbeat_misses;
        }
        if (counts && ++non_data_waits >= budget) {
          return Status::Corruption("replica: sync round stalled");
        }
        break;
      }
      case FrameType::kError: {
        Result<ErrorFrame> err = DecodeError(frame.value().payload);
        if (!err.ok()) {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.corrupt_frames;
          return Status::Corruption("replica: unreadable error frame");
        }
        // Terminal refusal (shape mismatch): not retryable.
        return Status::InvalidArgument("replica: leader refused: " +
                                       err.value().message);
      }
      default: {  // unreachable: DecodeFrame rejects unknown types
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.corrupt_frames;
        break;
      }
    }
  }
}

Status ReplicaApplier::SyncWithRetry(Transport* transport) {
  Backoff backoff(options_.retry, options_.seed + 1);
  Status st;
  for (;;) {
    st = SyncOnce(transport);
    if (st.ok()) return st;
    // A dead link is the caller's problem: reconnect, then sync again.
    if (!transport->connected()) return st;
    if (!RoundRetryable(st)) return st;
    if (backoff.attempts() + 1 >= std::max(options_.retry.max_attempts, 1)) {
      return st;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.round_retries;
    }
    std::this_thread::sleep_for(backoff.NextDelay());
  }
}

CertifiedQuantile ReplicaApplier::QueryQuantileCertified(
    const std::vector<std::string>& filter, double phi) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.certified_queries;
  CubeFilter cube_filter(num_dims_, kAnyValue);
  for (size_t d = 0; d < num_dims_ && d < filter.size(); ++d) {
    if (filter[d].empty()) continue;
    Result<uint32_t> id = dicts_[d].Find(filter[d]);
    // Unknown value: matches nothing (an out-of-range constraint), so
    // the query reports empty input rather than erroring.
    cube_filter[d] = id.ok() ? static_cast<int64_t>(id.value())
                             : static_cast<int64_t>(0x100000000LL);
  }
  MomentsSketch moments = store_.QueryWhere(cube_filter);
  const KllSketch* kll = nullptr;
  KllSketch kll_merged;
  if (store_.kll_enabled()) {
    Result<KllSketch> merged = store_.MergeKllWhere(cube_filter);
    if (merged.ok() && merged.value().count() > 0) {
      kll_merged = std::move(merged).value();
      kll = &kll_merged;
    }
  }
  return router_.Query(moments, kll, phi);
}

void ReplicaApplier::Inspect(
    const std::function<void(const CubeStore&,
                             const std::vector<Dictionary>&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  fn(store_, dicts_);
}

ReplicaApplierStats ReplicaApplier::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace msketch
