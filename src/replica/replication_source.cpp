#include "replica/replication_source.h"

#include <thread>
#include <utility>

#include "common/crc32c.h"
#include "common/macros.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replica/frame.h"

namespace msketch {

ReplicationSource::ReplicationSource(ReplicationOptions options)
    : options_(options) {
  MSKETCH_CHECK(options_.history_epochs >= 1);
  MSKETCH_CHECK(options_.chunk_bytes >= 1);
  // Scrape-time collector, mirroring the StreamingCube pattern: the
  // frame pumps touch only the local stats_ under mu_; the registry is
  // only read at scrape.
  obs_collector_id_ = obs::GlobalRegistry().AddCollector(
      [this](obs::MetricsEmitter& em) {
        const ReplicationSourceStats s = stats();
        em.EmitCounter("msk_replica_epochs_shipped_total", {},
                       "Epoch delta records shipped to followers",
                       s.epochs_shipped);
        em.EmitCounter("msk_replica_snapshots_shipped_total", {},
                       "Full snapshot transfers started", s.snapshots_shipped);
        em.EmitCounter("msk_replica_chunks_shipped_total", {},
                       "Snapshot chunks shipped", s.chunks_shipped);
        em.EmitCounter("msk_replica_bytes_shipped_total", {},
                       "Replication payload bytes shipped", s.bytes_shipped);
        em.EmitCounter("msk_replica_heartbeats_sent_total", {},
                       "Leader heartbeats sent", s.heartbeats_sent);
        em.EmitCounter("msk_replica_send_retries_total", {},
                       "Frame sends retried after a transient failure",
                       s.send_retries);
        em.EmitCounter("msk_replica_send_failures_total", {},
                       "Frame sends abandoned (budget exhausted or "
                       "non-retryable)",
                       s.send_failures);
        em.EmitGauge("msk_replica_bytes_in_flight", {},
                     "Snapshot bytes queued for the current transfer",
                     static_cast<double>(s.bytes_in_flight));
      });
}

ReplicationSource::~ReplicationSource() {
  obs::GlobalRegistry().RemoveCollector(obs_collector_id_);
}

void ReplicationSource::SetSnapshotProvider(SnapshotProvider provider) {
  std::lock_guard<std::mutex> lock(mu_);
  provider_ = std::move(provider);
}

void ReplicationSource::SetShape(int k, size_t num_dims, int kll_k) {
  std::lock_guard<std::mutex> lock(mu_);
  k_ = k;
  num_dims_ = num_dims;
  kll_k_ = kll_k;
  shape_set_ = true;
}

void ReplicationSource::OnEpoch(uint64_t epoch, EpochRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  history_.push_back({epoch, std::move(record)});
  while (history_.size() > options_.history_epochs) {
    history_.pop_front();
    ++stats_.history_evictions;
  }
  current_epoch_.store(epoch, std::memory_order_release);
}

Status ReplicationSource::SendWithRetry(Transport* t,
                                        const std::vector<uint8_t>& wire) {
  Backoff backoff(options_.send_backoff, options_.seed);
  Status st;
  for (;;) {
    st = t->Send(wire);
    if (st.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.bytes_shipped += wire.size();
      return st;
    }
    if (!backoff.ShouldRetry(st)) break;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.send_retries;
    }
    std::this_thread::sleep_for(backoff.NextDelay());
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.send_failures;
  return st;
}

Status ReplicationSource::ShipSnapshot(Transport* t,
                                       const SnapshotImage& image,
                                       uint32_t first_chunk) {
  const std::vector<uint8_t>& bytes = *image.bytes;
  const size_t chunk_bytes = options_.chunk_bytes;
  const uint32_t num_chunks = static_cast<uint32_t>(
      (bytes.size() + chunk_bytes - 1) / chunk_bytes);
  SnapBeginFrame begin;
  begin.snapshot_epoch = image.epoch;
  begin.total_bytes = bytes.size();
  begin.num_chunks = num_chunks;
  begin.chunk_bytes = static_cast<uint32_t>(chunk_bytes);
  begin.first_chunk = first_chunk;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.bytes_in_flight =
        bytes.size() - static_cast<size_t>(first_chunk) * chunk_bytes;
  }
  MSKETCH_RETURN_IF_ERROR(SendWithRetry(
      t, EncodeFrame(FrameType::kSnapBegin, EncodeSnapBegin(begin))));
  for (uint32_t c = first_chunk; c < num_chunks; ++c) {
    SnapChunkFrame chunk;
    chunk.chunk_index = c;
    const size_t off = static_cast<size_t>(c) * chunk_bytes;
    const size_t len = std::min(chunk_bytes, bytes.size() - off);
    chunk.bytes.assign(bytes.begin() + off, bytes.begin() + off + len);
    MSKETCH_RETURN_IF_ERROR(SendWithRetry(
        t, EncodeFrame(FrameType::kSnapChunk, EncodeSnapChunk(chunk))));
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.chunks_shipped;
    stats_.bytes_in_flight -= std::min<uint64_t>(stats_.bytes_in_flight, len);
  }
  SnapEndFrame end;
  end.snapshot_epoch = image.epoch;
  end.image_crc = crc32c::Mask(crc32c::Value(bytes.data(), bytes.size()));
  return SendWithRetry(t,
                       EncodeFrame(FrameType::kSnapEnd, EncodeSnapEnd(end)));
}

Status ReplicationSource::SendCaughtUp(Transport* t, uint64_t through,
                                       uint64_t round) {
  CaughtUpFrame caught;
  caught.through_epoch = through;
  caught.round = round;
  return SendWithRetry(
      t, EncodeFrame(FrameType::kCaughtUp, EncodeCaughtUp(caught)));
}

Status ReplicationSource::ShipDeltasAndCaughtUp(Transport* t,
                                                uint64_t after_epoch,
                                                uint64_t round) {
  // Take the records to ship under the lock, ship them outside it
  // (OnEpoch keeps running); the records themselves are shared.
  std::vector<EpochRecord> records;
  uint64_t through = after_epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const HistoryEntry& e : history_) {
      if (e.epoch <= after_epoch) continue;
      // Records must chain consecutively onto `after_epoch`; a gap
      // (evicted prefix) means the rest is stale — ship nothing past
      // it and let the follower detect the shortfall and resync.
      if (e.epoch != through + 1) break;
      records.push_back(e.record);
      through = e.epoch;
    }
  }
  for (const EpochRecord& rec : records) {
    MSKETCH_RETURN_IF_ERROR(
        SendWithRetry(t, EncodeFrame(FrameType::kDelta, *rec)));
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.epochs_shipped;
  }
  return SendCaughtUp(t, through, round);
}

Status ReplicationSource::HandleHello(Transport* t, const HelloFrame& hello) {
  obs::Span span("replica.ship");
  bool shape_mismatch = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hellos_served;
    shape_mismatch =
        shape_set_ &&
        (hello.k != static_cast<uint32_t>(k_) || hello.num_dims != num_dims_ ||
         hello.kll_k != static_cast<uint32_t>(kll_k_));
  }
  if (shape_mismatch) {
    ErrorFrame err;
    err.code = static_cast<uint32_t>(StatusCode::kInvalidArgument);
    err.message = "replica shape does not match the leader";
    Status st =
        SendWithRetry(t, EncodeFrame(FrameType::kError, EncodeError(err)));
    return st.ok() ? Status::InvalidArgument(err.message) : st;
  }

  // Resume a cached snapshot transfer if the follower asks and the
  // image is still the one we cut.
  SnapshotImage resume_image;
  bool resume = false;
  if (hello.resume) {
    std::lock_guard<std::mutex> lock(mu_);
    if (cached_snapshot_.bytes != nullptr &&
        cached_snapshot_.epoch == hello.resume_epoch) {
      resume_image = cached_snapshot_;
      resume = true;
      ++stats_.snapshots_resumed;
    }
  }
  if (resume) {
    MSKETCH_RETURN_IF_ERROR(
        ShipSnapshot(t, resume_image, hello.resume_next_chunk));
    return ShipDeltasAndCaughtUp(t, resume_image.epoch, hello.round);
  }

  const uint64_t current = current_epoch();
  if (hello.have_epoch >= current) {
    return SendCaughtUp(t, current, hello.round);
  }

  // Delta catch-up when the history still chains onto have_epoch.
  bool deltas_cover = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    deltas_cover = !history_.empty() &&
                   history_.front().epoch <= hello.have_epoch + 1;
  }
  if (deltas_cover) {
    return ShipDeltasAndCaughtUp(t, hello.have_epoch, hello.round);
  }

  // Full resync: cut (and cache) a fresh snapshot, ship it chunked,
  // then the deltas the history holds beyond it.
  SnapshotProvider provider;
  {
    std::lock_guard<std::mutex> lock(mu_);
    provider = provider_;
  }
  if (!provider) {
    return Status::Unsupported("replication source has no snapshot provider");
  }
  Result<SnapshotImage> image = provider();
  if (!image.ok()) return image.status();
  {
    std::lock_guard<std::mutex> lock(mu_);
    cached_snapshot_ = image.value();
    ++stats_.snapshots_shipped;
  }
  MSKETCH_RETURN_IF_ERROR(ShipSnapshot(t, image.value(), 0));
  return ShipDeltasAndCaughtUp(t, image.value().epoch, hello.round);
}

Status ReplicationSource::Serve(Transport* transport) {
  stop_requested_.store(false, std::memory_order_release);
  auto last_send = std::chrono::steady_clock::now();
  // Heartbeats carry it so the follower can tell heartbeats that queued
  // up before its current round from ones sent after serving it.
  uint64_t served_round = 0;
  for (;;) {
    if (stop_requested_.load(std::memory_order_acquire)) {
      return Status::OK();
    }
    if (!transport->connected()) {
      return Status::Unavailable("replica link closed");
    }
    Result<std::vector<uint8_t>> wire = transport->Recv(options_.recv_poll);
    if (!wire.ok()) {
      if (!transport->connected()) return wire.status();
      // Idle: heartbeat so the follower can tell quiet from dead.
      const auto now = std::chrono::steady_clock::now();
      if (now - last_send >= options_.heartbeat_interval) {
        HeartbeatFrame hb;
        hb.current_epoch = current_epoch();
        hb.round = served_round;
        Status st = SendWithRetry(
            transport,
            EncodeFrame(FrameType::kHeartbeat, EncodeHeartbeat(hb)));
        if (!st.ok() && !transport->connected()) return st;
        last_send = now;
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.heartbeats_sent;
      }
      continue;
    }
    Result<Frame> frame = DecodeFrame(wire.value());
    if (!frame.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.corrupt_requests;
      continue;  // the follower retries its request
    }
    switch (frame.value().type) {
      case FrameType::kHello: {
        Result<HelloFrame> hello = DecodeHello(frame.value().payload);
        if (!hello.ok()) {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.corrupt_requests;
          break;
        }
        served_round = hello.value().round;
        Status st = HandleHello(transport, hello.value());
        if (!st.ok() && !transport->connected()) return st;
        last_send = std::chrono::steady_clock::now();
        break;
      }
      case FrameType::kHeartbeat:
        break;  // follower liveness probe; nothing to do
      default: {
        // A follower never sends data frames; count and ignore.
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.corrupt_requests;
        break;
      }
    }
  }
}

void ReplicationSource::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
}

ReplicationSourceStats ReplicationSource::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace msketch
