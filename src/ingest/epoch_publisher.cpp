#include "ingest/epoch_publisher.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "obs/trace.h"

namespace msketch {

EpochPublisher::EpochPublisher(size_t num_dims, int k,
                               const IngestOptions& options,
                               std::vector<IngestShard*> shards)
    : num_dims_(num_dims),
      k_(k),
      options_(options),
      shards_(std::move(shards)) {
  MSKETCH_CHECK(num_dims >= 1);
  MSKETCH_CHECK(k >= 1 && k <= 64);
  MSKETCH_CHECK(options_.snapshot_buffers >= 2);
  MSKETCH_CHECK(!shards_.empty());
  total_buffers_ = options_.snapshot_buffers;
  buffer_epoch_.assign(total_buffers_, 0);
  for (size_t b = 0; b < total_buffers_; ++b) {
    auto snap = std::make_unique<CubeSnapshot>(num_dims_, k_);
    if (options_.enable_kll) snap->store.EnableKll(options_.kll_k);
    snap->buffer_index = b;
    free_.push_back(std::move(snap));
  }
  // Publish an empty epoch-0 snapshot so readers always have a cube.
  // Nothing is drained here: rows already sitting in the shards belong
  // to the first real epoch (epoch 0 is structurally empty, which is
  // what lets the catch-up replay skip it).
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  std::unique_ptr<CubeSnapshot> buf = TakeBuffer();
  if (options_.build_rollup) buf->store.BuildRollup(options_.rollup);
  std::shared_ptr<const CubeSnapshot> snap(
      buf.release(), [this](const CubeSnapshot* s) {
        ReturnBuffer(const_cast<CubeSnapshot*>(s));
      });
  std::atomic_store(&published_, snap);
}

EpochPublisher::~EpochPublisher() {
  Stop();
  // Drop the publisher's own reference, then wait for every reader
  // handle to return its buffer: buffers must not outlive the pool.
  std::atomic_store(&published_, std::shared_ptr<const CubeSnapshot>());
  std::unique_lock<std::mutex> lock(pool_mu_);
  pool_cv_.wait(lock, [&] { return free_.size() == total_buffers_; });
}

std::shared_ptr<const CubeSnapshot> EpochPublisher::Current() const {
  return std::atomic_load(&published_);
}

EpochPublisher::DeltaBatch EpochPublisher::DrainShards() {
  DeltaBatch all;
  for (IngestShard* shard : shards_) {
    DeltaBatch part = shard->Drain();
    std::move(part.begin(), part.end(), std::back_inserter(all));
  }
  // Deterministic application order: cells ascend by coordinates, and
  // the stable sort keeps a cell's multiple shard deltas in shard order
  // (they were appended shard-major above).
  std::stable_sort(all.begin(), all.end(),
                   [](const IngestShard::DeltaCell& a,
                      const IngestShard::DeltaCell& b) {
                     return a.coords < b.coords;
                   });
  return all;
}

std::vector<DeltaRef> DeltaRefsOf(const EpochPublisher::DeltaBatch& batch) {
  std::vector<DeltaRef> refs;
  refs.reserve(batch.size());
  for (const IngestShard::DeltaCell& dc : batch) {
    refs.push_back(
        {&dc.coords, &dc.sketch, dc.kll.count() > 0 ? &dc.kll : nullptr});
  }
  return refs;
}

void EpochPublisher::ApplyBatch(CubeStore* store, const DeltaBatch& batch) {
  const std::vector<DeltaRef> refs = DeltaRefsOf(batch);
  // Arity and order are publisher invariants; a failure here is a
  // programming error, not a data error. The rank-sketch side column
  // replays the same deterministic merge sequence into every buffer, so
  // all buffers stay bit-identical.
  MSKETCH_CHECK(store->ApplyDeltas(refs.data(), refs.size()).ok());
}

std::shared_ptr<const CubeSnapshot> EpochPublisher::Publish() {
  using Clock = std::chrono::steady_clock;
  obs::Span publish_span("ingest.publish");
  std::unique_lock<std::mutex> publish_lock(publish_mu_);
  const Clock::time_point t0 = Clock::now();
  DeltaBatch batch;
  {
    obs::Span drain_span("ingest.drain");
    batch = DrainShards();
  }
  latency_.last_drain_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  latency_.max_drain_ms =
      std::max(latency_.max_drain_ms, latency_.last_drain_ms);
  // The drain ran either way: empty sweeps belong in the distribution
  // too (they are the publisher's idle heartbeat cost).
  drain_h_.Observe(latency_.last_drain_ms * 1e-3);
  if (batch.empty()) {
    // Nothing new arrived: the current snapshot already covers every
    // appended row, so re-publishing would only churn buffers.
    return Current();
  }
  const uint64_t epoch = next_epoch_++;
  if (durability_) {
    // Write-ahead: the batch is offered to the log before any query can
    // observe the epoch. A failure is counted and publication proceeds
    // — the durability layer marks itself broken and re-bases at its
    // next checkpoint; ingest never stalls on a dead disk.
    const Clock::time_point d0 = Clock::now();
    if (!durability_(epoch, batch).ok()) {
      latency_.durability_failures++;
    }
    latency_.last_durability_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - d0).count();
    latency_.max_durability_ms =
        std::max(latency_.max_durability_ms, latency_.last_durability_ms);
    durability_h_.Observe(latency_.last_durability_ms * 1e-3);
  }
  // The epoch's pane delta: merged total of the batch, in batch order.
  MomentsSketch epoch_delta(k_);
  for (const IngestShard::DeltaCell& dc : batch) {
    MSKETCH_CHECK(epoch_delta.Merge(dc.sketch).ok());
  }
  history_.emplace_back(epoch, std::move(batch));

  std::unique_ptr<CubeSnapshot> buf = TakeBuffer();
  // Catch the buffer up on every batch it missed while it was the
  // published snapshot — one batch in steady state. `buf->epoch` is the
  // epoch the buffer has applied through (0 for a fresh buffer; the
  // epoch-0 batch is always empty, so nothing is skipped).
  const Clock::time_point a0 = Clock::now();
  for (const auto& [e, b] : history_) {
    if (e > buf->epoch) ApplyBatch(&buf->store, b);
  }
  buf->epoch = epoch;
  buf->epoch_delta = std::move(epoch_delta);
  const Clock::time_point r0 = Clock::now();
  if (options_.build_rollup) {
    if (buf->store.rollup() == nullptr) {
      buf->store.BuildRollup(options_.rollup);
    } else {
      buf->store.RefreshRollup();
    }
  }
  const Clock::time_point r1 = Clock::now();
  latency_.last_apply_ms =
      std::chrono::duration<double, std::milli>(r0 - a0).count();
  latency_.last_refresh_ms =
      std::chrono::duration<double, std::milli>(r1 - r0).count();
  apply_h_.Observe(latency_.last_apply_ms * 1e-3);
  refresh_h_.Observe(latency_.last_refresh_ms * 1e-3);
  buffer_epoch_[buf->buffer_index] = epoch;
  // Batches already replayed into every buffer can go.
  const uint64_t applied_min =
      *std::min_element(buffer_epoch_.begin(), buffer_epoch_.end());
  while (!history_.empty() && history_.front().first <= applied_min) {
    history_.pop_front();
  }

  std::shared_ptr<const CubeSnapshot> snap(
      buf.release(), [this](const CubeSnapshot* s) {
        ReturnBuffer(const_cast<CubeSnapshot*>(s));
      });
  std::atomic_store(&published_, snap);
  epochs_published_.fetch_add(1, std::memory_order_relaxed);
  latency_.last_publish_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  latency_.max_publish_ms =
      std::max(latency_.max_publish_ms, latency_.last_publish_ms);
  publish_h_.Observe(latency_.last_publish_ms * 1e-3);
  // The sink runs outside publish_mu_ so it may query the publisher
  // (Current, lag_batches); sink_mu_ is taken before the publish lock
  // drops, which keeps sink invocations in epoch order.
  std::lock_guard<std::mutex> sink_lock(sink_mu_);
  publish_lock.unlock();
  if (sink_) sink_(*snap);
  return snap;
}

Status EpochPublisher::Restore(uint64_t epoch, const CubeStore& store) {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  if (next_epoch_ != 1 || !history_.empty()) {
    return Status::InvalidArgument(
        "Restore: publisher has already published real epochs");
  }
  // Drop the constructor's epoch-0 snapshot and wait for its buffer (no
  // reader can hold a handle yet — recovery owns the cube privately).
  std::atomic_store(&published_, std::shared_ptr<const CubeSnapshot>());
  std::unique_lock<std::mutex> pool_lock(pool_mu_);
  pool_cv_.wait(pool_lock, [&] { return free_.size() == total_buffers_; });
  for (std::unique_ptr<CubeSnapshot>& buf : free_) {
    buf->store = store;  // copy-assign re-points the cached column bases
    buf->epoch = epoch;
    buf->epoch_delta = MomentsSketch(k_);
    if (options_.build_rollup) buf->store.BuildRollup(options_.rollup);
  }
  pool_lock.unlock();
  buffer_epoch_.assign(total_buffers_, epoch);
  next_epoch_ = epoch + 1;
  std::unique_ptr<CubeSnapshot> buf = TakeBuffer();
  std::shared_ptr<const CubeSnapshot> snap(
      buf.release(), [this](const CubeSnapshot* s) {
        ReturnBuffer(const_cast<CubeSnapshot*>(s));
      });
  std::atomic_store(&published_, snap);
  return Status::OK();
}

std::unique_ptr<CubeSnapshot> EpochPublisher::TakeBuffer() {
  std::unique_lock<std::mutex> lock(pool_mu_);
  pool_cv_.wait(lock, [&] { return !free_.empty(); });
  // FIFO: take the longest-idle buffer so every pool member cycles
  // through publishes. LIFO would let a third buffer sit idle forever
  // with its applied-epoch stuck at 0, pinning the whole batch history
  // in memory (the trim below keys off the minimum applied epoch).
  std::unique_ptr<CubeSnapshot> buf = std::move(free_.front());
  free_.pop_front();
  return buf;
}

void EpochPublisher::ReturnBuffer(CubeSnapshot* snap) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  free_.emplace_back(snap);
  pool_cv_.notify_all();
}

void EpochPublisher::Start() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (loop_.joinable()) return;
  stop_requested_ = false;
  loop_ = std::thread([this] {
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(stop_mu_);
        stop_cv_.wait_for(lk, options_.epoch_interval,
                          [&] { return stop_requested_; });
        if (stop_requested_) return;
      }
      Publish();
    }
  });
}

void EpochPublisher::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
    to_join = std::move(loop_);
  }
  stop_cv_.notify_all();
  if (to_join.joinable()) to_join.join();
}

}  // namespace msketch
