#include "ingest/ingest_shard.h"

#include <algorithm>
#include <thread>

#include "common/macros.h"

namespace msketch {
namespace {

// Spins with pause before yielding in the token and backpressure waits:
// long enough to ride out another writer's append, short enough that a
// preempted owner (single-core hosts) gets the CPU back quickly.
constexpr int kTokenSpins = 128;
constexpr int kBackpressureSpins = 1024;
// The publisher's bounded wait for a mid-append writer. Interleaved
// yields keep a preempted writer schedulable; past the bound the parked
// rows simply ride the next epoch.
constexpr int kStealSpins = 65536;
constexpr int kStealYieldEvery = 1024;
// Yields between stall-budget clock reads: the deadline only matters at
// multi-second granularity, so the backpressure loop checks the clock
// rarely enough that the steady-state wait stays syscall-free.
constexpr int kStallCheckEveryYields = 64;

constexpr size_t kDirNotFound = static_cast<size_t>(-1);
// SlotOf's stall-budget failure sentinel (distinct from kDirNotFound,
// which never escapes DirFind).
constexpr size_t kSlotStalled = static_cast<size_t>(-2);

}  // namespace

const char IngestShard::held_marker_ = 0;

IngestShard::IngestShard(size_t num_dims, int k, size_t batch_size,
                         size_t chunk_cells, size_t chunks,
                         std::chrono::milliseconds stall_budget, int kll_k)
    : num_dims_(num_dims),
      k_(k),
      batch_size_(batch_size),
      chunk_cells_(chunk_cells),
      stall_budget_(stall_budget),
      full_ring_(chunks),
      free_ring_(chunks) {
  MSKETCH_CHECK(num_dims >= 1);
  MSKETCH_CHECK(k >= 1 && k <= 64);
  MSKETCH_CHECK(batch_size >= 1);
  MSKETCH_CHECK(chunk_cells >= 1);
  MSKETCH_CHECK(chunks >= 2);
  pool_.reserve(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    pool_.push_back(
        std::make_unique<DeltaChunk>(k, chunk_cells, batch_size, kll_k));
    MSKETCH_CHECK(free_ring_.Push(pool_.back().get()));
  }
  size_t dir_cap = 1;
  while (dir_cap < 2 * chunk_cells) dir_cap <<= 1;
  dir_.assign(dir_cap, 0);
  dir_mask_ = dir_cap - 1;
}

DeltaChunk* IngestShard::AcquireCurrent() {
  int spins = 0;
  for (;;) {
    DeltaChunk* cur = parked_.load(std::memory_order_relaxed);
    if (cur != Held()) {
      if (parked_.compare_exchange_weak(cur, Held(),
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        return cur;
      }
      continue;  // lost a race; the new state decides the next move
    }
    if (++spins < kTokenSpins) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
}

void IngestShard::Park(DeltaChunk* chunk) {
  parked_.store(chunk, std::memory_order_release);
}

DeltaChunk* IngestShard::StealParked() {
  for (int spins = 0; spins < kStealSpins; ++spins) {
    DeltaChunk* cur = parked_.load(std::memory_order_relaxed);
    if (cur == nullptr) return nullptr;  // no working chunk
    if (cur != Held()) {
      if (parked_.compare_exchange_weak(cur, nullptr,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        return cur;
      }
      continue;
    }
    if (spins % kStealYieldEvery == kStealYieldEvery - 1) {
      std::this_thread::yield();
    } else {
      CpuRelax();
    }
  }
  steal_giveups_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;  // writer mid-append: its rows ride the next epoch
}

DeltaChunk* IngestShard::TakeFresh(size_t rows_at_stake) {
  DeltaChunk* chunk = nullptr;
  if (!free_ring_.Pop(&chunk)) {
    // Pool exhausted: the publisher is behind. Spin-then-yield until a
    // drain recycles a chunk; never drop rows, never allocate. The
    // stall budget bounds the wait: a publisher that died (or was never
    // started) must surface as an error, not an unkillable spin loop.
    backpressure_events_.fetch_add(1, std::memory_order_relaxed);
    rows_backpressured_.fetch_add(rows_at_stake, std::memory_order_relaxed);
    const bool bounded = stall_budget_.count() > 0;
    std::chrono::steady_clock::time_point deadline;
    int spins = 0;
    int yields = 0;
    while (!free_ring_.Pop(&chunk)) {
      if (++spins < kBackpressureSpins) {
        CpuRelax();
        continue;
      }
      std::this_thread::yield();
      if (!bounded) continue;
      // The clock is read only on this slow path, and only every few
      // dozen yields — a stalled writer burns no syscall budget and a
      // healthy one never gets here.
      if (++yields == 1) {
        deadline = std::chrono::steady_clock::now() + stall_budget_;
      } else if (yields % kStallCheckEveryYields == 0 &&
                 std::chrono::steady_clock::now() >= deadline) {
        deadline_events_.fetch_add(1, std::memory_order_relaxed);
        rows_deadline_failed_.fetch_add(rows_at_stake,
                                        std::memory_order_relaxed);
        return nullptr;
      }
    }
  }
  chunk->set_session(next_session_++);
  std::fill(dir_.begin(), dir_.end(), uint64_t{0});
  return chunk;
}

Status IngestShard::StallError(size_t dropped) const {
  return Status::DeadlineExceeded(
      "ingest backpressure stall exceeded " +
      std::to_string(stall_budget_.count()) +
      "ms (no drainer recycling chunks — publisher stopped or wedged); " +
      std::to_string(dropped) + " row(s) not appended");
}

void IngestShard::Seal(DeltaChunk* chunk, uint64_t* uncounted) {
  // Rows pushed by the in-progress call must be visible in
  // rows_appended_ before the chunk can publish (readers assert that
  // published rows never exceed appended rows).
  if (*uncounted > 0) {
    rows_appended_.fetch_add(*uncounted, std::memory_order_relaxed);
    *uncounted = 0;
  }
  chunk->FoldAll();
  MSKETCH_CHECK(full_ring_.Push(chunk));  // ring capacity == pool size
  chunks_sealed_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t occ = full_ring_.SizeApprox();
  uint64_t hw = full_ring_high_water_.load(std::memory_order_relaxed);
  while (occ > hw && !full_ring_high_water_.compare_exchange_weak(
                         hw, occ, std::memory_order_relaxed,
                         std::memory_order_relaxed)) {
  }
}

size_t IngestShard::DirFind(DeltaChunk* chunk, const CubeCoords& coords,
                            uint64_t hash) {
  size_t idx = hash & dir_mask_;
  const uint32_t want_tag = static_cast<uint32_t>(hash);
  for (;;) {
    const uint64_t entry = dir_[idx];
    if (entry == 0) return kDirNotFound;
    if (static_cast<uint32_t>(entry >> 32) == want_tag) {
      const size_t slot = static_cast<size_t>(entry & 0xffffffffu) - 1;
      if (chunk->SlotCoords(slot) == coords) return slot;
    }
    idx = (idx + 1) & dir_mask_;
  }
}

void IngestShard::DirInsert(uint64_t hash, size_t slot) {
  size_t idx = hash & dir_mask_;
  while (dir_[idx] != 0) idx = (idx + 1) & dir_mask_;
  dir_[idx] = (static_cast<uint64_t>(static_cast<uint32_t>(hash)) << 32) |
              static_cast<uint64_t>(slot + 1);
}

size_t IngestShard::SlotOf(DeltaChunk** chunk, const CubeCoords& coords,
                           size_t rows_at_stake, uint64_t* uncounted) {
  const uint64_t hash = CubeCoordsHash()(coords);
  const size_t found = DirFind(*chunk, coords, hash);
  if (found != kDirNotFound) return found;
  if ((*chunk)->full()) {
    Seal(*chunk, uncounted);
    *chunk = TakeFresh(rows_at_stake);
    if (*chunk == nullptr) return kSlotStalled;
  }
  const size_t slot = (*chunk)->AddSlot(coords);
  DirInsert(hash, slot);
  return slot;
}

Status IngestShard::Append(const CubeCoords& coords, double value) {
  MSKETCH_DCHECK(coords.size() == num_dims_);
  DeltaChunk* chunk = AcquireCurrent();
  if (chunk == nullptr) chunk = TakeFresh(1);
  if (chunk == nullptr) {
    Park(nullptr);  // release the token with no working chunk
    return StallError(1);
  }
  uint64_t uncounted = 0;
  const size_t slot = SlotOf(&chunk, coords, 1, &uncounted);
  if (slot == kSlotStalled) {
    Park(nullptr);
    return StallError(1);
  }
  chunk->Push(slot, value);
  rows_appended_.fetch_add(1, std::memory_order_relaxed);
  Park(chunk);
  return Status::OK();
}

Status IngestShard::AppendBatch(const CubeCoords& coords,
                                const double* values, size_t n) {
  MSKETCH_DCHECK(coords.size() == num_dims_);
  if (n == 0) return Status::OK();
  DeltaChunk* chunk = AcquireCurrent();
  if (chunk == nullptr) chunk = TakeFresh(n);
  if (chunk == nullptr) {
    Park(nullptr);
    return StallError(n);
  }
  uint64_t uncounted = 0;
  const size_t slot = SlotOf(&chunk, coords, n, &uncounted);
  if (slot == kSlotStalled) {
    Park(nullptr);
    return StallError(n);
  }
  chunk->PushRun(slot, values, n);
  rows_appended_.fetch_add(n, std::memory_order_relaxed);
  Park(chunk);
  return Status::OK();
}

Status IngestShard::AppendRows(const IngestRow* rows, size_t n) {
  if (n == 0) return Status::OK();
  DeltaChunk* chunk = AcquireCurrent();
  if (chunk == nullptr) chunk = TakeFresh(n);
  if (chunk == nullptr) {
    Park(nullptr);
    return StallError(n);
  }
  uint64_t uncounted = 0;
  // Last-cell memo: feeds are bursty (runs of rows for one cell), and
  // the directory probe is the next cost after the buffered store. The
  // memo pointer targets the chunk's slot-coords storage, which is
  // stable until the chunk seals — and a seal routes the next row
  // through SlotOf, which refreshes the memo.
  const CubeCoords* last = nullptr;
  size_t last_slot = 0;
  size_t appended = n;
  for (size_t i = 0; i < n; ++i) {
    const IngestRow& r = rows[i];
    MSKETCH_DCHECK(r.coords.size() == num_dims_);
    size_t slot;
    if (last != nullptr && *last == r.coords) {
      slot = last_slot;
    } else {
      slot = SlotOf(&chunk, r.coords, n - i, &uncounted);
      if (slot == kSlotStalled) {
        // Rows [0, i) are buffered (and already sealed to the
        // publisher); the rest were dropped by the stall.
        appended = i;
        break;
      }
      last = &chunk->SlotCoords(slot);
      last_slot = slot;
    }
    chunk->Push(slot, r.value);
    ++uncounted;
  }
  rows_appended_.fetch_add(uncounted, std::memory_order_relaxed);
  Park(chunk);  // nullptr after a stall: token released, no working chunk
  if (appended < n) return StallError(n - appended);
  return Status::OK();
}

void IngestShard::Drain(EpochDelta* out) {
  MSKETCH_DCHECK(out->num_dims() == num_dims_ && out->k() == k_);
  std::vector<DeltaChunk*> chunks;
  DeltaChunk* c = nullptr;
  // Wait-free sweep: everything already sealed, then the parked working
  // chunk (bounded wait), then anything sealed while we were stealing.
  while (full_ring_.Pop(&c)) chunks.push_back(c);
  if (DeltaChunk* stolen = StealParked()) {
    stolen->FoldAll();
    chunks.push_back(stolen);
  }
  while (full_ring_.Pop(&c)) chunks.push_back(c);
  // Service-entry order == seal order == per-cell delta order: the
  // ring is FIFO but the stolen chunk and the post-steal sweep can
  // arrive out of sequence.
  std::sort(chunks.begin(), chunks.end(),
            [](const DeltaChunk* a, const DeltaChunk* b) {
              return a->session() < b->session();
            });

  for (DeltaChunk* chunk : chunks) {
    const FlatMomentColumns view = chunk->View();
    const size_t used = chunk->used();
    for (size_t s = 0; s < used; ++s) {
      if (view.counts[s] == 0) continue;
      // Slot lanes start at +0.0 and only ever add, so the bit copy
      // equals a MergeFlat of the slot into an empty sketch.
      // An empty rank sketch is left out, so the record carries no KLL
      // delta for the cell.
      if (chunk->kll_enabled() && chunk->SlotKll(s).count() > 0) {
        const KllView kll = chunk->SlotKll(s).View();
        out->Append(chunk->SlotCoords(s).data(), view, s, &kll);
      } else {
        out->Append(chunk->SlotCoords(s).data(), view, s, nullptr);
      }
    }
    chunk->Reset();
    MSKETCH_CHECK(free_ring_.Push(chunk));
    chunks_drained_.fetch_add(1, std::memory_order_relaxed);
  }
}

IngestShardStats IngestShard::stats() const {
  IngestShardStats s;
  s.rows_appended = rows_appended_.load(std::memory_order_relaxed);
  s.rows_backpressured =
      rows_backpressured_.load(std::memory_order_relaxed);
  s.backpressure_events =
      backpressure_events_.load(std::memory_order_relaxed);
  s.chunks_sealed = chunks_sealed_.load(std::memory_order_relaxed);
  s.chunks_drained = chunks_drained_.load(std::memory_order_relaxed);
  s.full_ring_high_water =
      full_ring_high_water_.load(std::memory_order_relaxed);
  s.steal_giveups = steal_giveups_.load(std::memory_order_relaxed);
  s.deadline_events = deadline_events_.load(std::memory_order_relaxed);
  s.rows_deadline_failed =
      rows_deadline_failed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace msketch
