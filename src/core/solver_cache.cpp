#include "core/solver_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/chebyshev_moments.h"
#include "obs/metrics.h"

namespace msketch {

namespace {

void AppendBytes(std::string* key, const void* data, size_t n) {
  key->append(static_cast<const char*>(data), n);
}

void AppendDoubleBits(std::string* key, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  AppendBytes(key, &bits, sizeof(bits));
}

void AppendQuantized(std::string* key, const std::vector<double>& values,
                     double quantum) {
  for (double v : values) {
    const int64_t q = std::llround(v / quantum);
    AppendBytes(key, &q, sizeof(q));
  }
}

SolverCacheOptions Normalize(SolverCacheOptions options) {
  if (options.capacity == 0) options.capacity = 1;
  if (!(options.quantum > 0.0)) options.quantum = 1e-9;
  if (options.segments == 0) options.segments = 1;
  // More segments than entries would make per-segment capacity zero.
  options.segments = std::min(options.segments, options.capacity);
  return options;
}

}  // namespace

SolverCache::SolverCache(SolverCacheOptions options)
    : opt_(Normalize(options)),
      per_segment_capacity_(
          (opt_.capacity + opt_.segments - 1) / opt_.segments),
      segments_(opt_.segments) {}

std::unique_lock<std::mutex> SolverCache::LockSegment(Segment& seg) {
  std::unique_lock<std::mutex> lock(seg.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    lock.lock();
    // Counted under the lock we just won; contention on the counter
    // itself is impossible.
    ++seg.stats.lock_contention;
  }
  return lock;
}

std::string SolverCache::MakeKey(const MomentsSketch& sketch,
                                 const MaxEntOptions& options) const {
  std::string key;
  key.reserve(16 + 16 * (sketch.k() + 1) * 2 + 64);
  const int32_t k = sketch.k();
  AppendBytes(&key, &k, sizeof(k));
  // Domain: the distribution maps scaled quantiles back through min/max,
  // so those must match exactly for a hit to be reusable.
  AppendDoubleBits(&key, sketch.min());
  AppendDoubleBits(&key, sketch.max());
  // The solver consumes scaled Chebyshev moments, not raw power sums; two
  // sketches with equal scaled moments solve to the same distribution
  // regardless of count.
  const ScaleMap std_map = MakeScaleMap(sketch.min(), sketch.max());
  AppendQuantized(&key, PowerMomentsToChebyshev(sketch.StandardMoments(),
                                                std_map),
                  opt_.quantum);
  const uint8_t log_usable = sketch.LogMomentsUsable() ? 1 : 0;
  AppendBytes(&key, &log_usable, sizeof(log_usable));
  if (log_usable) {
    const ScaleMap log_map =
        MakeScaleMap(std::log(sketch.min()), std::log(sketch.max()));
    AppendQuantized(&key,
                    PowerMomentsToChebyshev(sketch.LogMoments(), log_map),
                    opt_.quantum);
  }
  // Options fingerprint: every knob that changes the solution.
  AppendDoubleBits(&key, options.kappa_max);
  AppendDoubleBits(&key, options.grad_tol);
  AppendDoubleBits(&key, options.warm_gate);
  const int32_t ints[] = {options.min_grid, options.max_grid,
                          options.max_newton_iter, options.max_k1,
                          options.max_k2};
  AppendBytes(&key, ints, sizeof(ints));
  const uint8_t flags = (options.use_std_moments ? 1 : 0) |
                        (options.use_log_moments ? 2 : 0);
  AppendBytes(&key, &flags, sizeof(flags));
  return key;
}

std::shared_ptr<const MaxEntDistribution> SolverCache::Lookup(
    const MomentsSketch& sketch, const MaxEntOptions& options,
    std::string* key_out) {
  if (sketch.count() == 0) return nullptr;
  std::string key = MakeKey(sketch, options);
  Segment& seg = SegmentFor(key);
  auto lock = LockSegment(seg);
  auto it = seg.map.find(key);
  if (key_out != nullptr) *key_out = std::move(key);
  if (it == seg.map.end()) {
    ++seg.stats.misses;
    return nullptr;
  }
  ++seg.stats.hits;
  seg.lru.splice(seg.lru.begin(), seg.lru, it->second);
  return it->second->second;
}

void SolverCache::Insert(const MomentsSketch& sketch,
                         const MaxEntOptions& options,
                         std::shared_ptr<const MaxEntDistribution> dist) {
  if (sketch.count() == 0 || dist == nullptr) return;
  InsertWithKey(MakeKey(sketch, options), std::move(dist));
}

void SolverCache::InsertWithKey(
    std::string key, std::shared_ptr<const MaxEntDistribution> dist) {
  if (key.empty() || dist == nullptr) return;
  Segment& seg = SegmentFor(key);
  auto lock = LockSegment(seg);
  auto it = seg.map.find(key);
  if (it != seg.map.end()) {
    // Keep the first solution: concurrent solvers of quantized-equal
    // sketches may race here, and stability beats last-writer-wins.
    seg.lru.splice(seg.lru.begin(), seg.lru, it->second);
    return;
  }
  seg.lru.emplace_front(key, std::move(dist));
  seg.map.emplace(std::move(key), seg.lru.begin());
  ++seg.stats.insertions;
  while (seg.map.size() > per_segment_capacity_) {
    seg.map.erase(seg.lru.back().first);
    seg.lru.pop_back();
    ++seg.stats.evictions;
  }
}

CacheStats SolverCache::stats() const {
  CacheStats total;
  for (const Segment& seg : segments_) {
    std::lock_guard<std::mutex> lock(seg.mu);
    total.MergeFrom(seg.stats);
  }
  return total;
}

size_t SolverCache::size() const {
  size_t total = 0;
  for (const Segment& seg : segments_) {
    std::lock_guard<std::mutex> lock(seg.mu);
    total += seg.map.size();
  }
  return total;
}

void SolverCache::Clear() {
  for (Segment& seg : segments_) {
    std::lock_guard<std::mutex> lock(seg.mu);
    seg.lru.clear();
    seg.map.clear();
    seg.stats = CacheStats{};
  }
}

SolverCache& GlobalSolverCache() {
  // Sized like BatchOptions::cache_capacity: a thousand distinct
  // selections re-estimated across queries. An entry holds ~5.3 KB of
  // heap (a 513-point CDF table, the warm-start seed, the key and the
  // LRU/map nodes), so a full cache holds ~5.4 MB.
  static SolverCache* cache =
      new SolverCache(SolverCacheOptions{1024, 1e-9, 8});
  return *cache;
}

Result<std::shared_ptr<const MaxEntDistribution>> SolveCached(
    const MomentsSketch& sketch, const MaxEntOptions& options,
    const WarmStart* hint, bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  SolverCache* cache =
      options.use_solver_cache ? &GlobalSolverCache() : nullptr;
  std::string key;
  if (cache != nullptr) {
    if (auto dist = cache->Lookup(sketch, options, &key)) {
      if (cache_hit != nullptr) *cache_hit = true;
      return dist;
    }
  }
  MSKETCH_ASSIGN_OR_RETURN(MaxEntDistribution solved,
                           SolveMaxEnt(sketch, options, hint));
  auto dist = std::make_shared<const MaxEntDistribution>(std::move(solved));
  if (cache != nullptr) cache->InsertWithKey(std::move(key), dist);
  return dist;
}

namespace {

// Scrape-time collector for the process-wide cache; registered at load
// time (not lazily inside GlobalSolverCache) so a scrape shows the
// cache families — at zero — even before the first cached estimate,
// and never removed (the cache is immortal). Segment stats are read
// under their own locks inside stats(). Both singletons involved are
// function-local statics, so the init-order here is safe.
const int g_cache_collector_id = obs::GlobalRegistry().AddCollector(
    [](obs::MetricsEmitter& em) {
      const CacheStats s = GlobalSolverCache().stats();
      em.EmitCounter("msk_solver_cache_hits_total", {},
                     "Global solver-cache hits", s.hits);
      em.EmitCounter("msk_solver_cache_misses_total", {},
                     "Global solver-cache misses", s.misses);
      em.EmitCounter("msk_solver_cache_insertions_total", {},
                     "Global solver-cache insertions", s.insertions);
      em.EmitCounter("msk_solver_cache_evictions_total", {},
                     "Global solver-cache LRU evictions", s.evictions);
      em.EmitCounter("msk_solver_cache_lock_contention_total", {},
                     "Contended segment-lock acquisitions",
                     s.lock_contention);
      em.EmitGauge("msk_solver_cache_size", {},
                   "Entries resident in the global solver cache",
                   static_cast<double>(GlobalSolverCache().size()));
    });

}  // namespace

}  // namespace msketch
