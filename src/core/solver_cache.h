// Memoization of solved maximum entropy distributions.
//
// A high-cardinality group-by pays a ~1 ms Newton solve per group; real
// workloads repeat groups across queries (dashboards re-polling) and
// contain many cells whose merged moments are identical (uniform shards
// of the same stream). The cache keys on the *scaled Chebyshev moments*
// quantized to a small absolute grid — the quantities the solver actually
// fits — plus the exact min/max bits and a fingerprint of the solver
// options, so a hit returns a distribution that a fresh solve would have
// reproduced to within the quantization (bit-identical for identical
// sketches, since the solver is deterministic).
//
// Thread-safe and lock-striped: entries are spread over `segments`
// independent LRU shards by the hash of the quantized-moment key, so
// multi-threaded batch workers stop serializing on one mutex. Each
// lookup/insert locks exactly one segment; CacheStats counts how often
// a segment lock was contended. Entries are shared_ptrs, so a returned
// distribution stays valid after eviction.
#ifndef MSKETCH_CORE_SOLVER_CACHE_H_
#define MSKETCH_CORE_SOLVER_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/maxent_solver.h"
#include "core/moments_sketch.h"

namespace msketch {

struct SolverCacheOptions {
  /// Maximum resident distributions (each ~5.3 KB of heap: a 513-point
  /// CDF table, the warm-start seed, the key and the LRU/map nodes),
  /// summed across segments.
  size_t capacity = 1024;
  /// Absolute quantization grid on the scaled Chebyshev moments (which
  /// live in [-1, 1]). Two sketches whose scaled moments agree to within
  /// the quantum share an entry; at 1e-9 (the solver's moment-matching
  /// tolerance) a hit is indistinguishable from a fresh solve.
  double quantum = 1e-9;
  /// Lock stripes. Each segment owns capacity/segments entries and its
  /// own LRU list; eviction is per-segment. 1 restores the single
  /// global-LRU cache (tests that assert exact LRU order use it).
  /// Clamped to capacity so tiny caches keep meaningful eviction.
  size_t segments = 8;
};

/// Aggregate counters across every segment. `lock_contention` counts
/// acquisitions that found the segment lock already held (try_lock
/// failed and the caller blocked) — the signal the striping exists to
/// drive toward zero.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t lock_contention = 0;

  void MergeFrom(const CacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    insertions += other.insertions;
    evictions += other.evictions;
    lock_contention += other.lock_contention;
  }
};

class SolverCache {
 public:
  using Stats = CacheStats;

  explicit SolverCache(SolverCacheOptions options = {});

  /// The cached solution for an equivalent (sketch, options) pair, or
  /// nullptr. Promotes the entry to most-recently-used in its segment.
  /// When `key_out` is non-null it receives the computed key, which a
  /// miss-path caller can hand back to InsertWithKey instead of
  /// re-deriving it.
  std::shared_ptr<const MaxEntDistribution> Lookup(
      const MomentsSketch& sketch, const MaxEntOptions& options,
      std::string* key_out = nullptr);

  /// Publishes a solved distribution, evicting the least-recently-used
  /// entry of its segment at capacity.
  void Insert(const MomentsSketch& sketch, const MaxEntOptions& options,
              std::shared_ptr<const MaxEntDistribution> dist);
  /// Insert under a key previously obtained from Lookup(..., key_out) —
  /// skips rebuilding the key (a Chebyshev conversion of all moments).
  void InsertWithKey(std::string key,
                     std::shared_ptr<const MaxEntDistribution> dist);
  void Insert(const MomentsSketch& sketch, const MaxEntOptions& options,
              MaxEntDistribution dist) {
    Insert(sketch, options,
           std::make_shared<const MaxEntDistribution>(std::move(dist)));
  }

  CacheStats stats() const;
  size_t size() const;
  size_t num_segments() const { return segments_.size(); }
  void Clear();

 private:
  // Key: raw bytes of (k, log-usable flag, min/max bit patterns, quantized
  // scaled std + log Chebyshev moments, options fingerprint).
  std::string MakeKey(const MomentsSketch& sketch,
                      const MaxEntOptions& options) const;

  using LruList =
      std::list<std::pair<std::string, std::shared_ptr<const MaxEntDistribution>>>;

  struct Segment {
    mutable std::mutex mu;
    LruList lru;  // front = most recent
    std::unordered_map<std::string, LruList::iterator> map;
    CacheStats stats;
  };

  Segment& SegmentFor(const std::string& key) {
    return segments_[std::hash<std::string>{}(key) % segments_.size()];
  }
  // Locks `seg` and charges a contention tick when the lock was held.
  static std::unique_lock<std::mutex> LockSegment(Segment& seg);

  SolverCacheOptions opt_;
  size_t per_segment_capacity_ = 1;
  std::vector<Segment> segments_;
};

/// Process-wide cache behind SolveCached: EstimateQuantiles and the
/// summary router's point queries share it.
SolverCache& GlobalSolverCache();

/// The tiered solve path: a GlobalSolverCache() hit returns the stored
/// distribution verbatim (and sets `*cache_hit`); a miss solves —
/// warm-started from `hint` when given — and publishes the result for the
/// next equivalent sketch. Refusals are not cached. With
/// options.use_solver_cache false the cache is neither read nor written.
/// A hit for a hinted caller may return a distribution solved from a
/// different seed, which a fresh warm solve would not reproduce bit for
/// bit.
Result<std::shared_ptr<const MaxEntDistribution>> SolveCached(
    const MomentsSketch& sketch, const MaxEntOptions& options,
    const WarmStart* hint = nullptr, bool* cache_hit = nullptr);

}  // namespace msketch

#endif  // MSKETCH_CORE_SOLVER_CACHE_H_
