// Threshold-query cascade (Section 5.2, Algorithm 2): a sequence of
// progressively tighter, progressively costlier checks — range filter,
// Markov bounds, RTT bounds, full maximum entropy estimate — that resolves
// "is the phi-quantile above t?" without solving the maxent problem for
// most groups.
//
// Note on Algorithm 2's CheckBound: with rank(t) = #\{x < t\} (Section 5.1),
// rank lower bound > n*phi implies q_phi < t (predicate false) and rank
// upper bound < n*phi implies q_phi >= t (predicate true); we implement
// these semantics, which match the algorithm's final `return q_phi > t`.
//
// The range stage reads only a group's count, min and max, so it has a
// static entry point (RangeStage) that needs no sketch: the batched
// GROUP BY (cube/batch_query.h) runs it on each group's exact range
// before it builds any moment sums, and only the groups it leaves open
// are merged and sent through CheckBounds, which runs the same stage
// again. An empty dataset counts as resolved by the range stage, so the
// per-stage counters always add up to `total`.
#ifndef MSKETCH_CORE_CASCADE_H_
#define MSKETCH_CORE_CASCADE_H_

#include <cstdint>

#include "common/status.h"
#include "core/atomic_fit.h"
#include "core/bounds.h"
#include "core/maxent_solver.h"
#include "core/moments_sketch.h"

namespace msketch {

/// Which cascade stages are active. Disabling stages reproduces the
/// incremental rows of Figures 12/13 ("Baseline", "+Simple", "+Markov",
/// "+RTT").
struct CascadeOptions {
  bool use_simple_check = true;  // [xmin, xmax] range filter
  bool use_markov = true;
  bool use_rtt = true;
  MaxEntOptions maxent;
};

/// Per-stage resolution counters (Figure 13c: fraction of queries each
/// stage resolves).
struct CascadeStats {
  uint64_t total = 0;
  uint64_t resolved_simple = 0;
  uint64_t resolved_markov = 0;
  uint64_t resolved_rtt = 0;
  uint64_t resolved_maxent = 0;
  /// Of the resolved_maxent queries, how many reused the memoized
  /// solution instead of re-solving.
  uint64_t maxent_memo_hits = 0;

  void Reset() { *this = CascadeStats{}; }
  void MergeFrom(const CascadeStats& other) {
    total += other.total;
    resolved_simple += other.resolved_simple;
    resolved_markov += other.resolved_markov;
    resolved_rtt += other.resolved_rtt;
    resolved_maxent += other.resolved_maxent;
    maxent_memo_hits += other.maxent_memo_hits;
  }
};

class ThresholdCascade {
 public:
  explicit ThresholdCascade(CascadeOptions options = {})
      : opt_(options) {}

  /// Algorithm 2: returns whether the phi-quantile of the sketch's dataset
  /// exceeds the threshold t. When the maximum entropy stage is reached
  /// but fails to converge, decides by the midpoint of the RTT rank
  /// bounds (the bounds remain valid for any matching dataset). The
  /// solved distribution is memoized while consecutive queries hit the
  /// same sketch, so a multi-(phi, t) alert sweep solves once.
  bool Threshold(const MomentsSketch& sketch, double phi, double t);

  /// Outcome of the bounds-only prefix of Algorithm 2.
  enum class Decision { kTrue, kFalse, kUnresolved };

  /// The range stage alone, from a dataset's count and exact range: an
  /// empty dataset is kFalse; with `options.use_simple_check`, a t above
  /// every element (t > max) is kFalse and a t below every element
  /// (t < min) is kTrue; anything else, including t equal to min or
  /// max, is kUnresolved. Counts nothing; CheckBounds counts a decision
  /// here as `resolved_simple`, and so must any caller that runs the
  /// stage on its own.
  static Decision RangeStage(const CascadeOptions& options, uint64_t count,
                             double min, double max, double t);

  /// Runs the range / Markov / RTT stages without the maxent fallback and
  /// updates the per-stage counters (including `total`). A query the
  /// range stage settles builds no bound state; the Markov and RTT
  /// stages share one RankBoundOracle, and the RTT stage's Hankel
  /// factorization is only built when the Markov stage leaves the query
  /// open. The tightest rank bounds seen are written to `*bounds_out`
  /// (`[0, count]` when a stage before Markov decides), so an unresolved
  /// caller can finish the decision with its own estimator — the batch
  /// layer does this to route the final solve through its warm-start
  /// chain and solver cache.
  Decision CheckBounds(const MomentsSketch& sketch, double phi, double t,
                       RankBounds* bounds_out);

  /// How an unresolved query was ultimately decided.
  enum class MaxEntResolution {
    kDistribution,  // solved maxent distribution
    kAtomic,        // atomic-fit fallback (near-discrete data)
    kBounds,        // midpoint of the rank bounds (everything failed)
  };

  /// Decides an unresolved query from a solved distribution (or, when the
  /// solver failed, the cascade's fallback chain: atomic fit, then the
  /// midpoint of `bounds`). Counts the query as maxent-resolved and
  /// reports which estimator decided via `resolution_out` when non-null.
  bool DecideWithDistribution(const MaxEntDistribution* dist,
                              const MomentsSketch& sketch, double phi,
                              double t, const RankBounds& bounds,
                              MaxEntResolution* resolution_out = nullptr);

  const CascadeStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  // Memoized solver outcome for the last sketch that reached the maxent
  // stage, keyed on the sketch's full state (count + power sums + range).
  struct SolveMemo {
    bool valid = false;
    MomentsSketch sketch{1};
    bool solve_ok = false;
    MaxEntDistribution dist;       // meaningful when solve_ok
    bool atomic_ok = false;
    DiscreteDistribution atomic;   // fallback when !solve_ok
  };

  const SolveMemo& SolveMemoized(const MomentsSketch& sketch);

  // The shared dist -> atomic -> bounds-midpoint decision chain; both
  // Threshold paths and DecideWithDistribution route through it so the
  // fallback order cannot drift between them.
  bool DecideFrom(const MaxEntDistribution* dist,
                  const DiscreteDistribution* atomic,
                  const MomentsSketch& sketch, double phi, double t,
                  const RankBounds& bounds, MaxEntResolution* resolution_out);

  CascadeOptions opt_;
  CascadeStats stats_;
  SolveMemo memo_;
};

}  // namespace msketch

#endif  // MSKETCH_CORE_CASCADE_H_
