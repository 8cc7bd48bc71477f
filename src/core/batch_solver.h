// Lane-batched maximum entropy solver: SIMD Newton across groups.
//
// A high-cardinality GROUP BY solves one maxent problem per group, and
// after the merge engine (PR 3) and the warm-start/cache tiers (PR 2)
// those solves dominate end-to-end latency. Each Newton iteration
// evaluates exp(theta . basis) and quadrature dot products over a shared
// 129-point Chebyshev grid — per group, one at a time. This solver packs
// groups whose greedy selection picked the same moment subset into
// kSolverLanes = 8 struct-of-lanes problems and runs damped Newton on
// all lanes simultaneously: one pass over the shared grid evaluates a
// vectorizable exp kernel (core/simd_exp.h) and accumulates every lane's
// integral, gradient, and Hessian entries together.
//
// Groups are admitted through a streaming queue: Enqueue prepares the
// group (scalar: moment conversion, atomic screen, greedy selection —
// core/maxent_problem.h), buckets it by selection signature, and fires a
// packed solve whenever a bucket fills; FlushAll drains partial buckets.
// Results are delivered through a caller sink, so the batch pipeline
// (cube/batch_query.cpp) and the threshold cascade's survivor stream
// both lane-fill naturally.
//
// Semantics:
//   * lanes are mathematically independent — no cross-lane arithmetic,
//     masked convergence, per-lane line search — so a group's result
//     does not depend on which groups it was packed with, and repeat
//     runs are bit-identical;
//   * a lane whose Newton diverges falls back to the scalar SolveFrom
//     loop (cold seed), reproducing per-group SolveMaxEnt behavior
//     including the drop-moments backoff, so answers never regress;
//   * a lane that converges but needs a finer quadrature grid continues
//     on the scalar escalation path from its converged theta (rare:
//     ~0.3% of groups on the drifting-cohort workload);
//   * per-lane results differ from scalar solves only through the exp
//     kernel (~1 ulp per evaluation) — parity is within Newton's own
//     grad_tol-implied tolerance, not bit-identity. Callers needing
//     bit-exact SolveMaxEnt answers call SolveMaxEnt per group.
//
// Warm chaining: each bucket remembers its last converged theta; new
// lanes whose targets pass the warm gate start there (with the adaptive
// opening step), mirroring SolveMaxEnt's WarmStart handoff within
// a fixed moment subset.
#ifndef MSKETCH_CORE_BATCH_SOLVER_H_
#define MSKETCH_CORE_BATCH_SOLVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "core/maxent_problem.h"
#include "core/maxent_solver.h"
#include "core/moments_sketch.h"

namespace msketch {

/// Solver lanes per packed Newton run (struct-of-lanes width; matches
/// the reduce-kernel lane count so AVX2 uses two registers per slot).
constexpr size_t kSolverLanes = 8;

struct LaneSolverStats {
  uint64_t enqueued = 0;
  /// Lane-batched Newton executions and the lanes they carried; the
  /// occupancy ratio is the headline packing metric.
  uint64_t packed_solves = 0;
  uint64_t packed_lanes = 0;
  uint64_t lane_converged = 0;  // solved entirely in the packed path
  uint64_t lane_escalated = 0;  // finished on a finer grid (scalar)
  uint64_t lane_fallbacks = 0;  // diverged; re-solved by the scalar loop
  uint64_t warm_lanes = 0;      // seeded from the bucket chain
  uint64_t prep_failures = 0;   // empty/atomic/unusable groups

  /// Mean fraction of lanes occupied per packed solve (0 when none ran).
  double LaneOccupancy() const {
    return packed_solves == 0
               ? 0.0
               : static_cast<double>(packed_lanes) /
                     (static_cast<double>(packed_solves) * kSolverLanes);
  }
  void MergeFrom(const LaneSolverStats& other) {
    enqueued += other.enqueued;
    packed_solves += other.packed_solves;
    packed_lanes += other.packed_lanes;
    lane_converged += other.lane_converged;
    lane_escalated += other.lane_escalated;
    lane_fallbacks += other.lane_fallbacks;
    warm_lanes += other.warm_lanes;
    prep_failures += other.prep_failures;
  }
};

/// Streaming lane-batched solver. Single-threaded: the batch pipeline
/// instantiates one per worker shard. Results can arrive out of enqueue
/// order (bucket fills interleave); the sink's `tag` identifies the
/// request.
class LaneMaxEntSolver {
 public:
  using Sink = std::function<void(size_t tag, Result<MaxEntDistribution>)>;

  /// `use_warm_start` enables the per-bucket seed chain. The sink is
  /// invoked synchronously from Enqueue/FlushAll, exactly once per tag.
  LaneMaxEntSolver(const MaxEntOptions& options, bool use_warm_start,
                   Sink sink);

  /// Queues one group. Degenerate and prep-refused groups are delivered
  /// immediately; the rest solve when their bucket fills or FlushAll
  /// runs. The sketch is not referenced after Enqueue returns.
  void Enqueue(size_t tag, const MomentsSketch& sketch);

  /// Solves every partially-filled bucket. Idempotent.
  void FlushAll();

  const LaneSolverStats& stats() const { return stats_; }

 private:
  struct Lane {
    size_t tag = 0;
    MaxEntProblem problem;
  };
  struct Bucket {
    std::vector<Lane> lanes;
    // Warm chain: last converged theta (canonical slot order) and the
    // targets it fitted, for the per-lane warm gate.
    bool has_seed = false;
    std::vector<double> seed_theta;
    std::vector<double> seed_targets;
  };
  // Selection signature: (log_primary, primary-order mask, secondary-
  // order mask). Selection emits canonical ascending slot order, so
  // equal signatures imply slot-compatible problems.
  using Signature = std::tuple<bool, uint64_t, uint64_t>;

  void SolveBucket(Bucket* bucket);

  MaxEntOptions opt_;
  bool warm_;
  Sink sink_;
  CondMemo cond_memo_;
  std::map<Signature, Bucket> buckets_;
  LaneSolverStats stats_;
};

}  // namespace msketch

#endif  // MSKETCH_CORE_BATCH_SOLVER_H_
