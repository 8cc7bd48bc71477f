// Batched estimation over cube groups: the query-side complement of the
// columnar merge engine.
//
// A high-cardinality GROUP BY pays one maximum entropy solve per group
// (Section 4.3, ~1 ms each), which dominates end-to-end latency past a
// few thousand groups. The batch pipeline amortizes that work four ways:
//
//   1. groups are ordered by moment similarity, and each shard solves
//      its slice as a warm chain: every solve is the scalar SolveMaxEnt
//      sequence, seeded from the chain's last solution when that hint
//      passes the warm gate (fewer Newton iterations), with one
//      condition-number memo per shard for the moment selection;
//   2. a SolverCache keyed on quantized scaled moments lets repeated and
//      identical-moment groups skip the solve entirely (the similarity
//      order puts duplicates back-to-back, so each hits the entry its
//      predecessor's solve inserted);
//   3. threshold queries run the cascade's bound stages first, so most
//      groups never reach the solver at all (Section 5.2), and decide
//      each group they can from its exact range before any moment sum
//      is built, so most groups are never merged either;
//   4. certified GROUP BY runs the summary router's pre-solve stage per
//      group first (certificates, point masses, the Hankel pre-screen
//      to KLL), so only groups that need a solve reach the chain; the
//      router's post-solve stage runs on the chain's answer.
//
// Chains are contiguous slices of the similarity order, sharded across
// threads via parallel/parallel_for.h; the (lock-striped) cache is
// shared.
#ifndef MSKETCH_CUBE_BATCH_QUERY_H_
#define MSKETCH_CUBE_BATCH_QUERY_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/cascade.h"
#include "core/maxent_solver.h"
#include "core/solver_cache.h"
#include "cube/cube_types.h"
#include "cube/summary_router.h"

namespace msketch {

struct BatchOptions {
  MaxEntOptions maxent;
  /// Stage switches for GroupByThreshold's per-batch cascade.
  CascadeOptions cascade;
  /// Worker threads; each gets a contiguous chain of similar groups.
  int threads = 1;
  /// Seed each solve from the last solution of its shard's chain (see
  /// WarmStart). Warm and cold solves converge to the same grad_tol
  /// moment match, not to the same bits; disable to make every solve
  /// start cold, which answers each group bit for bit as SolveMaxEnt.
  bool use_warm_start = true;
  /// Consult/populate a solver cache. Uses `cache` when set, else a
  /// per-batch cache of `cache_capacity` entries.
  bool use_cache = true;
  SolverCache* cache = nullptr;
  size_t cache_capacity = 1024;
};

/// Per-batch estimation diagnostics (surfaced by the fig5/fig6 benches).
struct BatchStats {
  uint64_t groups = 0;
  uint64_t cache_hits = 0;
  uint64_t failed_solves = 0;     // solver + atomic fallback both failed
  uint64_t atomic_fallbacks = 0;  // answered by the atomic-fit estimator
  /// Warm/cold solves, Newton work and degradation counters.
  SolveCounters solve;
  /// Bound-stage counters (GroupByThreshold only).
  CascadeStats cascade;

  uint64_t CascadePruned() const {
    return cascade.resolved_simple + cascade.resolved_markov +
           cascade.resolved_rtt;
  }
  void MergeFrom(const BatchStats& other) {
    groups += other.groups;
    cache_hits += other.cache_hits;
    failed_solves += other.failed_solves;
    atomic_fallbacks += other.atomic_fallbacks;
    solve.MergeFrom(other.solve);
    cascade.MergeFrom(other.cascade);
  }
};

/// One group's quantile estimates. `status` is non-OK only when both the
/// solver and the atomic-fit fallback failed; `used_atomic` marks
/// estimates from the fallback (near-discrete groups, Section 6.2.3).
struct GroupQuantiles {
  CubeCoords key;
  uint64_t count = 0;
  std::vector<double> quantiles;  // parallel to the phis argument
  bool used_atomic = false;
  /// Moment subset the solve fitted (from MaxEntDiagnostics; 0/0 for
  /// atomic fallbacks). Lets callers tell a tolerance miss from a warm
  /// solve that legitimately fitted a different subset.
  int k1 = 0;
  int k2 = 0;
  Status status = Status::OK();
};

/// One group's threshold decision ("is the phi-quantile above t?").
struct GroupThreshold {
  CubeCoords key;
  uint64_t count = 0;
  bool exceeds = false;
};

/// One group's certified quantile answers (parallel to the phis
/// argument). Unlike GroupQuantiles, `answers[i].status` is non-OK only
/// for an empty group — which GROUP BY never produces — so every entry
/// is a certified interval.
struct GroupQuantilesCertified {
  CubeCoords key;
  uint64_t count = 0;
  std::vector<CertifiedQuantile> answers;
};

class CubeStore;

/// Store-level batch GROUP BY entry points. The DataCube<MomentsSummary>
/// members and the streaming ingest engine's snapshot queries both route
/// here, so a published CubeSnapshot runs the identical similarity-order
/// + warm-start + cache pipeline as a static cube. Defined in
/// batch_query.cpp.
std::vector<GroupQuantiles> GroupByQuantiles(const CubeStore& store,
                                             const std::vector<size_t>& group_dims,
                                             const std::vector<double>& phis,
                                             const BatchOptions& options = {},
                                             BatchStats* stats = nullptr);
/// Certified GROUP BY: the batch pipeline above with the router's
/// fallback chain around its solves (see summary_router.h). Each group's
/// KLL side column is merged once when the store carries one. Solves
/// use options.maxent and default BatchOptions otherwise. Results are in
/// ascending key order; `stats` (optional) accumulates the router's
/// decision and solve counters.
std::vector<GroupQuantilesCertified> GroupByQuantilesCertified(
    const CubeStore& store, const std::vector<size_t>& group_dims,
    const std::vector<double>& phis, const RouterOptions& options = {},
    RouterStats* stats = nullptr);
/// Threshold GROUP BY: per group, "is the phi-quantile above t?", by the
/// cascade of core/cascade.h. Late materialisation: the store's
/// partition step gives every group's key and exact count, min and max,
/// and the range stage (ThresholdCascade::RangeStage) decides each group
/// whose range excludes t from those alone. Only the groups it leaves
/// open get a sketch (ReduceGroups; a fresh rollup's single-dimension
/// groups come from one planned query per value instead), features, a
/// place in the similarity order, Markov/RTT bounds and, when those do
/// not decide, a warm-chain solve. With threads > 1 only the open groups
/// are sharded. `stats` counts every group: `groups` and
/// `cascade.total` include the range-decided ones, which count as
/// `cascade.resolved_simple`. Results are in ascending key order; with
/// threads == 1 the decisions and stats equal a run that merged every
/// group first.
std::vector<GroupThreshold> GroupByThreshold(const CubeStore& store,
                                             const std::vector<size_t>& group_dims,
                                             double phi, double t,
                                             const BatchOptions& options = {},
                                             BatchStats* stats = nullptr);

}  // namespace msketch

#endif  // MSKETCH_CUBE_BATCH_QUERY_H_
