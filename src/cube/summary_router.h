// Error-bounded multi-backend summary router.
//
// A moments sketch answers quantile queries fast and mergeably, but fails
// detectably on pathological cells: atomic (near-discrete) measures trip
// the solver's atomic screen, heavy-tailed or near-singular moment
// vectors ill-condition the Hankel matrix and diverge Newton. The router
// turns those detectable failures into graceful degradation. Every
// answer carries a certified error interval — an enclosure the true
// quantile provably lies in — assembled from whichever backends the cell
// has:
//
//   moments   maxent estimate + RTT-certified value interval
//             (core/bounds.h RankBoundOracle::QuantileInterval);
//   KLL       rank-sketch estimate + deterministic rank-error interval
//             (sketches/kll_sketch.h CertifiedInterval);
//   both      the intersection — two sound certificates intersect to a
//             sound (and tighter) certificate; when the two are
//             disjoint the moments interval was unsound and the KLL
//             interval, sound by construction, is kept.
//
// The moment interval is only trusted from a well-conditioned moment
// vector. Each rank bound behind it is a floating-point solve on the
// Hankel system, and on a moment vector the conditioning pre-screen
// rejects, those solves can exclude the exact quantile while still
// meeting the KLL interval. So a rejected moment vector with a KLL
// present gets the KLL certificate alone, and no moment probe runs.
//
// The solve path is a bounded retry/fallback chain, split into a
// pre-solve and a post-solve stage so point queries (SummaryRouter) and
// certified GROUP BY (cube/batch_query.h, warm-chained solves) run the
// same chain; no query ever returns an unbounded-error or failed answer
// on non-empty data. One RankBoundOracle per sketch serves the
// pre-screen and every phi's moment interval:
//
//   0. exact path, before any oracle: a KLL that never compacted
//      (rank_error_bound() == 0) holds every row, so each phi is
//      answered by the point certificate at the ceil(phi*n)-th smallest
//      row, estimate included (backend kKll, counted in exact_answers);
//      no moment interval, no pre-screen, no solve. That is KLL's rank
//      convention, not the paper's floor(phi*n) + 1 (QuantileOfSorted).
//      Both are exact phi-quantiles: rows q with
//      #{x < q} <= phi*n <= #{x <= q}. They differ only when phi*n is
//      whole, where KLL takes the lower of the two candidate rows;
//   1. conditioning pre-screen, before any certificate: a Hankel
//      condition number above 1e12 with a KLL present routes straight
//      to KLL, certificate included (the moment interval is the
//      fallback only where the KLL certificate is unavailable);
//   2. maxent solve: a point query first looks the sketch up in the
//      process-wide solver cache (SolveCached; on unless
//      MaxEntOptions::use_solver_cache is false), and a hit skips the
//      solve; otherwise warm solve (hint) -> cold restart on seed
//      failure (inside SolveMaxEnt) -> drop-moments backoff;
//   3. solver refused/diverged: atomic-fit estimate (near-discrete
//      cells), still certified by the moment bounds;
//   4. atomic fit inapplicable: KLL estimate when present;
//   5. last resort: the midpoint of the certified moment interval —
//      the bounds themselves never fail on a non-empty sketch.
//
// The only error a caller can see is an empty input. Everything else is
// an estimate inside a certificate.
#ifndef MSKETCH_CUBE_SUMMARY_ROUTER_H_
#define MSKETCH_CUBE_SUMMARY_ROUTER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/bounds.h"
#include "core/maxent_solver.h"
#include "core/moments_sketch.h"
#include "sketches/kll_sketch.h"

namespace msketch {

/// Which backend produced the point estimate of an answer.
enum class QuantileBackend : uint8_t {
  kMoments = 0,     // maxent density estimate
  kKll = 1,         // rank-sketch estimate (routed or fallback)
  kAtomic = 2,      // atomic-fit estimate (near-discrete cell)
  kBounds = 3,      // certified-interval midpoint (last resort)
  kDegenerate = 4,  // point-mass cell (exact)
};
const char* QuantileBackendName(QuantileBackend backend);

struct RouterOptions {
  MaxEntOptions maxent;
  /// Bisection probes per certified-interval endpoint (each one RTT
  /// bound evaluation).
  static constexpr int interval_steps = 24;
};

/// One certified quantile answer. `interval` always encloses the true
/// phi-quantile of the queried data; `estimate` always lies inside it.
struct CertifiedQuantile {
  double estimate = 0.0;
  QuantileInterval interval;
  QuantileBackend backend = QuantileBackend::kMoments;
  /// True on every answer over non-empty data (the router's contract);
  /// false only when `status` is non-OK (empty input).
  bool certified = false;
  Status status;
};

/// Cumulative router decisions plus the counters of the solves behind
/// the answers.
struct RouterStats {
  uint64_t queries = 0;
  uint64_t moments_answers = 0;
  uint64_t kll_answers = 0;
  uint64_t atomic_answers = 0;
  uint64_t bounds_fallbacks = 0;
  uint64_t degenerate_answers = 0;
  uint64_t exact_answers = 0;  // subset of kll_answers: uncompacted KLL
  uint64_t intersected_certificates = 0;  // moments interval ∩ KLL interval
  uint64_t conditioning_rejects = 0;  // pre-screen skipped the solve
  uint64_t solver_failures = 0;       // maxent refused/diverged (absorbed)
  /// Distributions reused instead of solved: solver-cache hits of point
  /// queries, and GROUP BY groups answered by the batch cache (an
  /// identical earlier group's solve). Not counted in `solve`.
  uint64_t cache_hits = 0;
  SolveCounters solve;

  void MergeFrom(const RouterStats& other) {
    queries += other.queries;
    moments_answers += other.moments_answers;
    kll_answers += other.kll_answers;
    atomic_answers += other.atomic_answers;
    bounds_fallbacks += other.bounds_fallbacks;
    degenerate_answers += other.degenerate_answers;
    exact_answers += other.exact_answers;
    intersected_certificates += other.intersected_certificates;
    conditioning_rejects += other.conditioning_rejects;
    solver_failures += other.solver_failures;
    cache_hits += other.cache_hits;
    solve.MergeFrom(other.solve);
  }
};

/// The fallback chain in two stages around the maxent solve, so the
/// point-query router and the batch GROUP BY pipeline share one chain.
///
/// Pre-solve: settles the answers that need no solve — empty input
/// (error status), a point mass (exact), an uncompacted KLL (exact, the
/// ceil(phi*n)-th smallest row), or a moment vector the
/// conditioning pre-screen rejects with a KLL present (KLL estimate and
/// KLL certificate) — and fills every other answer's certificate.
/// Returns true when `out` is final; otherwise the caller solves and
/// hands the outcome to RoutePostSolve. Sorts the KLL's retained items
/// once for all phis (KllSortedView) and leaves that sort in `*sorted`
/// (empty when there is no non-empty KLL), so RoutePostSolve's KLL
/// fallback does not sort again.
bool RoutePreSolve(const MomentsSketch& moments, const KllSketch* kll,
                   const std::vector<double>& phis,
                   std::vector<CertifiedQuantile>* out, RouterStats* stats,
                   std::optional<KllSortedView>* sorted);

/// Post-solve: estimates from `dist`, or — when the solve failed (`dist`
/// null) — from the atomic fit, then the KLL sketch (`kll`, the view
/// RoutePreSolve left; null without one), then the certificate's
/// midpoint. Every estimate is clamped into its certificate.
void RoutePostSolve(const MomentsSketch& moments, const KllSortedView* kll,
                    const std::vector<double>& phis,
                    const MaxEntDistribution* dist,
                    std::vector<CertifiedQuantile>* out, RouterStats* stats);

/// One phi's certificate from a moment interval and a KLL certificate:
/// their intersection (counted in intersected_certificates when it
/// narrows `moments`), or the KLL certificate alone when the two are
/// disjoint. The KLL bound is a deterministic sum of compaction
/// weights, so of two disjoint enclosures the moment one is unsound.
QuantileInterval IntersectCertificates(const QuantileInterval& moments,
                                       const KllInterval& kll,
                                       RouterStats* stats);

/// Adds `stats` to the process-wide msk_router_* counter families.
void PublishRouterStats(const RouterStats& stats);

/// Point-query router: RoutePreSolve -> SolveCached -> RoutePostSolve.
/// A repeated selection reuses the distribution its first query solved
/// (counted in cache_hits, not in solve). Each call's counters reach the
/// metrics registry when it returns. Not thread-safe (one instance per
/// query pipeline); the solver cache behind it is.
class SummaryRouter {
 public:
  explicit SummaryRouter(RouterOptions options = {});

  /// Certified phi-quantile from a cell/group's moments sketch plus its
  /// optional KLL rank sketch (nullptr when the cell has none). The two
  /// summaries must cover the same rows — the router intersects their
  /// certificates. `hint` warm-starts the maxent solve.
  CertifiedQuantile Query(const MomentsSketch& moments, const KllSketch* kll,
                          double phi, const WarmStart* hint = nullptr);

  /// Batch form: one backend decision and (at most) one solve shared by
  /// all phis. Results are parallel to `phis`.
  std::vector<CertifiedQuantile> QueryMany(const MomentsSketch& moments,
                                           const KllSketch* kll,
                                           const std::vector<double>& phis,
                                           const WarmStart* hint = nullptr);

  /// Warm-start exported by the distribution of the last successful
  /// solve or cache hit. Chains cells the way the batch pipeline chains
  /// groups.
  const WarmStart& last_warm_start() const { return last_warm_; }

  const RouterStats& stats() const { return stats_; }
  void ResetStats() { stats_ = RouterStats{}; }

 private:
  RouterOptions opt_;
  RouterStats stats_;
  WarmStart last_warm_;
};

}  // namespace msketch

#endif  // MSKETCH_CUBE_SUMMARY_ROUTER_H_
