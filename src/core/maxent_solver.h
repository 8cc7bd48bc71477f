// Maximum entropy quantile estimation from a moments sketch
// (Sections 4.2, 4.3 and Appendix A of the paper).
//
// Solves for the exponential-family density
//   f(x; theta) = exp( sum_i theta_i m~_i(x) )
// whose Chebyshev-rebased moments match the sketch, by minimizing the
// convex potential L(theta) (Eq. 5) with damped Newton. All integrals are
// evaluated with Clenshaw-Curtis quadrature over a shared Chebyshev-node
// grid, the optimization that gives the paper its ~1 ms estimation times
// (Section 4.3.1, footnote 1); a DCT-based tail check adapts the grid
// size. The (k1, k2) moment subset is chosen greedily under a condition
// number budget kappa_max, preferring moments closest to their uniform-
// distribution expectations.
#ifndef MSKETCH_CORE_MAXENT_SOLVER_H_
#define MSKETCH_CORE_MAXENT_SOLVER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/chebyshev_moments.h"
#include "core/moments_sketch.h"

namespace msketch {

struct MaxEntOptions {
  /// Condition number ceiling for the Hessian during (k1, k2) selection
  /// (the paper's kappa_max = 1e4).
  double kappa_max = 1e4;
  /// Newton terminates when moments match to within this tolerance (the
  /// paper's delta = 1e-9).
  double grad_tol = 1e-9;
  /// Clenshaw-Curtis grid sizes (number of intervals; grid points N+1).
  int min_grid = 128;
  int max_grid = 512;
  int max_newton_iter = 200;
  /// Ablation switches (Figure 9): disable one family of moments.
  bool use_std_moments = true;
  bool use_log_moments = true;
  /// Optional hard caps on selected moment counts (-1 = no cap).
  int max_k1 = -1;
  int max_k2 = -1;
  /// Warm-start acceptance gate: a hint is applied only when every shared
  /// selected moment differs from the hint's fitted value by at most this
  /// (Chebyshev moments live in [-1, 1]). With the adaptive opening step
  /// even mediocre seeds win, so the default only screens out seeds from
  /// a genuinely different distribution shape. Affects the solve path,
  /// not the solution.
  double warm_gate = 0.5;
  /// Lets EstimateQuantiles and the summary router's point queries
  /// (SummaryRouter, so StreamingCube::QueryQuantileCertified and
  /// ReplicaApplier too) consult the process-wide solver cache
  /// (SolveCached). Disable to force a real solve — solver benchmarks and
  /// tests that compare independent solves or count them need the cold
  /// path, not a memo hit.
  bool use_solver_cache = true;
};

struct MaxEntDiagnostics {
  int k1 = 0;              // standard moments used
  int k2 = 0;              // log moments used
  int newton_iterations = 0;
  /// Objective evaluations across every Newton run of the solve, failed
  /// runs included. function_evals counts the value-only line-search
  /// trials (no gradient or Hessian is computed for them); hessian_evals
  /// counts the value + gradient + Hessian evaluations at each run's
  /// start and at every accepted point, which reuse the accepted trial's
  /// density pass.
  int function_evals = 0;
  int hessian_evals = 0;
  int grid_size = 0;       // final N
  double condition_number = 0.0;
  bool log_primary = false;  // solved in log-domain (Appendix A, Eq. 8)
  bool warm_started = false;  // solution seeded from a WarmStart hint
  /// Robustness counters for the fallback chain (surfaced through
  /// SolveCounters by the batch pipeline and the summary router).
  int cold_restarts = 0;     // warm seed failed; restarted from cold seed
  /// Newton runs that ended with StatusReason::kIterationCap: stopped at
  /// max_newton_iter, or at a fixed point, whose outcome is the cap's.
  int iteration_capped = 0;
  int backoff_drops = 0;     // drop-moments retries after divergence
};

/// Solver work and degradation counters, shared by the batch pipeline's
/// BatchStats and the router's RouterStats. Successful solves are
/// recorded from their diagnostics, refusals from their status reason.
struct SolveCounters {
  uint64_t warm_solves = 0;
  uint64_t cold_solves = 0;
  uint64_t newton_iterations = 0;  // summed over warm + cold solves
  uint64_t cold_restarts = 0;      // warm seeds that failed to transfer
  uint64_t iteration_capped = 0;   // capped runs, fixed-point stops included
  uint64_t atomic_screen_hits = 0;  // refusals by the atomic screen

  void Record(const MaxEntDiagnostics& diag) {
    ++(diag.warm_started ? warm_solves : cold_solves);
    newton_iterations += static_cast<uint64_t>(diag.newton_iterations);
    cold_restarts += static_cast<uint64_t>(diag.cold_restarts);
    iteration_capped += static_cast<uint64_t>(diag.iteration_capped);
  }
  void RecordRefusal(const Status& status) {
    if (status.reason() == StatusReason::kAtomicMeasure) ++atomic_screen_hits;
  }
  double MeanNewtonIterations() const {
    const uint64_t solves = cold_solves + warm_solves;
    return solves == 0
               ? 0.0
               : static_cast<double>(newton_iterations) /
                     static_cast<double>(solves);
  }
  void MergeFrom(const SolveCounters& other) {
    warm_solves += other.warm_solves;
    cold_solves += other.cold_solves;
    newton_iterations += other.newton_iterations;
    cold_restarts += other.cold_restarts;
    iteration_capped += other.iteration_capped;
    atomic_screen_hits += other.atomic_screen_hits;
  }
};

/// Seed state exported from a previous solve. Warm-starting a
/// distributionally similar sketch from it starts Newton near the
/// previous optimum, cutting the per-group cost for chains of neighboring
/// cube cells. The greedy (k1, k2) selection still runs and the seed is
/// applied to the multipliers of the moments both solves selected — the
/// potential is strictly convex on the selected subset, so the seed moves
/// the Newton path, not the answer. The hint is advisory: on a majority
/// subset mismatch, or if Newton diverges from the seed, the solver falls
/// back to the cold zero-theta start. (One visible difference remains:
/// a good seed can converge on moment subsets where the zero start
/// diverges and drops moments — there the warm solve matches *more*
/// moments than the cold one.)
struct WarmStart {
  /// One selected moment with its multiplier. Selection is recorded as
  /// (family, order) rather than basis-row index so it survives the two
  /// sketches having different numbers of usable moments.
  struct Entry {
    bool primary;   // true: primary-domain Chebyshev row T_order
    int order;      // 1-based within its family
    double theta;
    double moment;  // the Chebyshev moment this theta fitted (gate input)
  };

  bool log_primary = false;
  /// Clenshaw-Curtis grid the previous solve settled on (diagnostic; the
  /// solver re-escalates per density rather than inheriting it).
  int grid_n = 0;
  double theta0 = 0.0;  // constant-row multiplier
  std::vector<Entry> entries;

  bool valid() const { return grid_n > 0 && !entries.empty(); }
};

/// The solved maximum entropy distribution; supports quantile and CDF
/// queries against the original data domain.
class MaxEntDistribution {
 public:
  /// phi-quantile of the distribution, clamped to [xmin, xmax].
  double Quantile(double phi) const;
  std::vector<double> Quantiles(const std::vector<double>& phis) const;

  /// P(X <= x) under the estimated distribution.
  double Cdf(double x) const;

  double xmin() const { return xmin_; }
  double xmax() const { return xmax_; }
  const MaxEntDiagnostics& diagnostics() const { return diag_; }

  /// Seed for warm-starting the next solve (invalid for degenerate point
  /// masses, which carry no solver state).
  const WarmStart& warm_start() const { return warm_; }

 private:
  friend class MaxEntProblem;

  bool degenerate_ = false;  // point mass (xmin == xmax)
  double xmin_ = 0.0, xmax_ = 0.0;
  bool log_primary_ = false;
  ScaleMap primary_map_;
  // Monotone piecewise-linear CDF over a uniform grid on [-1, 1] in the
  // primary domain. Built from the Chebyshev antiderivative of f with a
  // running-max pass: the truncated interpolant of a positive f can dip
  // by ~1e-5 between nodes, and quantile inversion must stay monotone.
  std::vector<double> cdf_values_;  // normalized to [0, 1]
  MaxEntDiagnostics diag_;
  WarmStart warm_;
};

/// Solves the maximum entropy problem for the sketch. Returns NotConverged
/// when no density matches the moments (e.g. datasets with fewer than ~5
/// distinct values, Section 6.2.3; a refusal by the atomic screen carries
/// StatusReason::kAtomicMeasure) and InvalidArgument for empty sketches.
/// A non-null `hint` (from a previous solution's warm_start()) seeds the
/// moment selection, theta, and quadrature grid; the solver falls back to
/// the cold path when the hint does not transfer.
Result<MaxEntDistribution> SolveMaxEnt(const MomentsSketch& sketch,
                                       const MaxEntOptions& options = {},
                                       const WarmStart* hint = nullptr);

/// Convenience wrapper: solve + evaluate a batch of quantiles. Routed
/// through the process-wide solver cache (SolveCached in
/// core/solver_cache.h), so re-estimating a sketch with unchanged moments
/// skips the solve; pass a `hint` to additionally warm-start on a cache
/// miss.
Result<std::vector<double>> EstimateQuantiles(
    const MomentsSketch& sketch, const std::vector<double>& phis,
    const MaxEntOptions& options = {}, const WarmStart* hint = nullptr);

}  // namespace msketch

#endif  // MSKETCH_CORE_MAXENT_SOLVER_H_
