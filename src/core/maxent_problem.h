// Internal engine behind SolveMaxEnt: one group's maxent solve split
// into phases, so the batch GROUP BY chain (cube/batch_query.cpp) runs
// the very same solve with a per-shard condition-number memo.
//
//   Prepare   moment availability + scale maps, the atomic-measure
//             screen, the Clenshaw-Curtis grid at min_grid, and the
//             greedy (k1, k2) moment selection under kappa_max;
//   SolveFrom the scalar damped-Newton loop with drop-moment backoff
//             and per-density grid escalation, ending in Package;
//   Package   CDF tabulation + warm-start export from a converged
//             theta on the current grid.
//
// Solve runs the phases in order, seeding theta from a WarmStart hint
// when it transfers; SolveMaxEnt is Solve without a memo.
//
// This header is an internal API: everything here may change shape
// between versions. External callers use SolveMaxEnt / EstimateQuantiles
// (core/maxent_solver.h) or the batch entry points (cube/batch_query.h).
#ifndef MSKETCH_CORE_MAXENT_PROBLEM_H_
#define MSKETCH_CORE_MAXENT_PROBLEM_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/chebyshev_moments.h"
#include "core/maxent_solver.h"
#include "core/moments_sketch.h"
#include "numerics/optim.h"

namespace msketch {

/// Memo of uniform-Hessian condition numbers for moment subsets whose
/// non-constant rows are all primary-family. Primary basis rows are
/// T_i(u) on the shared Lobatto grid — identical for every group at a
/// given grid size — so their Gram matrices (and hence condition
/// numbers) are group-invariant and the greedy selection can skip the
/// Jacobi eigensolve on a hit. Subsets containing a secondary row go
/// through the group's own warp-dependent Hessian and are never
/// memoized. Single-threaded: one memo per batch worker.
class CondMemo {
 public:
  /// `mask` is the bitmask of selected primary orders (bit i-1 = T_i).
  bool Lookup(int grid_n, uint64_t mask, double* cond) const {
    if (mask >> 32 != 0) return false;  // keep the packed key collision-free
    auto it = map_.find(Key(grid_n, mask));
    if (it == map_.end()) return false;
    *cond = it->second;
    return true;
  }
  void Insert(int grid_n, uint64_t mask, double cond) {
    if (mask >> 32 != 0) return;
    map_.emplace(Key(grid_n, mask), cond);
  }

 private:
  // The floating point stability bound caps usable orders at ~17, so
  // masks stay far below 2^32 and pack alongside the grid size.
  static uint64_t Key(int grid_n, uint64_t mask) {
    return (static_cast<uint64_t>(grid_n) << 32) | mask;
  }
  std::unordered_map<uint64_t, double> map_;
};

class MaxEntProblem {
 public:
  MaxEntProblem() = default;

  /// The whole solve: Prepare (with `cond_memo` when given), the cold
  /// seed or — when `hint` transfers — the hint's, then SolveFrom. Point
  /// masses return the degenerate distribution without a solve. With a
  /// null memo and hint this is SolveMaxEnt; the memo only caches
  /// condition numbers, so it never changes the answer.
  static Result<MaxEntDistribution> Solve(const MomentsSketch& sketch,
                                          const MaxEntOptions& options,
                                          const WarmStart* hint,
                                          CondMemo* cond_memo);

  /// Runs every phase up to (and including) moment selection at
  /// options.min_grid. Statuses mirror SolveMaxEnt: InvalidArgument for
  /// empty sketches, Unsupported when no moment is usable, NotConverged
  /// when the moments match an atomic measure (reason
  /// StatusReason::kAtomicMeasure) or conditioning excluded every
  /// moment. Point masses return OK with degenerate_ set — Solve
  /// packages those without a solve.
  Status Prepare(const MomentsSketch& sketch, const MaxEntOptions& options,
                 CondMemo* cond_memo = nullptr);

  /// The zero-theta cold seed for the currently selected rows.
  void ResetColdSeed(std::vector<double>* theta) const;

  /// The Newton objective on the selected rows at the current grid: the
  /// maxent potential, its gradient and its Hessian, as far as the
  /// EvalLevel asks. It keeps its last density pass and reuses it for a
  /// call at the bitwise-same theta. Gradient and Hessian entries are
  /// summed four per pass over the grid, each in ascending grid order,
  /// and Hessian row 0 (the constant row) is the raw gradient sums, so
  /// every output is bitwise what one loop per entry gives. Every call,
  /// in converged and failed runs alike, adds to the evaluation counts
  /// Package exports (kHessian to hessian_evals, the others to
  /// function_evals). Refers into this problem: valid while it lives and
  /// until its grid or selection changes.
  ObjectiveFn Objective();

  // ------------------------------------- grid and selection inspection
  const std::vector<double>& weights() const { return weights_; }
  /// Selected basis rows, ascending, always starting with row 0.
  const std::vector<int>& selected() const { return selected_; }
  /// Basis row values on the grid (weights().size() doubles).
  const double* BasisRow(int row) const {
    return basis_.data() + static_cast<size_t>(row) * nodes_.size();
  }
  /// Newton target for selected slot p (1.0 for slot 0, else the
  /// Chebyshev moment of the selected row).
  double TargetFor(size_t p) const;

 private:
  // The point-mass distribution for a degenerate problem.
  MaxEntDistribution MakeDegenerate() const;

  // Seeds theta from a previous solution (see WarmStart); returns false
  // when the hint does not transfer. `theta` must already hold the cold
  // seed. Prepare must have succeeded.
  bool TrySeedFromHint(const WarmStart& hint, std::vector<double>* theta) const;

  // The scalar solve loop from a given seed: damped Newton, warm-seed
  // restart, drop-moment backoff, grid escalation, packaging. `warm`
  // marks the seed as externally provided (adaptive opening step +
  // diagnostics flag).
  Result<MaxEntDistribution> SolveFrom(std::vector<double> theta, bool warm);

  // Packages a converged theta on the current grid: monotone CDF table,
  // diagnostics, warm-start export. Reuses the Chebyshev fit cached by
  // the last GridResolved(theta) call when it matches.
  Result<MaxEntDistribution> Package(const std::vector<double>& theta,
                                     bool warm);

  // True when the Chebyshev tail of f(.; theta) is resolved on this
  // grid. Caches the fit for Package.
  bool GridResolved(const std::vector<double>& theta);

  // Scalar Newton on the selected rows from theta0, over Objective().
  Result<OptimResult> RunNewton(std::vector<double> theta0, bool warm);

  // Fills grid nodes/weights and the full basis-value matrix for the
  // available moment counts (a1_, a2_) at grid size n. Selection is not
  // re-run: escalation keeps the min_grid subset.
  void BuildGrid(int n);
  // Gram matrix (uniform-density Hessian) restricted to `rows`.
  Matrix UniformHessian(const std::vector<int>& rows) const;
  // Greedy (k1, k2) selection under the kappa_max budget; consults the
  // condition-number memo for primary-only subsets.
  void SelectMoments(CondMemo* cond_memo);
  std::vector<double> FValues(const std::vector<double>& theta) const;

  MaxEntOptions opt_;
  bool degenerate_ = false;
  int cold_restarts_ = 0;
  int iteration_capped_ = 0;
  int backoff_drops_ = 0;
  double xmin_ = 0.0, xmax_ = 0.0;

  bool log_primary_ = false;
  ScaleMap std_map_, log_map_;
  int a1_ = 0, a2_ = 0;  // available moment counts (primary, secondary)
  std::vector<double> primary_moments_;    // E[T_i(primary)], i = 0..a1
  std::vector<double> secondary_moments_;  // E[T_j(secondary)], j = 1..a2

  int grid_n_ = 0;
  std::vector<double> nodes_;    // primary-domain u in [-1, 1]
  std::vector<double> weights_;  // CC weights
  // Basis-value matrix, row-major: row r starts at basis_[r * (N+1)]
  // (one flat allocation; rows are hot-loop operands).
  std::vector<double> basis_;    // (1 + a1 + a2) x (N+1)

  std::vector<int> selected_;  // rows in use (ascending; includes 0)
  double selected_cond_ = 1.0;
  int total_newton_iters_ = 0;
  int total_function_evals_ = 0;
  int total_hessian_evals_ = 0;

  // Fit cached by GridResolved for reuse in Package.
  bool fit_valid_ = false;
  int fit_grid_ = 0;
  std::vector<double> fit_theta_;
  std::vector<double> fit_coeffs_;
};

}  // namespace msketch

#endif  // MSKETCH_CORE_MAXENT_PROBLEM_H_
