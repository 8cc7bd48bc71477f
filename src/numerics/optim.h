// Unconstrained smooth convex minimization: damped Newton with backtracking
// line search, and limited-memory BFGS.
//
// The maximum entropy potential L(theta) (Eq. 5 in the paper) is smooth and
// convex; Newton with an exact (cheaply computed) Hessian is the paper's
// "opt" solver, and L-BFGS is the first-order comparison in the lesion
// study (Section 6.3).
#ifndef MSKETCH_NUMERICS_OPTIM_H_
#define MSKETCH_NUMERICS_OPTIM_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "numerics/matrix.h"

namespace msketch {

/// Objective oracle for second-order methods: fills value, gradient, and
/// (for Newton) the Hessian at x.
struct ObjectiveEval {
  double value = 0.0;
  std::vector<double> gradient;
  Matrix hessian;  // empty unless requested
};

using ObjectiveFn =
    std::function<void(const std::vector<double>& x, bool need_hessian,
                       ObjectiveEval* out)>;

struct NewtonOptions {
  /// Iteration cap. A run that reaches a fixed point (see NewtonMinimize)
  /// returns the cap's status without spending the remaining iterations.
  int max_iter = 200;
  double grad_tol = 1e-9;         // max-norm of gradient at convergence
  double armijo_c = 1e-4;         // sufficient-decrease constant
  double backtrack = 0.5;         // step shrink factor
  int max_backtracks = 60;
  double ridge0 = 1e-10;          // initial ridge when Cholesky fails
  /// Open each line search at min(1, 4x the previously accepted step)
  /// instead of always at 1. When consecutive iterations need similar
  /// damping — typical for warm-started solves landing in exp-overflow
  /// territory — this saves several objective evaluations per iteration;
  /// the 4x recovery restores full steps within two clean iterations.
  /// Off by default so cold solves keep their exact historical paths.
  bool adaptive_initial_step = false;
};

struct OptimResult {
  std::vector<double> x;
  double value = 0.0;
  double grad_norm = 0.0;
  int iterations = 0;
};

/// Damped Newton: solve H d = -g (Cholesky, escalating ridge on failure),
/// then Armijo backtracking. Converges when ||g||_inf <= grad_tol.
///
/// A run still above grad_tol after max_iter iterations returns
/// NotConverged with reason StatusReason::kIterationCap ("max
/// iterations, gradient <g>"); a line search that finds no descent
/// returns NotConverged without a reason. The cap's status comes early
/// at a fixed point: when the line search accepts a step whose x is
/// bitwise the current x and the next search would open at the same
/// step (always, unless adaptive_initial_step moved the opening). The
/// objective must be a deterministic function of x; then the next
/// iteration sees the same evaluation, direction and opening step, so
/// every remaining iteration repeats this one and the run would end at
/// max_iter with this same gradient. The early return is therefore
/// exactly the capped result, minus the evaluations.
Result<OptimResult> NewtonMinimize(const ObjectiveFn& objective,
                                   std::vector<double> x0,
                                   const NewtonOptions& options = {});

struct LbfgsOptions {
  int max_iter = 2000;
  int history = 10;
  double grad_tol = 1e-9;
  double armijo_c = 1e-4;
  double backtrack = 0.5;
  int max_backtracks = 60;
};

/// L-BFGS with two-loop recursion and Armijo backtracking. The oracle is
/// called with need_hessian = false.
Result<OptimResult> LbfgsMinimize(const ObjectiveFn& objective,
                                  std::vector<double> x0,
                                  const LbfgsOptions& options = {});

}  // namespace msketch

#endif  // MSKETCH_NUMERICS_OPTIM_H_
