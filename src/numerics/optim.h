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

/// What an objective call must fill. Each level includes the ones
/// before it; an objective may fill more than it is asked for, and the
/// caller reads no more than it asked for.
enum class EvalLevel {
  kValue,     // value only (line-search trials)
  kGradient,  // value and gradient
  kHessian,   // value, gradient and Hessian
};

/// Objective oracle for the minimizers: fills value, gradient and
/// Hessian at x, as far as the EvalLevel asks.
struct ObjectiveEval {
  double value = 0.0;
  std::vector<double> gradient;  // filled at kGradient and kHessian
  Matrix hessian;                // filled at kHessian
};

using ObjectiveFn = std::function<void(const std::vector<double>& x,
                                       EvalLevel level, ObjectiveEval* out)>;

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
/// The objective is asked for kHessian at x0 and at each accepted point
/// (bar a fixed-point stop, below), and for kValue at every line-search
/// trial: Newton reads only the value of a trial. The accepted trial's x
/// is then asked for again at kHessian, so an objective that keeps its
/// last evaluation can reuse it.
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

/// L-BFGS with two-loop recursion and Armijo backtracking. Every oracle
/// call asks for kGradient: the accepted trial's gradient feeds the
/// curvature history.
Result<OptimResult> LbfgsMinimize(const ObjectiveFn& objective,
                                  std::vector<double> x0,
                                  const LbfgsOptions& options = {});

}  // namespace msketch

#endif  // MSKETCH_NUMERICS_OPTIM_H_
