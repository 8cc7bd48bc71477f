#include "numerics/optim.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>

#include "common/macros.h"

namespace msketch {

namespace {

double MaxAbs(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace

Result<OptimResult> NewtonMinimize(const ObjectiveFn& objective,
                                   std::vector<double> x0,
                                   const NewtonOptions& options) {
  const size_t n = x0.size();
  ObjectiveEval eval;
  objective(x0, EvalLevel::kHessian, &eval);
  if (!std::isfinite(eval.value)) {
    return Status::InvalidArgument("NewtonMinimize: objective not finite at x0");
  }

  OptimResult result;
  result.x = std::move(x0);
  result.value = eval.value;
  double prev_step = 1.0;

  for (int iter = 0; iter < options.max_iter; ++iter) {
    result.grad_norm = MaxAbs(eval.gradient);
    result.iterations = iter;
    if (result.grad_norm <= options.grad_tol) return result;

    // Newton direction with escalating Tikhonov ridge if H is not PD.
    std::vector<double> neg_grad(n);
    for (size_t i = 0; i < n; ++i) neg_grad[i] = -eval.gradient[i];
    std::vector<double> direction;
    double ridge = 0.0;
    for (int attempt = 0; attempt < 40; ++attempt) {
      Matrix h = eval.hessian;
      if (ridge > 0.0) {
        for (size_t i = 0; i < n; ++i) h(i, i) += ridge;
      }
      Result<Matrix> chol = CholeskyFactor(h);
      if (chol.ok()) {
        direction = CholeskySolve(chol.value(), neg_grad);
        bool finite = true;
        for (double d : direction) finite = finite && std::isfinite(d);
        if (finite && Dot(direction, eval.gradient) < 0.0) break;
        direction.clear();
      }
      ridge = (ridge == 0.0) ? options.ridge0 : ridge * 10.0;
      if (ridge > 1e12) break;
    }
    if (direction.empty()) {
      // Last resort: steepest descent.
      direction = neg_grad;
    }

    // Armijo backtracking. Trial points are evaluated for their value
    // alone (the test reads nothing else); gradient and Hessian are
    // computed once, at the accepted point. See
    // NewtonOptions::adaptive_initial_step for the warm-start
    // opening-step policy.
    const double slope = Dot(eval.gradient, direction);
    double step = options.adaptive_initial_step
                      ? std::min(1.0, 4.0 * prev_step)
                      : 1.0;
    std::vector<double> x_new(n);
    ObjectiveEval eval_new;
    bool accepted = false;
    for (int bt = 0; bt < options.max_backtracks; ++bt) {
      for (size_t i = 0; i < n; ++i) {
        x_new[i] = result.x[i] + step * direction[i];
      }
      objective(x_new, EvalLevel::kValue, &eval_new);
      if (std::isfinite(eval_new.value) &&
          eval_new.value <=
              result.value + options.armijo_c * step * slope) {
        accepted = true;
        break;
      }
      step *= options.backtrack;
    }
    if (!accepted) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3e", result.grad_norm);
      return Status::NotConverged(
          std::string("NewtonMinimize: line search failed (gradient ") + buf +
          ")");
    }
    // Fixed point (see optim.h): x did not move and the next search
    // opens at this same step, so every remaining iteration repeats this
    // one. End the run with the cap's status now.
    if (std::memcmp(x_new.data(), result.x.data(), n * sizeof(double)) ==
            0 &&
        (!options.adaptive_initial_step || step == prev_step)) {
      break;
    }
    prev_step = step;
    objective(x_new, EvalLevel::kHessian, &eval_new);
    result.x = x_new;
    result.value = eval_new.value;
    eval = std::move(eval_new);
  }
  result.grad_norm = MaxAbs(eval.gradient);
  if (result.grad_norm <= options.grad_tol) return result;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3e", result.grad_norm);
  return Status::NotConverged(
             std::string("NewtonMinimize: max iterations, gradient ") + buf)
      .WithReason(StatusReason::kIterationCap);
}

Result<OptimResult> LbfgsMinimize(const ObjectiveFn& objective,
                                  std::vector<double> x0,
                                  const LbfgsOptions& options) {
  const size_t n = x0.size();
  ObjectiveEval eval;
  objective(x0, EvalLevel::kGradient, &eval);
  if (!std::isfinite(eval.value)) {
    return Status::InvalidArgument("LbfgsMinimize: objective not finite at x0");
  }

  OptimResult result;
  result.x = std::move(x0);
  result.value = eval.value;

  std::deque<std::vector<double>> s_hist, y_hist;
  std::deque<double> rho_hist;

  for (int iter = 0; iter < options.max_iter; ++iter) {
    result.grad_norm = MaxAbs(eval.gradient);
    result.iterations = iter;
    if (result.grad_norm <= options.grad_tol) return result;

    // Two-loop recursion.
    std::vector<double> q = eval.gradient;
    std::vector<double> alphas(s_hist.size());
    for (size_t i = s_hist.size(); i-- > 0;) {
      alphas[i] = rho_hist[i] * Dot(s_hist[i], q);
      for (size_t j = 0; j < n; ++j) q[j] -= alphas[i] * y_hist[i][j];
    }
    if (!s_hist.empty()) {
      const double ys = Dot(y_hist.back(), s_hist.back());
      const double yy = Dot(y_hist.back(), y_hist.back());
      const double gamma = (yy > 0) ? ys / yy : 1.0;
      for (size_t j = 0; j < n; ++j) q[j] *= gamma;
    }
    for (size_t i = 0; i < s_hist.size(); ++i) {
      const double beta = rho_hist[i] * Dot(y_hist[i], q);
      for (size_t j = 0; j < n; ++j) {
        q[j] += s_hist[i][j] * (alphas[i] - beta);
      }
    }
    std::vector<double> direction(n);
    for (size_t j = 0; j < n; ++j) direction[j] = -q[j];
    double slope = Dot(eval.gradient, direction);
    if (slope >= 0.0) {
      // Reset to steepest descent if curvature information went bad.
      for (size_t j = 0; j < n; ++j) direction[j] = -eval.gradient[j];
      slope = Dot(eval.gradient, direction);
      s_hist.clear();
      y_hist.clear();
      rho_hist.clear();
    }

    double step = 1.0;
    std::vector<double> x_new(n);
    ObjectiveEval eval_new;
    bool accepted = false;
    for (int bt = 0; bt < options.max_backtracks; ++bt) {
      for (size_t j = 0; j < n; ++j) {
        x_new[j] = result.x[j] + step * direction[j];
      }
      objective(x_new, EvalLevel::kGradient, &eval_new);
      if (std::isfinite(eval_new.value) &&
          eval_new.value <=
              result.value + options.armijo_c * step * slope) {
        accepted = true;
        break;
      }
      step *= options.backtrack;
    }
    if (!accepted) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3e", result.grad_norm);
      return Status::NotConverged(
          std::string("LbfgsMinimize: line search failed (gradient ") + buf +
          ")");
    }

    std::vector<double> s(n), y(n);
    for (size_t j = 0; j < n; ++j) {
      s[j] = x_new[j] - result.x[j];
      y[j] = eval_new.gradient[j] - eval.gradient[j];
    }
    const double ys = Dot(y, s);
    if (ys > 1e-14) {
      s_hist.push_back(std::move(s));
      y_hist.push_back(std::move(y));
      rho_hist.push_back(1.0 / ys);
      if (static_cast<int>(s_hist.size()) > options.history) {
        s_hist.pop_front();
        y_hist.pop_front();
        rho_hist.pop_front();
      }
    }
    result.x = x_new;
    result.value = eval_new.value;
    eval = std::move(eval_new);
  }
  result.grad_norm = MaxAbs(eval.gradient);
  if (result.grad_norm <= options.grad_tol) return result;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3e", result.grad_norm);
  return Status::NotConverged(std::string("LbfgsMinimize: max iterations, gradient ") + buf);
}

}  // namespace msketch
