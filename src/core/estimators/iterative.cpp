// Iterative maxent lesion estimators: newton (adaptive Romberg
// integration, i.e. the solver *without* the Section 4.3 Chebyshev
// quadrature), bfgs (first-order), and opt (the full solver).
#include <algorithm>
#include <cmath>

#include "core/estimators/estimators.h"
#include "core/estimators/moment_problem.h"
#include "core/maxent_solver.h"
#include "numerics/chebyshev.h"
#include "numerics/integration.h"
#include "numerics/optim.h"
#include "numerics/root_finding.h"

namespace msketch {

namespace {

// Shared: maxent in a single scaled domain with basis T_0..T_k. Builds
// quantiles from the converged theta via a fine Chebyshev CDF.
Result<std::vector<double>> QuantilesFromTheta(
    const std::vector<double>& theta, const MomentProblem& p,
    const std::vector<double>& phis) {
  const int n = 512;
  auto pts = ChebyshevLobattoPoints(n);
  std::vector<double> f(pts.size());
  for (size_t j = 0; j < pts.size(); ++j) {
    f[j] = std::exp(std::min(ChebyshevEval(theta, pts[j]), 700.0));
  }
  auto coeffs = ChebyshevFit(f);
  auto cdf = ChebyshevAntiderivative(coeffs);
  const double total = ChebyshevEval(cdf, 1.0);
  if (!(total > 0.0) || !std::isfinite(total)) {
    return Status::NotConverged("maxent: degenerate mass");
  }
  std::vector<double> out;
  out.reserve(phis.size());
  for (double phi : phis) {
    const double target = std::clamp(phi, 0.0, 1.0) * total;
    auto fn = [&](double u) { return ChebyshevEval(cdf, u) - target; };
    double u = 0.0;
    if (fn(-1.0) >= 0.0) {
      u = -1.0;
    } else if (fn(1.0) <= 0.0) {
      u = 1.0;
    } else {
      auto root = BrentRoot(fn, -1.0, 1.0, 1e-12);
      u = root.ok() ? root.value() : 0.0;
    }
    out.push_back(p.MapBack(u));
  }
  return out;
}

// Newton with each gradient/Hessian entry evaluated by adaptive Romberg
// integration — O(k^2) independent numeric integrals per iteration.
class NewtonRombergEstimator : public MomentQuantileEstimator {
 public:
  explicit NewtonRombergEstimator(const LesionOptions& options)
      : options_(options) {}
  std::string Name() const override { return "newton"; }

  Result<std::vector<double>> EstimateQuantiles(
      const MomentsSketch& sketch,
      const std::vector<double>& phis) const override {
    MSKETCH_ASSIGN_OR_RETURN(
        MomentProblem p,
        BuildMomentProblem(sketch, options_.use_log_domain));
    const int d = p.k + 1;
    auto density = [](const std::vector<double>& theta, double u) {
      return std::exp(std::min(ChebyshevEval(theta, u), 700.0));
    };
    ObjectiveFn objective = [&](const std::vector<double>& theta,
                                EvalLevel level, ObjectiveEval* out) {
      auto integrate = [&](auto&& integrand) {
        auto r = RombergIntegrate(integrand, -1.0, 1.0, 1e-10, 1e-13, 18);
        return r.ok() ? r.value()
                      : std::numeric_limits<double>::quiet_NaN();
      };
      out->value = integrate(
          [&](double u) { return density(theta, u); });
      for (int i = 0; i < d; ++i) out->value -= theta[i] * p.cheb[i];
      // Line-search trials ask for the value alone: skip their d gradient
      // integrals.
      if (level == EvalLevel::kValue) return;
      out->gradient.assign(d, 0.0);
      for (int i = 0; i < d; ++i) {
        out->gradient[i] =
            integrate([&](double u) {
              return ChebyshevT(i, u) * density(theta, u);
            }) -
            p.cheb[i];
      }
      if (level == EvalLevel::kHessian) {
        out->hessian = Matrix(d, d);
        for (int i = 0; i < d; ++i) {
          for (int j = i; j < d; ++j) {
            const double v = integrate([&](double u) {
              return ChebyshevT(i, u) * ChebyshevT(j, u) *
                     density(theta, u);
            });
            out->hessian(i, j) = v;
            out->hessian(j, i) = v;
          }
        }
      }
    };
    std::vector<double> theta0(d, 0.0);
    theta0[0] = -std::log(2.0);
    NewtonOptions nopts;
    nopts.grad_tol = 1e-9;
    MSKETCH_ASSIGN_OR_RETURN(OptimResult res,
                             NewtonMinimize(objective, theta0, nopts));
    return QuantilesFromTheta(res.x, p, phis);
  }

 private:
  LesionOptions options_;
};

// First-order maxent: gradient via a fixed Clenshaw-Curtis grid, L-BFGS
// for the optimization. Isolates "second order vs first order".
class BfgsEstimator : public MomentQuantileEstimator {
 public:
  explicit BfgsEstimator(const LesionOptions& options) : options_(options) {}
  std::string Name() const override { return "bfgs"; }

  Result<std::vector<double>> EstimateQuantiles(
      const MomentsSketch& sketch,
      const std::vector<double>& phis) const override {
    MSKETCH_ASSIGN_OR_RETURN(
        MomentProblem p,
        BuildMomentProblem(sketch, options_.use_log_domain));
    const int d = p.k + 1;
    const int n = 512;
    auto pts = ChebyshevLobattoPoints(n);
    auto w = ClenshawCurtisWeights(n);
    // Basis values on the grid.
    std::vector<std::vector<double>> basis(d, std::vector<double>(n + 1));
    std::vector<double> tbuf(d);
    for (int j = 0; j <= n; ++j) {
      ChebyshevTAll(p.k, pts[j], tbuf.data());
      for (int i = 0; i < d; ++i) basis[i][j] = tbuf[i];
    }
    ObjectiveFn objective = [&](const std::vector<double>& theta, EvalLevel,
                                ObjectiveEval* out) {
      std::vector<double> fw(n + 1);
      double integral = 0.0;
      for (int j = 0; j <= n; ++j) {
        double e = 0.0;
        for (int i = 0; i < d; ++i) e += theta[i] * basis[i][j];
        fw[j] = std::exp(std::min(e, 700.0)) * w[j];
        integral += fw[j];
      }
      out->value = integral;
      for (int i = 0; i < d; ++i) out->value -= theta[i] * p.cheb[i];
      out->gradient.assign(d, 0.0);
      for (int i = 0; i < d; ++i) {
        double acc = 0.0;
        for (int j = 0; j <= n; ++j) acc += basis[i][j] * fw[j];
        out->gradient[i] = acc - p.cheb[i];
      }
    };
    std::vector<double> theta0(d, 0.0);
    theta0[0] = -std::log(2.0);
    // First-order methods with backtracking stall near 1e-7; 1e-6 moment
    // match is far below quantile-error resolution anyway.
    LbfgsOptions lopts;
    lopts.grad_tol = 1e-6;
    lopts.max_iter = 5000;
    MSKETCH_ASSIGN_OR_RETURN(OptimResult res,
                             LbfgsMinimize(objective, theta0, lopts));
    return QuantilesFromTheta(res.x, p, phis);
  }

 private:
  LesionOptions options_;
};

// The paper's full solver, restricted to the lesion's single domain.
class OptEstimator : public MomentQuantileEstimator {
 public:
  explicit OptEstimator(const LesionOptions& options) : options_(options) {}
  std::string Name() const override { return "opt"; }

  Result<std::vector<double>> EstimateQuantiles(
      const MomentsSketch& sketch,
      const std::vector<double>& phis) const override {
    MaxEntOptions opts;
    opts.use_log_moments = options_.use_log_domain;
    opts.use_std_moments = !options_.use_log_domain;
    // The lesion study times solver strategies; a cache hit would
    // measure the memo, not the solve.
    opts.use_solver_cache = false;
    return msketch::EstimateQuantiles(sketch, phis, opts);
  }

 private:
  LesionOptions options_;
};

}  // namespace

std::unique_ptr<MomentQuantileEstimator> MakeNewtonRombergEstimator(
    const LesionOptions& options) {
  return std::make_unique<NewtonRombergEstimator>(options);
}
std::unique_ptr<MomentQuantileEstimator> MakeBfgsEstimator(
    const LesionOptions& options) {
  return std::make_unique<BfgsEstimator>(options);
}
std::unique_ptr<MomentQuantileEstimator> MakeOptEstimator(
    const LesionOptions& options) {
  return std::make_unique<OptEstimator>(options);
}

}  // namespace msketch
