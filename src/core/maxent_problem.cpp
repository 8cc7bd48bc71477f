#include "core/maxent_problem.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "common/macros.h"
#include "core/atomic_fit.h"
#include "numerics/chebyshev.h"
#include "numerics/eigen.h"
#include "numerics/integration.h"

namespace msketch {

namespace {

// Clenshaw-Curtis weights are O(N^2) to build; cache per grid size.
const std::vector<double>& CachedCcWeights(int n) {
  static std::mutex mu;
  static std::unordered_map<int, std::vector<double>> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, ClenshawCurtisWeights(n)).first;
  }
  return it->second;
}

const std::vector<double>& CachedLobatto(int n) {
  static std::mutex mu;
  static std::unordered_map<int, std::vector<double>> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, ChebyshevLobattoPoints(n)).first;
  }
  return it->second;
}

// Grid sums for the Newton objective, W entries per pass over the grid:
// out[k] = sum_j b[k][j] * f[j], or sum_j (a[j] * b[k][j]) * f[j] when
// kScaled. Every entry has its own accumulator and adds its terms in
// ascending j, exactly as a loop per entry would, so the W sums only
// overlap in time and each is bitwise the one-entry sum.
template <size_t W, bool kScaled>
void GridSums(const double* MSKETCH_GCC_RESTRICT a, const double* const* b,
              const double* MSKETCH_GCC_RESTRICT f, size_t npts,
              double* out) {
  const double* MSKETCH_GCC_RESTRICT bk[W];
  for (size_t k = 0; k < W; ++k) bk[k] = b[k];
  double acc[W] = {};
  for (size_t j = 0; j < npts; ++j) {
    const double fj = f[j];
    for (size_t k = 0; k < W; ++k) {
      if constexpr (kScaled) {
        acc[k] += (a[j] * bk[k][j]) * fj;
      } else {
        acc[k] += bk[k][j] * fj;
      }
    }
  }
  for (size_t k = 0; k < W; ++k) out[k] = acc[k];
}

// GridSums over `count` rows: blocks of four, then a 1-3 row tail.
template <bool kScaled>
void GridSumsBlocked(const double* a, const double* const* b, size_t count,
                     const double* f, size_t npts, double* out) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    GridSums<4, kScaled>(a, b + i, f, npts, out + i);
  }
  switch (count - i) {
    case 3:
      GridSums<3, kScaled>(a, b + i, f, npts, out + i);
      break;
    case 2:
      GridSums<2, kScaled>(a, b + i, f, npts, out + i);
      break;
    case 1:
      GridSums<1, kScaled>(a, b + i, f, npts, out + i);
      break;
    default:
      break;
  }
}

// The maxent potential on one grid and moment selection (see
// MaxEntProblem::Objective): value sum_j w_j exp(theta . b_j) - theta .
// target, gradient and Hessian as the EvalLevel asks.
class GridObjective {
 public:
  // rows[p]: selected basis row p on the grid (rows[0] is the constant);
  // the eval counters are bumped per call.
  GridObjective(std::vector<const double*> rows, std::vector<double> target,
                const double* weights, size_t npts, int* function_evals,
                int* hessian_evals)
      : rows_(std::move(rows)),
        target_(std::move(target)),
        weights_(weights),
        npts_(npts),
        function_evals_(function_evals),
        hessian_evals_(hessian_evals),
        e_(npts),
        f_(npts),
        raw_(rows_.size()) {}

  void operator()(const std::vector<double>& theta, EvalLevel level,
                  ObjectiveEval* out) {
    // Counted per call, so failed runs' work shows too.
    ++*(level == EvalLevel::kHessian ? hessian_evals_ : function_evals_);
    const size_t d = rows_.size();
    if (!DensityHeldAt(theta)) DensityPass(theta);
    out->value = integral_;
    for (size_t p = 0; p < d; ++p) out->value -= theta[p] * target_[p];
    if (level == EvalLevel::kValue) return;

    // Raw sums sum_j b_p(u_j) f_j. Row 0 is the constant 1, and 1 * f_j
    // == f_j, so its sum is the integral, term for term.
    const double* f = f_.data();
    raw_[0] = integral_;
    GridSumsBlocked<false>(nullptr, rows_.data() + 1, d - 1, f, npts_,
                           raw_.data() + 1);
    out->gradient.resize(d);
    for (size_t p = 0; p < d; ++p) out->gradient[p] = raw_[p] - target_[p];
    if (level == EvalLevel::kGradient) return;

    // Hessian entries sum_j (b_p b_q)(u_j) f_j. Row 0 is the raw sums
    // above (1 * b_q == b_q exactly); they are taken before the target is
    // subtracted, since (g - t) + t need not round back to g.
    out->hessian = Matrix(d, d);
    for (size_t q = 0; q < d; ++q) {
      out->hessian(0, q) = raw_[q];
      out->hessian(q, 0) = raw_[q];
    }
    for (size_t p = 1; p < d; ++p) {
      // Row p from the diagonal on is contiguous (row-major).
      GridSumsBlocked<true>(rows_[p], rows_.data() + p, d - p, f, npts_,
                            &out->hessian(p, p));
      for (size_t q = p + 1; q < d; ++q) {
        out->hessian(q, p) = out->hessian(p, q);
      }
    }
  }

 private:
  // True when the density buffer was computed at this theta, bit for bit
  // (Newton asks for the accepted trial again, at kHessian).
  bool DensityHeldAt(const std::vector<double>& theta) const {
    return theta.size() == held_theta_.size() &&
           std::memcmp(theta.data(), held_theta_.data(),
                       theta.size() * sizeof(double)) == 0;
  }

  // f_j = exp(min(theta . b_j, 700)) * w_j and their integral.
  void DensityPass(const std::vector<double>& theta) {
    const size_t d = rows_.size();
    double* MSKETCH_GCC_RESTRICT e = e_.data();
    double* MSKETCH_GCC_RESTRICT f = f_.data();
    const double t0v = theta[0];
    for (size_t j = 0; j < npts_; ++j) e[j] = t0v;  // basis row 0 == 1
    for (size_t p = 1; p < d; ++p) {
      const double tp = theta[p];
      const double* bp = rows_[p];
      for (size_t j = 0; j < npts_; ++j) e[j] += tp * bp[j];
    }
    double integral = 0.0;
    const double* w = weights_;
    for (size_t j = 0; j < npts_; ++j) {
      const double fj = std::exp(std::min(e[j], 700.0)) * w[j];
      f[j] = fj;  // pre-weighted density values
      integral += fj;
    }
    integral_ = integral;
    held_theta_ = theta;
  }

  std::vector<const double*> rows_;
  std::vector<double> target_;
  const double* weights_;
  size_t npts_;
  int* function_evals_;
  int* hessian_evals_;
  // Hoisted buffers: the objective runs hundreds of times per solve.
  std::vector<double> e_, f_, raw_;
  // The last density pass: f_ and integral_ at held_theta_ (empty before
  // the first pass; theta is never empty).
  std::vector<double> held_theta_;
  double integral_ = 0.0;
};

}  // namespace

void MaxEntProblem::BuildGrid(int n) {
  grid_n_ = n;
  fit_valid_ = false;
  nodes_ = CachedLobatto(n);
  weights_ = CachedCcWeights(n);
  const size_t npts = nodes_.size();
  basis_.assign(static_cast<size_t>(1 + a1_ + a2_) * npts, 0.0);
  // Primary basis (rows 0..a1): plain Chebyshev polynomials in u,
  // tabulated in one batched recurrence pass directly into the flat
  // row-major matrix (same three-term recurrence as ChebyshevTAll, so
  // values are bit-identical to a per-point build). Row 0 is the
  // constant.
  ChebyshevTAllMany(a1_, nodes_.data(), npts, basis_.data());
  // Secondary basis: Chebyshev polynomials in the other domain's scaled
  // coordinate, evaluated through the domain transform.
  if (a2_ > 0) {
    std::vector<double> ws(npts);
    for (size_t j = 0; j < npts; ++j) {
      const double u = nodes_[j];
      double w;
      if (!log_primary_) {
        // x-primary: secondary functions are T_j(s2(log x)).
        const double x = std::max(std_map_.Inverse(u), 1e-300);
        w = log_map_.Forward(std::log(x));
      } else {
        // log-primary: secondary functions are T_i(s1(exp(y))).
        const double y = log_map_.Inverse(u);
        w = std_map_.Forward(std::exp(y));
      }
      ws[j] = std::clamp(w, -1.0, 1.0);
    }
    std::vector<double> flat(static_cast<size_t>(a2_ + 1) * npts);
    ChebyshevTAllMany(a2_, ws.data(), npts, flat.data());
    std::copy(flat.begin() + npts, flat.end(),
              basis_.begin() + static_cast<size_t>(a1_ + 1) * npts);
  }
}

Matrix MaxEntProblem::UniformHessian(const std::vector<int>& rows) const {
  const size_t d = rows.size();
  Matrix h(d, d);
  for (size_t p = 0; p < d; ++p) {
    for (size_t q = p; q < d; ++q) {
      double acc = 0.0;
      const double* bp = BasisRow(rows[p]);
      const double* bq = BasisRow(rows[q]);
      for (size_t j = 0; j < weights_.size(); ++j) {
        acc += weights_[j] * bp[j] * bq[j];
      }
      h(p, q) = 0.5 * acc;
      h(q, p) = h(p, q);
    }
  }
  return h;
}

void MaxEntProblem::SelectMoments(CondMemo* cond_memo) {
  selected_ = {0};
  selected_cond_ = 1.0;
  int k1 = 0, k2 = 0;
  int limit1 = a1_, limit2 = a2_;  // greedy caps; basis row offsets stay put
  // Uniform expectations of the secondary basis rows (numeric; the primary
  // rows have the closed form UniformChebyshevMoment).
  auto uniform_expect = [&](int row) {
    double acc = 0.0;
    for (size_t j = 0; j < weights_.size(); ++j) {
      acc += weights_[j] * BasisRow(row)[j];
    }
    return 0.5 * acc;
  };
  // Primary-orders bitmask of the current selection; valid (and the memo
  // applicable) only while no secondary row has been accepted.
  uint64_t primary_mask = 0;
  // Condition number of `trial`, through the memo when every non-zero
  // row is primary. The memoized value is the same matrix's condition
  // number computed on an earlier group — identical basis rows, so this
  // is a cache, not an approximation.
  auto trial_cond = [&](const std::vector<int>& trial, bool all_primary,
                        uint64_t trial_mask) {
    double cond;
    if (all_primary && cond_memo != nullptr &&
        cond_memo->Lookup(grid_n_, trial_mask, &cond)) {
      return cond;
    }
    cond = SymmetricConditionNumber(UniformHessian(trial));
    if (all_primary && cond_memo != nullptr) {
      cond_memo->Insert(grid_n_, trial_mask, cond);
    }
    return cond;
  };

  while (k1 < limit1 || k2 < limit2) {
    struct Candidate {
      int row;
      double distance;  // |moment - uniform expectation|
      bool is_primary;
    };
    std::vector<Candidate> cands;
    if (k1 < limit1) {
      const int row = k1 + 1;
      cands.push_back({row,
                       std::fabs(primary_moments_[row] -
                                 UniformChebyshevMoment(row)),
                       true});
    }
    if (k2 < limit2) {
      const int row = a1_ + k2 + 1;
      cands.push_back({row,
                       std::fabs(secondary_moments_[k2 + 1] -
                                 uniform_expect(row)),
                       false});
    }
    std::sort(cands.begin(), cands.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.distance < b.distance;
              });
    bool advanced = false;
    for (const Candidate& c : cands) {
      std::vector<int> trial = selected_;
      trial.push_back(c.row);
      const bool all_primary = k2 == 0 && c.is_primary;
      const uint64_t trial_mask =
          all_primary ? (primary_mask | (1ull << (c.row - 1))) : 0;
      const double cond = trial_cond(trial, all_primary, trial_mask);
      if (cond <= opt_.kappa_max) {
        selected_ = std::move(trial);
        selected_cond_ = cond;
        if (c.is_primary) {
          ++k1;
          primary_mask |= 1ull << (c.row - 1);
        } else {
          ++k2;
        }
        advanced = true;
        break;
      }
      // Candidate rejected for conditioning; stop growing this family.
      if (c.is_primary) {
        limit1 = k1;
      } else {
        limit2 = k2;
      }
    }
    if (!advanced) break;
  }
  // Canonical slot order: ascending basis row (row 0 stays first). The
  // greedy trials above keep their historical insertion order — the
  // condition screen sees the same matrices as always — but downstream
  // consumers (Newton, packaging, the warm-start export) see
  // one deterministic layout per selected subset.
  std::sort(selected_.begin(), selected_.end());
}

std::vector<double> MaxEntProblem::FValues(
    const std::vector<double>& theta) const {
  const size_t npts = nodes_.size();
  std::vector<double> f(npts);
  for (size_t j = 0; j < npts; ++j) {
    double e = 0.0;
    for (size_t p = 0; p < selected_.size(); ++p) {
      e += theta[p] * BasisRow(selected_[p])[j];
    }
    f[j] = std::exp(std::min(e, 700.0));
  }
  return f;
}

double MaxEntProblem::TargetFor(size_t p) const {
  const int row = selected_[p];
  if (row == 0) return 1.0;
  return (row <= a1_) ? primary_moments_[row]
                      : secondary_moments_[row - a1_];
}

ObjectiveFn MaxEntProblem::Objective() {
  const size_t d = selected_.size();
  std::vector<const double*> rows(d);
  std::vector<double> target(d);  // [1, selected moments...]
  for (size_t p = 0; p < d; ++p) {
    rows[p] = BasisRow(selected_[p]);
    target[p] = TargetFor(p);
  }
  return GridObjective(std::move(rows), std::move(target), weights_.data(),
                       nodes_.size(), &total_function_evals_,
                       &total_hessian_evals_);
}

Result<OptimResult> MaxEntProblem::RunNewton(std::vector<double> theta0,
                                             bool warm) {
  NewtonOptions nopts;
  nopts.max_iter = opt_.max_newton_iter;
  nopts.grad_tol = opt_.grad_tol;
  nopts.adaptive_initial_step = warm;
  return NewtonMinimize(Objective(), std::move(theta0), nopts);
}

bool MaxEntProblem::GridResolved(const std::vector<double>& theta) {
  std::vector<double> f = FValues(theta);
  std::vector<double> coeffs = ChebyshevFit(f);
  // Cache the fit: Package reuses it when called with the same theta on
  // the same grid, saving the second FValues + fit pass.
  fit_valid_ = true;
  fit_grid_ = grid_n_;
  fit_theta_ = theta;
  fit_coeffs_ = coeffs;
  double cmax = 0.0;
  for (double c : coeffs) cmax = std::max(cmax, std::fabs(c));
  if (cmax == 0.0) return true;
  // Tail: last eighth of the coefficients must be negligible. 1e-5
  // relative keeps the quadrature bias well below quantile-error
  // resolution (eps_avg ~ 1e-3) while avoiding needless regrids; on
  // milan a 4x finer grid moves q99 by < 0.3%.
  const size_t tail_start = coeffs.size() - coeffs.size() / 8;
  double tail = 0.0;
  for (size_t i = tail_start; i < coeffs.size(); ++i) {
    tail = std::max(tail, std::fabs(coeffs[i]));
  }
  return tail <= 1e-5 * cmax;
}

bool MaxEntProblem::TrySeedFromHint(const WarmStart& hint,
                                    std::vector<double>* theta) const {
  if (!hint.valid() || hint.log_primary != log_primary_) {
    return false;
  }
  // The greedy selection has already run (cold start), so the fitted
  // moment subset is greedy's regardless of the hint — the potential is
  // strictly convex on that subset, and any seed converges to the same
  // unique optimum. Seed the multipliers of the rows the hint also
  // selected and leave the rest at zero; require a majority overlap so
  // the seed is actually near the optimum rather than a stale fragment.
  std::vector<double> seeded(selected_.size(), 0.0);
  seeded[0] = hint.theta0;
  size_t matched = 0;
  for (size_t p = 1; p < selected_.size(); ++p) {
    const int row = selected_[p];
    const bool primary = row <= a1_;
    const int order = primary ? row : row - a1_;
    for (const WarmStart::Entry& e : hint.entries) {
      if (e.primary == primary && e.order == order) {
        // Distance gate: a seed fitted to distant moments starts Newton
        // in heavily-damped territory and costs more than a zero start.
        const double target = primary ? primary_moments_[row]
                                      : secondary_moments_[row - a1_];
        if (std::fabs(target - e.moment) > opt_.warm_gate) return false;
        seeded[p] = e.theta;
        ++matched;
        break;
      }
    }
  }
  if (2 * matched < selected_.size() - 1) return false;
  *theta = std::move(seeded);
  // Deliberately NOT seeding the quadrature grid: grid escalation is
  // per-density, and inheriting a neighbor's escalated grid makes every
  // downstream solve in a warm chain pay the fine-grid cost ("sticky"
  // escalation). Starting at min_grid re-escalates only when this
  // density needs it, reusing the converged theta between grids.
  return true;
}

void MaxEntProblem::ResetColdSeed(std::vector<double>* theta) const {
  theta->assign(selected_.size(), 0.0);
  (*theta)[0] = -std::log(2.0);
}

Status MaxEntProblem::Prepare(const MomentsSketch& sketch,
                              const MaxEntOptions& options,
                              CondMemo* cond_memo) {
  opt_ = options;
  cold_restarts_ = 0;
  iteration_capped_ = 0;
  backoff_drops_ = 0;
  if (sketch.count() == 0) {
    return Status::InvalidArgument("SolveMaxEnt: empty sketch");
  }
  xmin_ = sketch.min();
  xmax_ = sketch.max();
  if (sketch.min() >= sketch.max()) {  // point mass
    degenerate_ = true;
    return Status::OK();
  }

  // Moment availability under floating point stability (Section 4.3.2).
  std_map_ = MakeScaleMap(sketch.min(), sketch.max());
  const double c_std = std_map_.center / std_map_.radius;
  int avail_std = opt_.use_std_moments
                      ? std::min(sketch.k(), StableKBound(c_std))
                      : 0;
  if (opt_.max_k1 >= 0) avail_std = std::min(avail_std, opt_.max_k1);

  int avail_log = 0;
  const bool log_ok = opt_.use_log_moments && sketch.LogMomentsUsable();
  if (log_ok) {
    log_map_ = MakeScaleMap(std::log(sketch.min()),
                            std::log(sketch.max()));
    const double c_log = log_map_.center / log_map_.radius;
    avail_log = std::min(sketch.k(), StableKBound(c_log));
    if (opt_.max_k2 >= 0) avail_log = std::min(avail_log, opt_.max_k2);
  }
  if (avail_std + avail_log == 0) {
    return Status::Unsupported("SolveMaxEnt: no usable moments");
  }

  // Refuse to fit a density when the moments are exactly consistent with
  // a handful of atoms: no density matches them, and the drop-moments
  // retry below would otherwise converge to a confidently wrong answer
  // (the paper: the solver fails on < 5 distinct values, Section 6.2.3).
  // Every usable domain must look atomic — heavy-tailed data squeezed
  // into a sliver of the standard domain (e.g. retail) can spuriously
  // admit an atomic fit there while its log moments are plainly
  // continuous.
  {
    auto std_scaled = ShiftPowerMoments(sketch.StandardMoments(), std_map_);
    std_scaled.resize(std::max(2 * (avail_std / 2), 2) + 1);
    bool atomic = FitAtomicScaled(std_scaled, 1e-9).ok();
    if (atomic && avail_log > 0) {
      auto log_scaled = ShiftPowerMoments(sketch.LogMoments(), log_map_);
      log_scaled.resize(std::max(2 * (avail_log / 2), 2) + 1);
      atomic = FitAtomicScaled(log_scaled, 1e-9).ok();
    }
    if (atomic) {
      return Status::NotConverged(
                 "SolveMaxEnt: moments match an atomic (near-discrete) "
                 "measure")
          .WithReason(StatusReason::kAtomicMeasure);
    }
  }

  // Primary domain (Appendix A, Eq. 8): integrate in log space when log
  // moments dominate — they do for long-tailed data.
  log_primary_ = log_ok && avail_log >= avail_std;
  const std::vector<double> cheb_std = PowerMomentsToChebyshev(
      sketch.StandardMoments(), std_map_);
  std::vector<double> cheb_log;
  if (log_ok) {
    cheb_log = PowerMomentsToChebyshev(sketch.LogMoments(), log_map_);
  }
  if (log_primary_) {
    a1_ = avail_log;
    a2_ = avail_std;
    primary_moments_.assign(cheb_log.begin(), cheb_log.begin() + a1_ + 1);
    secondary_moments_.assign(cheb_std.begin(), cheb_std.begin() + a2_ + 1);
  } else {
    a1_ = avail_std;
    a2_ = avail_log;
    primary_moments_.assign(cheb_std.begin(), cheb_std.begin() + a1_ + 1);
    secondary_moments_.assign(
        cheb_log.begin(),
        cheb_log.begin() + (cheb_log.empty() ? 0 : a2_ + 1));
  }

  BuildGrid(opt_.min_grid);
  SelectMoments(cond_memo);
  if (selected_.size() <= 1) {
    return Status::NotConverged(
        "SolveMaxEnt: conditioning excluded all moments");
  }
  return Status::OK();
}

Result<MaxEntDistribution> MaxEntProblem::Solve(const MomentsSketch& sketch,
                                                const MaxEntOptions& options,
                                                const WarmStart* hint,
                                                CondMemo* cond_memo) {
  MaxEntProblem problem;
  Status st = problem.Prepare(sketch, options, cond_memo);
  if (!st.ok()) return st;
  if (problem.degenerate_) return problem.MakeDegenerate();
  std::vector<double> theta;
  problem.ResetColdSeed(&theta);
  const bool warm =
      hint != nullptr && problem.TrySeedFromHint(*hint, &theta);
  return problem.SolveFrom(std::move(theta), warm);
}

MaxEntDistribution MaxEntProblem::MakeDegenerate() const {
  MaxEntDistribution dist;
  dist.degenerate_ = true;
  dist.xmin_ = xmin_;
  dist.xmax_ = xmax_;
  return dist;
}

Result<MaxEntDistribution> MaxEntProblem::SolveFrom(std::vector<double> theta,
                                                    bool warm) {
  for (;;) {
    Result<OptimResult> res = RunNewton(theta, warm);
    if (!res.ok()) {
      if (res.status().reason() == StatusReason::kIterationCap) {
        ++iteration_capped_;
      }
      if (warm) {
        // The seed did not transfer (the sketches were less similar than
        // the caller hoped); restart from the zero-theta cold seed, which
        // must succeed or fail exactly as a hint-free solve would.
        ++cold_restarts_;
        warm = false;
        if (grid_n_ != opt_.min_grid) BuildGrid(opt_.min_grid);
        ResetColdSeed(&theta);
        continue;
      }
      // Divergence usually means the moment set admits no density (heavy
      // atoms / near-discrete data, Section 6.2.3). Mirror the paper's
      // query-time remedy: back off to fewer moments and re-solve.
      if (selected_.size() > 2) {
        ++backoff_drops_;
        selected_.pop_back();
        ResetColdSeed(&theta);
        continue;
      }
      return res.status();
    }
    total_newton_iters_ += res->iterations;
    theta = res->x;
    if (GridResolved(theta) || grid_n_ >= opt_.max_grid) break;
    BuildGrid(grid_n_ * 2);
  }
  return Package(theta, warm);
}

Result<MaxEntDistribution> MaxEntProblem::Package(
    const std::vector<double>& theta, bool warm) {
  MaxEntDistribution dist;
  dist.xmin_ = xmin_;
  dist.xmax_ = xmax_;

  // Package the result: a monotone tabulated CDF of the solved density.
  // The Chebyshev fit of f is normally cached by the GridResolved call
  // that ended the solve loop; recompute defensively otherwise.
  std::vector<double> coeffs;
  if (fit_valid_ && fit_grid_ == grid_n_ && fit_theta_ == theta) {
    coeffs = fit_coeffs_;
  } else {
    coeffs = ChebyshevFit(FValues(theta));
  }
  std::vector<double> antider = ChebyshevAntiderivative(coeffs);
  // Evaluate only the significant prefix: the antiderivative of a
  // resolved density decays geometrically, and the 513-point tabulation
  // below was the single largest non-Newton cost of a solve. Dropping
  // coefficients below 1e-10 of the peak perturbs the (normalized,
  // interpolated) CDF at ~1e-9 — three orders below the table's own
  // interpolation error.
  antider.resize(
      std::max<size_t>(ChebyshevSignificantPrefix(antider, 1e-10), 2));
  const int kCdfPoints = 513;
  dist.cdf_values_.resize(kCdfPoints);
  {
    // Batched evaluation (point-blocked Clenshaw), then the monotone
    // running-max pass.
    std::vector<double> us(kCdfPoints);
    for (int i = 0; i < kCdfPoints; ++i) {
      us[i] = -1.0 + 2.0 * static_cast<double>(i) / (kCdfPoints - 1);
    }
    ChebyshevEvalMany(antider, us.data(), us.size(),
                      dist.cdf_values_.data());
    double running = 0.0;
    for (double& v : dist.cdf_values_) {
      running = std::max(running, v);
      v = running;
    }
  }
  const double total = dist.cdf_values_.back();
  if (!(total > 0.0) || !std::isfinite(total)) {
    return Status::NotConverged("SolveMaxEnt: degenerate total mass");
  }
  for (double& v : dist.cdf_values_) v /= total;
  dist.log_primary_ = log_primary_;
  dist.primary_map_ = log_primary_ ? log_map_ : std_map_;
  // Count only the *selected* rows per family.
  int sel_primary = 0, sel_secondary = 0;
  for (int row : selected_) {
    if (row == 0) continue;
    if (row <= a1_) {
      ++sel_primary;
    } else {
      ++sel_secondary;
    }
  }
  dist.diag_.k1 = log_primary_ ? sel_secondary : sel_primary;
  dist.diag_.k2 = log_primary_ ? sel_primary : sel_secondary;
  dist.diag_.newton_iterations = total_newton_iters_;
  dist.diag_.function_evals = total_function_evals_;
  dist.diag_.hessian_evals = total_hessian_evals_;
  dist.diag_.grid_size = grid_n_;
  dist.diag_.condition_number = selected_cond_;
  dist.diag_.log_primary = log_primary_;
  dist.diag_.warm_started = warm;
  dist.diag_.cold_restarts = cold_restarts_;
  dist.diag_.iteration_capped = iteration_capped_;
  dist.diag_.backoff_drops = backoff_drops_;
  // Export the solution as a seed for the next (similar) sketch.
  dist.warm_.log_primary = log_primary_;
  dist.warm_.grid_n = grid_n_;
  dist.warm_.theta0 = theta[0];
  dist.warm_.entries.clear();
  dist.warm_.entries.reserve(selected_.size() - 1);
  for (size_t p = 1; p < selected_.size(); ++p) {
    const int row = selected_[p];
    WarmStart::Entry e;
    e.primary = row <= a1_;
    e.order = e.primary ? row : row - a1_;
    e.theta = theta[p];
    e.moment = e.primary ? primary_moments_[row]
                         : secondary_moments_[row - a1_];
    dist.warm_.entries.push_back(e);
  }
  return dist;
}

}  // namespace msketch
