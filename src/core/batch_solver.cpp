#include "core/batch_solver.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/macros.h"
#include "core/simd_exp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "numerics/matrix.h"
#include "numerics/optim.h"

namespace msketch {

namespace {

constexpr size_t kL = kSolverLanes;

// Struct-of-lanes view of one bucket's Newton state. All arrays are
// lane-major with stride kL: basis[(p * npts + j) * kL + l] is lane l's
// value of selected slot p at grid point j. Empty lanes carry zero
// basis/targets (their density is exp(0) — finite, ignored).
struct LanePack {
  size_t d = 0;     // selected slots (incl. the constant row)
  size_t npts = 0;  // shared grid points
  const double* weights = nullptr;      // npts (shared across lanes)
  std::vector<double> basis;            // d * npts * kL
  std::vector<double> target;           // d * kL
};

// Density pass: fbuf[(j)*kL + l] = exp(min(theta_l . basis_l(x_j), 700))
// * w_j, and value[l] = integral_l - theta_l . target_l. Every loop is a
// fixed-width lane loop with no cross-lane operations, so each lane's
// result is a deterministic function of that lane's inputs alone.
void EvalValues(const LanePack& pack, const double* MSKETCH_GCC_RESTRICT theta,
                double* MSKETCH_GCC_RESTRICT fbuf,
                double* MSKETCH_GCC_RESTRICT value) {
  const size_t d = pack.d, npts = pack.npts;
  const double* MSKETCH_GCC_RESTRICT basis = pack.basis.data();
  const double* MSKETCH_GCC_RESTRICT w = pack.weights;
  double integ[kL] = {0, 0, 0, 0, 0, 0, 0, 0};
  double e[kL], ex[kL];
  for (size_t j = 0; j < npts; ++j) {
    // Slot 0 is the constant row (basis == 1 in every lane).
    for (size_t l = 0; l < kL; ++l) {
      e[l] = theta[l];
    }
    for (size_t p = 1; p < d; ++p) {
      const double* bp = basis + (p * npts + j) * kL;
      const double* tp = theta + p * kL;
      for (size_t l = 0; l < kL; ++l) e[l] += tp[l] * bp[l];
    }
    // Same exponent clamp as the scalar objective.
    for (size_t l = 0; l < kL; ++l) e[l] = e[l] > 700.0 ? 700.0 : e[l];
    simd::ExpLanes(e, ex);
    const double wj = w[j];
    for (size_t l = 0; l < kL; ++l) {
      const double f = ex[l] * wj;
      fbuf[j * kL + l] = f;
      integ[l] += f;
    }
  }
  for (size_t l = 0; l < kL; ++l) value[l] = integ[l];
  for (size_t p = 0; p < d; ++p) {
    const double* tp = theta + p * kL;
    const double* gp = pack.target.data() + p * kL;
    for (size_t l = 0; l < kL; ++l) value[l] -= tp[l] * gp[l];
  }
}

// Gradient + (optional) Hessian from a density buffer. grad is d * kL;
// hess is d * d * kL, upper triangle (p <= q) filled.
void EvalDerivatives(const LanePack& pack,
                     const double* MSKETCH_GCC_RESTRICT fbuf,
                     double* MSKETCH_GCC_RESTRICT grad,
                     double* MSKETCH_GCC_RESTRICT hess) {
  const size_t d = pack.d, npts = pack.npts;
  const double* MSKETCH_GCC_RESTRICT basis = pack.basis.data();
  for (size_t p = 0; p < d; ++p) {
    const double* bp = basis + p * npts * kL;
    double acc[kL] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (size_t j = 0; j < npts; ++j) {
      for (size_t l = 0; l < kL; ++l) {
        acc[l] += bp[j * kL + l] * fbuf[j * kL + l];
      }
    }
    const double* gp = pack.target.data() + p * kL;
    for (size_t l = 0; l < kL; ++l) grad[p * kL + l] = acc[l] - gp[l];
  }
  if (hess == nullptr) return;
  for (size_t p = 0; p < d; ++p) {
    const double* bp = basis + p * npts * kL;
    for (size_t q = p; q < d; ++q) {
      const double* bq = basis + q * npts * kL;
      double acc[kL] = {0, 0, 0, 0, 0, 0, 0, 0};
      for (size_t j = 0; j < npts; ++j) {
        for (size_t l = 0; l < kL; ++l) {
          acc[l] += bp[j * kL + l] * bq[j * kL + l] * fbuf[j * kL + l];
        }
      }
      double* hpq = hess + (p * d + q) * kL;
      for (size_t l = 0; l < kL; ++l) hpq[l] = acc[l];
    }
  }
}

// Per-lane Newton direction with the scalar path's escalating-ridge
// Cholesky (numerics/optim.cpp). Returns the direction in `dir`
// (steepest descent when every factorization fails).
void LaneDirection(size_t d, const double* hess, const double* grad,
                   size_t lane, double ridge0, std::vector<double>* dir) {
  std::vector<double> neg_grad(d);
  for (size_t p = 0; p < d; ++p) neg_grad[p] = -grad[p * kL + lane];
  dir->clear();
  double ridge = 0.0;
  for (int attempt = 0; attempt < 40; ++attempt) {
    Matrix h(d, d);
    for (size_t p = 0; p < d; ++p) {
      for (size_t q = p; q < d; ++q) {
        const double v = hess[(p * d + q) * kL + lane];
        h(p, q) = v;
        h(q, p) = v;
      }
      if (ridge > 0.0) h(p, p) += ridge;
    }
    Result<Matrix> chol = CholeskyFactor(h);
    if (chol.ok()) {
      std::vector<double> cand = CholeskySolve(chol.value(), neg_grad);
      bool finite = true;
      double slope = 0.0;
      for (size_t p = 0; p < d; ++p) {
        finite = finite && std::isfinite(cand[p]);
        slope += cand[p] * grad[p * kL + lane];
      }
      if (finite && slope < 0.0) {
        *dir = std::move(cand);
        return;
      }
    }
    ridge = (ridge == 0.0) ? ridge0 : ridge * 10.0;
    if (ridge > 1e12) break;
  }
  *dir = std::move(neg_grad);  // last resort: steepest descent
}

enum class LaneState : uint8_t { kEmpty, kActive, kConverged, kFailed };

// Lane-local iteration budget. The packed path exists for the fleet of
// well-behaved solves (warm chains converge in ~5 iterations, cold ones
// in ~8); a lane still running after 16 is a straggler, and every extra
// pack iteration costs a full-width grid pass. Capped lanes continue on
// the scalar loop *seeded from their advanced theta*, so the work is
// not redone. The cap is a constant — never derived from other lanes —
// so a lane's outcome stays independent of its packing.
constexpr int kLaneIterCap = 16;

// Consecutive Armijo rejections tolerated once the acceptance threshold
// has rounded into the value itself (value + c*step*slope == value): in
// that regime the test is comparing +-1 ulp noise, and a lane that keeps
// losing the coin flip is at its floating point floor. Healthy damping
// chains (overflow-territory seeds) have measurable thresholds and are
// unaffected.
constexpr int kNoiseRejectCap = 3;

// A lane stagnating at its floating point floor (no representable step
// descends) with the gradient within this factor of grad_tol is
// accepted as converged: the objective's attainable gradient floor
// varies by a few ulps with the arithmetic path, and re-solving through
// the scalar loop would match the moments no better than ~1e-8 against
// a 1e-9 tolerance — far below the estimator's own error scale (the
// CDF table alone interpolates at ~1e-5). Lanes stagnating further from
// tolerance still fall back to the scalar loop, so real divergence
// never short-circuits.
constexpr double kFloorAcceptFactor = 16.0;

struct LaneNewtonOutcome {
  std::array<LaneState, kL> state;
  std::array<int, kL> iterations{};
  std::array<int, kL> function_evals{};
  std::array<int, kL> hessian_evals{};
  /// Failed by the lane iteration cap with a healthy trajectory — the
  /// lane theta is mid-basin and worth seeding the scalar continuation
  /// with. Stagnation/divergence failures leave this false: their theta
  /// is at a floating point floor, where a seeded scalar run would only
  /// stop at its fixed point and restart from the cold seed anyway.
  std::array<bool, kL> capped{};
};

// Damped Newton across all lanes simultaneously, mirroring
// NewtonMinimize semantics per lane: convergence on ||g||_inf <=
// grad_tol, escalating-ridge directions, Armijo backtracking with the
// per-lane adaptive opening step for warm seeds. Lanes converge, fail,
// and backtrack independently; finished lanes are masked out of state
// updates (their slots keep computing, results ignored).
void LaneNewton(const LanePack& pack, const NewtonOptions& opts,
                const std::array<bool, kL>& warm,
                const std::array<bool, kL>& occupied,
                double* MSKETCH_GCC_RESTRICT theta,
                LaneNewtonOutcome* out) {
  const size_t d = pack.d;
  for (size_t l = 0; l < kL; ++l) {
    out->state[l] = occupied[l] ? LaneState::kActive : LaneState::kEmpty;
  }
  auto any_active = [&] {
    for (size_t l = 0; l < kL; ++l) {
      if (out->state[l] == LaneState::kActive) return true;
    }
    return false;
  };

  std::vector<double> fbuf(pack.npts * kL), grad(d * kL),
      hess(d * d * kL), trial(d * kL);
  double value[kL], tvalue[kL];

  EvalValues(pack, theta, fbuf.data(), value);
  EvalDerivatives(pack, fbuf.data(), grad.data(), hess.data());
  for (size_t l = 0; l < kL; ++l) {
    if (out->state[l] != LaneState::kActive) continue;
    ++out->hessian_evals[l];
    if (!std::isfinite(value[l])) out->state[l] = LaneState::kFailed;
  }

  double prev_step[kL];
  for (size_t l = 0; l < kL; ++l) prev_step[l] = 1.0;
  std::vector<double> dir_l;
  std::vector<double> dirs(d * kL);
  double slope[kL], step[kL];
  bool searching[kL], accepted[kL];

  const int max_iter = std::min(opts.max_iter, kLaneIterCap);
  for (int iter = 0; iter < max_iter && any_active(); ++iter) {
    // Per-lane convergence on the max-norm gradient.
    for (size_t l = 0; l < kL; ++l) {
      if (out->state[l] != LaneState::kActive) continue;
      double gn = 0.0;
      for (size_t p = 0; p < d; ++p) {
        gn = std::max(gn, std::fabs(grad[p * kL + l]));
      }
      if (gn <= opts.grad_tol) {
        out->state[l] = LaneState::kConverged;
        out->iterations[l] = iter;
      }
    }
    if (!any_active()) break;

    // Directions + line-search setup.
    int noise_rejects[kL] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (size_t l = 0; l < kL; ++l) {
      searching[l] = out->state[l] == LaneState::kActive;
      accepted[l] = false;
      if (!searching[l]) continue;
      LaneDirection(d, hess.data(), grad.data(), l, opts.ridge0, &dir_l);
      slope[l] = 0.0;
      for (size_t p = 0; p < d; ++p) {
        dirs[p * kL + l] = dir_l[p];
        slope[l] += grad[p * kL + l] * dir_l[p];
      }
      // Adaptive opening (warm lanes), with a floor the scalar path does
      // not need: near convergence the Armijo test runs at the rounding
      // noise of the objective, and a collapsed prev_step can trap a
      // lane in bit-identical null steps (open at 4*prev, reject the
      // larger trials on +-1 ulp noise, "accept" a step too small to
      // move theta — forever). Re-opening no lower than 2^-10 keeps the
      // PR-2 damping benefit for overflow-territory seeds while letting
      // lanes escape the plateau with a real step.
      step[l] = (opts.adaptive_initial_step && warm[l])
                    ? std::min(1.0, std::max(4.0 * prev_step[l],
                                             1.0 / 1024.0))
                    : 1.0;
    }
    // Trial points: searching lanes move, finished lanes sit at their
    // current theta (recomputed deterministically, results ignored).
    for (size_t p = 0; p < d; ++p) {
      for (size_t l = 0; l < kL; ++l) {
        trial[p * kL + l] =
            theta[p * kL + l] +
            (searching[l] ? step[l] * dirs[p * kL + l] : 0.0);
      }
    }
    // Armijo backtracking, batched: one value pass covers every lane
    // still searching; lanes shrink their own step on rejection.
    int passes = 0;
    for (int bt = 0; bt < opts.max_backtracks; ++bt) {
      // Movement check before paying for an evaluation: a trial
      // bit-identical to theta cannot descend at this step or any
      // smaller one — the lane is at its floating point floor with the
      // gradient still above grad_tol. Resolve it (floor-accept or
      // scalar fallback) instead of backtracking to exhaustion.
      for (size_t l = 0; l < kL; ++l) {
        if (!searching[l]) continue;
        bool moved = false;
        for (size_t p = 0; p < d; ++p) {
          moved = moved || trial[p * kL + l] != theta[p * kL + l];
        }
        if (!moved) {
          searching[l] = false;
          double gn = 0.0;
          for (size_t p = 0; p < d; ++p) {
            gn = std::max(gn, std::fabs(grad[p * kL + l]));
          }
          if (gn <= kFloorAcceptFactor * opts.grad_tol) {
            out->state[l] = LaneState::kConverged;
            out->iterations[l] = iter;
          } else {
            out->state[l] = LaneState::kFailed;
          }
        }
      }
      bool any_searching = false;
      for (size_t l = 0; l < kL; ++l) any_searching |= searching[l];
      if (!any_searching) break;
      ++passes;
      EvalValues(pack, trial.data(), fbuf.data(), tvalue);
      for (size_t l = 0; l < kL; ++l) {
        if (!searching[l]) continue;
        ++out->function_evals[l];
        const double threshold =
            value[l] + opts.armijo_c * step[l] * slope[l];
        if (std::isfinite(tvalue[l]) && tvalue[l] <= threshold) {
          searching[l] = false;
          accepted[l] = true;
          value[l] = tvalue[l];
        } else {
          if (threshold == value[l] && ++noise_rejects[l] >= kNoiseRejectCap) {
            // Sub-ulp acceptance threshold and the trials keep landing
            // a hair above: the lane is grinding at the objective's
            // rounding floor. Floor-accept or scalar fallback.
            searching[l] = false;
            double gn = 0.0;
            for (size_t p = 0; p < d; ++p) {
              gn = std::max(gn, std::fabs(grad[p * kL + l]));
            }
            if (gn <= kFloorAcceptFactor * opts.grad_tol) {
              out->state[l] = LaneState::kConverged;
              out->iterations[l] = iter;
            } else {
              out->state[l] = LaneState::kFailed;
            }
            continue;
          }
          step[l] *= opts.backtrack;
          for (size_t p = 0; p < d; ++p) {
            trial[p * kL + l] =
                theta[p * kL + l] + step[l] * dirs[p * kL + l];
          }
        }
      }
    }
    for (size_t l = 0; l < kL; ++l) {
      if (out->state[l] != LaneState::kActive) continue;
      if (!accepted[l]) {
        out->state[l] = LaneState::kFailed;  // line search exhausted
        continue;
      }
      prev_step[l] = step[l];
      for (size_t p = 0; p < d; ++p) {
        theta[p * kL + l] = trial[p * kL + l];
      }
    }
    if (!any_active()) break;
    // Hessian evaluation at the accepted points. When the line search
    // accepted every lane on its first pass, that pass evaluated `trial`
    // — which is now exactly `theta` for accepted lanes and the frozen
    // theta for finished ones — so fbuf and tvalue already describe the
    // current point and the value pass can be skipped (the recomputation
    // is deterministic, so this changes nothing but time).
    if (passes == 1) {
      for (size_t l = 0; l < kL; ++l) value[l] = tvalue[l];
    } else {
      EvalValues(pack, theta, fbuf.data(), value);
    }
    EvalDerivatives(pack, fbuf.data(), grad.data(), hess.data());
    for (size_t l = 0; l < kL; ++l) {
      if (out->state[l] == LaneState::kActive) ++out->hessian_evals[l];
    }
  }
  // Lanes that ran out of iterations: final convergence check, exactly
  // like the scalar loop's post-iteration test.
  for (size_t l = 0; l < kL; ++l) {
    if (out->state[l] != LaneState::kActive) continue;
    double gn = 0.0;
    for (size_t p = 0; p < pack.d; ++p) {
      gn = std::max(gn, std::fabs(grad[p * kL + l]));
    }
    if (gn <= opts.grad_tol) {
      out->state[l] = LaneState::kConverged;
      out->iterations[l] = max_iter;
    } else {
      out->state[l] = LaneState::kFailed;
      out->capped[l] = true;
    }
  }
}

}  // namespace

LaneMaxEntSolver::LaneMaxEntSolver(const MaxEntOptions& options,
                                   bool use_warm_start, Sink sink)
    : opt_(options), warm_(use_warm_start), sink_(std::move(sink)) {
  MSKETCH_CHECK(sink_ != nullptr);
}

void LaneMaxEntSolver::Enqueue(size_t tag, const MomentsSketch& sketch) {
  ++stats_.enqueued;
  Lane lane;
  lane.tag = tag;
  Status st = lane.problem.Prepare(sketch, opt_, &cond_memo_);
  if (!st.ok()) {
    ++stats_.prep_failures;
    sink_(tag, st);
    return;
  }
  if (lane.problem.degenerate()) {
    sink_(tag, lane.problem.MakeDegenerate());
    return;
  }
  const Signature sig{lane.problem.log_primary(),
                      lane.problem.SelectedPrimaryMask(),
                      lane.problem.SelectedSecondaryMask()};
  Bucket& bucket = buckets_[sig];
  bucket.lanes.push_back(std::move(lane));
  if (bucket.lanes.size() == kSolverLanes) SolveBucket(&bucket);
}

void LaneMaxEntSolver::FlushAll() {
  for (auto& [sig, bucket] : buckets_) {
    if (!bucket.lanes.empty()) SolveBucket(&bucket);
  }
}

void LaneMaxEntSolver::SolveBucket(Bucket* bucket) {
  const size_t n = bucket->lanes.size();
  MSKETCH_CHECK(n >= 1 && n <= kSolverLanes);
  MaxEntProblem& first = bucket->lanes[0].problem;
  LanePack pack;
  pack.d = first.selected().size();
  pack.npts = first.nodes().size();
  pack.weights = first.weights().data();
  pack.basis.assign(pack.d * pack.npts * kL, 0.0);
  pack.target.assign(pack.d * kL, 0.0);

  std::vector<double> theta(pack.d * kL, 0.0);
  std::array<bool, kL> occupied{}, warm{};
  for (size_t l = 0; l < n; ++l) {
    MaxEntProblem& prob = bucket->lanes[l].problem;
    MSKETCH_CHECK(prob.selected().size() == pack.d);
    occupied[l] = true;
    for (size_t p = 0; p < pack.d; ++p) {
      const double* row = prob.BasisRow(prob.selected()[p]);
      double* out = pack.basis.data() + p * pack.npts * kL;
      for (size_t j = 0; j < pack.npts; ++j) out[j * kL + l] = row[j];
      pack.target[p * kL + l] = prob.TargetFor(p);
    }
    // Seed: the bucket's warm chain when the targets are close enough
    // (same gate as WarmStart hints — identical subset, full overlap),
    // else the scalar cold seed.
    bool lane_warm = false;
    if (warm_ && bucket->has_seed) {
      lane_warm = true;
      for (size_t p = 1; p < pack.d && lane_warm; ++p) {
        lane_warm = std::fabs(pack.target[p * kL + l] -
                              bucket->seed_targets[p]) <= opt_.warm_gate;
      }
    }
    if (lane_warm) {
      ++stats_.warm_lanes;
      for (size_t p = 0; p < pack.d; ++p) {
        theta[p * kL + l] = bucket->seed_theta[p];
      }
    } else {
      theta[0 * kL + l] = -std::log(2.0);
    }
    warm[l] = lane_warm;
  }

  NewtonOptions nopts;
  nopts.max_iter = opt_.max_newton_iter;
  nopts.grad_tol = opt_.grad_tol;
  nopts.adaptive_initial_step = true;  // applied per lane via warm[]

  LaneNewtonOutcome outcome;
  {
    obs::Span lane_span("query.lane_solve");
    LaneNewton(pack, nopts, warm, occupied, theta.data(), &outcome);
  }
  ++stats_.packed_solves;
  stats_.packed_lanes += n;
  // Iteration-count distribution (satellite of the LaneSolverStats
  // scalar sums): one observation per occupied lane, integer ticks so
  // merges stay bit-exact.
  static obs::Histogram* const iter_hist =
      obs::GlobalRegistry().GetHistogram(
          "msk_solver_newton_iterations", {},
          "Per-lane Newton iteration counts in the lane-batched solver",
          obs::HistogramUnit::kCount);
  for (size_t l = 0; l < n; ++l) {
    const int iters = outcome.iterations[l];
    iter_hist->ObserveTicks(iters > 0 ? static_cast<uint64_t>(iters) : 0);
  }

  // Per-lane epilogue: grid check + packaging, scalar continuation for
  // escalations, scalar fallback for divergence. The last converged
  // lane becomes the bucket's next seed.
  std::vector<double> lane_theta(pack.d);
  for (size_t l = 0; l < n; ++l) {
    Lane& lane = bucket->lanes[l];
    MaxEntProblem& prob = lane.problem;
    if (outcome.state[l] == LaneState::kConverged) {
      for (size_t p = 0; p < pack.d; ++p) lane_theta[p] = theta[p * kL + l];
      prob.AddNewtonWork(outcome.iterations[l], outcome.function_evals[l],
                         outcome.hessian_evals[l]);
      // Remember the seed before packaging (Package does not mutate
      // selection, so slot order stays aligned).
      bucket->has_seed = true;
      bucket->seed_theta = lane_theta;
      bucket->seed_targets.resize(pack.d);
      for (size_t p = 0; p < pack.d; ++p) {
        bucket->seed_targets[p] = pack.target[p * kL + l];
      }
      if (prob.GridResolved(lane_theta) ||
          prob.grid_n() >= opt_.max_grid) {
        ++stats_.lane_converged;
        sink_(lane.tag, prob.Package(lane_theta, warm[l]));
      } else {
        // Needs a finer quadrature grid: continue on the scalar
        // escalation path from the converged theta (Newton re-converges
        // immediately at min_grid, then escalates per density).
        ++stats_.lane_escalated;
        sink_(lane.tag, prob.SolveFrom(lane_theta, warm[l]));
      }
    } else {
      // Continue on the scalar loop. Iteration-capped lanes seed it
      // from their own advanced theta (mid-basin; the scalar Newton
      // finishes in a few iterations). Stagnated and diverged lanes
      // restart from the cold seed — a near-plateau seed would park the
      // scalar line search on the same floating point floor, where the
      // run stops at its fixed point with the cap's status, and the cold
      // restart would follow after that wasted run. A seeded start
      // that does not transfer falls back to the cold seed inside
      // SolveFrom, which is exactly the hint-free SolveMaxEnt behavior
      // (including the drop-moments backoff chain), so answers never
      // regress.
      ++stats_.lane_fallbacks;
      std::vector<double> seed(pack.d);
      bool seeded = outcome.capped[l];
      for (size_t p = 0; p < pack.d && seeded; ++p) {
        seed[p] = theta[p * kL + l];
        seeded = std::isfinite(seed[p]);
      }
      if (!seeded) prob.ResetColdSeed(&seed);
      sink_(lane.tag, prob.SolveFrom(std::move(seed), seeded));
    }
  }
  bucket->lanes.clear();
}

}  // namespace msketch
