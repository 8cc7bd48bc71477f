#include "core/bounds.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/macros.h"
#include "core/chebyshev_moments.h"
#include "numerics/eigen.h"
#include "numerics/matrix.h"
#include "numerics/stats.h"

namespace msketch {

namespace {

// E[(x - shift)^j] for j = 0..k from raw moments mu[i] = E[x^i].
std::vector<double> ShiftedMoments(const std::vector<double>& mu,
                                   double shift) {
  const int k = static_cast<int>(mu.size()) - 1;
  std::vector<double> out(k + 1, 0.0);
  out[0] = 1.0;
  for (int j = 1; j <= k; ++j) {
    double acc = 0.0;
    for (int m = 0; m <= j; ++m) {
      acc += BinomialCoefficient(j, m) *
             std::pow(-shift, static_cast<double>(j - m)) * mu[m];
    }
    out[j] = acc;
  }
  return out;
}

// E[(shift - x)^j]: reflect then shift.
std::vector<double> ReflectedMoments(const std::vector<double>& mu,
                                     double shift) {
  const int k = static_cast<int>(mu.size()) - 1;
  std::vector<double> out(k + 1, 0.0);
  out[0] = 1.0;
  for (int j = 1; j <= k; ++j) {
    double acc = 0.0;
    for (int m = 0; m <= j; ++m) {
      // (shift - x)^j = sum C(j,m) shift^(j-m) (-x)^m
      acc += BinomialCoefficient(j, m) *
             std::pow(shift, static_cast<double>(j - m)) *
             ((m % 2 == 0) ? mu[m] : -mu[m]);
    }
    out[j] = acc;
  }
  return out;
}

// Markov: P(Z >= z) <= E[Z^j] / z^j for nonnegative Z, minimized over j.
double BestMarkovTailProb(const std::vector<double>& nonneg_moments,
                          double z) {
  if (z <= 0.0) return 1.0;
  double best = 1.0;
  double zj = 1.0;
  for (size_t j = 1; j < nonneg_moments.size(); ++j) {
    zj *= z;
    const double m = nonneg_moments[j];
    if (m >= 0.0 && zj > 0.0) {
      best = std::min(best, m / zj);
    }
  }
  return std::max(best, 0.0);
}

// ---------------------------------------------------------------------
// RTT bounds machinery: orthonormal polynomials from the Hankel moment
// matrix, kernel polynomial roots, canonical-representation weights.

Matrix HankelOf(const std::vector<double>& moments, int r) {
  Matrix hankel(r + 1, r + 1);
  for (int i = 0; i <= r; ++i) {
    for (int j = 0; j <= r; ++j) hankel(i, j) = moments[i + j];
  }
  return hankel;
}

// Orthonormal polynomial values p_0..p_r at x: solve L p~ = v(x).
std::vector<double> OrthonormalValues(const Matrix& chol, double x) {
  const int r = static_cast<int>(chol.rows()) - 1;
  std::vector<double> v(r + 1);
  double p = 1.0;
  for (int i = 0; i <= r; ++i) {
    v[i] = p;
    p *= x;
  }
  return ForwardSubstitute(chol, v);
}

}  // namespace

RankBoundOracle::MarkovDomain::MarkovDomain(std::vector<double> moments,
                                             double range_lo,
                                             double range_hi)
    : lo(range_lo),
      hi(range_hi),
      mu(std::move(moments)),
      shifted(ShiftedMoments(mu, lo)),
      reflected(ReflectedMoments(mu, hi)) {}

RankBounds RankBoundOracle::MarkovDomain::Bound(double x, double n) const {
  RankBounds b{0.0, n};
  // Upper bound on 1 - F(t): P(x - lo >= t - lo).
  const double p_tail = BestMarkovTailProb(shifted, x - lo);
  b.lower = std::max(b.lower, n * (1.0 - p_tail));
  // Upper bound on F(t): P(hi - x >= hi - t) >= P(x <= t) ... note
  // rank counts strict inferiors; F(t-) <= P(hi - x >= hi - t).
  const double p_head = BestMarkovTailProb(reflected, hi - x);
  b.upper = std::min(b.upper, n * p_head);
  return b;
}

RankBoundOracle::RttDomain::RttDomain(const MarkovDomain& domain)
    : map(MakeScaleMap(domain.lo, domain.hi)) {
  // Bounds run on the domain scaled onto [-1, 1] (conditioning).
  const std::vector<double> scaled = ShiftPowerMoments(domain.mu, map);
  const int max_r = (static_cast<int>(scaled.size()) - 1) / 2;
  if (max_r < 1) return;
  hankel = HankelOf(scaled, max_r);
  // Largest r with a positive definite Hankel matrix of scaled moments.
  for (int r = max_r; r >= 1; --r) {
    Result<Matrix> l =
        CholeskyFactor(r == max_r ? hankel : HankelOf(scaled, r), 1e-14);
    if (!l.ok()) continue;
    chol = std::move(l).value();
    // Three-term recurrence coefficients of the orthonormal polynomials
    // from the Cholesky factor of the Hankel matrix:
    //   b_i = L[i+1][i+1] / L[i][i],
    //   a_i = L[i+1][i] / L[i][i] - L[i][i-1] / L[i-1][i-1].
    diag.assign(r + 1, 0.0);
    off.assign(r, 0.0);
    for (int i = 0; i < r; ++i) {
      off[i] = chol(i + 1, i + 1) / chol(i, i);
      diag[i] = chol(i + 1, i) / chol(i, i) -
                (i > 0 ? chol(i, i - 1) / chol(i - 1, i - 1) : 0.0);
    }
    return;
  }
}

// Sharp rank bounds in one (scaled) domain at x, whose scaled image tq
// lies in [-1, 1].
//
// The canonical representation anchored at tq is computed as a
// Gauss-Radau rule (Golub 1973): the Jacobi matrix of the moment
// sequence, with its last diagonal entry modified so tq is an exact
// eigenvalue. Nodes are the eigenvalues, weights come from the squared
// first eigenvector components — no polynomial root finding, which is
// what makes this numerically dependable when nodes cluster.
Result<RankBounds> RankBoundOracle::RttDomain::Bound(double x,
                                                     double n) const {
  if (off.empty()) {
    return Status::Singular("RTT: Hankel matrix not positive definite");
  }
  const int r = static_cast<int>(off.size());
  double tq = map.Forward(x);
  std::vector<double> pt = OrthonormalValues(chol, tq);
  while (std::fabs(pt[r]) < 1e-280) {
    // tq is (numerically) a Gauss node already; nudge it by a hair.
    tq += 3e-12;
    pt = OrthonormalValues(chol, tq);
  }
  // Anchor the rule at tq: last diagonal a*_r = tq - b_{r-1} *
  // p_{r-1}(tq) / p_r(tq).
  std::vector<double> anchored = diag;
  anchored[r] = tq - off[r - 1] * pt[r - 1] / pt[r];

  std::vector<double> first;
  MSKETCH_ASSIGN_OR_RETURN(std::vector<double> nodes,
                           TridiagonalEigen(std::move(anchored), off, &first));
  double below = 0.0, at = 0.0;
  for (size_t j = 0; j < nodes.size(); ++j) {
    const double w = first[j] * first[j];  // times m0 = 1
    if (nodes[j] < tq - 1e-9) {
      below += w;
    } else if (nodes[j] <= tq + 1e-9) {
      at += w;
    }
  }
  RankBounds b;
  b.lower = std::clamp(n * below, 0.0, n);
  b.upper = std::clamp(n * (below + at), b.lower, n);
  return b;
}

RankBoundOracle::RankBoundOracle(const MomentsSketch& sketch)
    : n_(static_cast<double>(sketch.count())),
      min_(sketch.min()),
      max_(sketch.max()) {
  if (sketch.count() == 0) return;
  markov_.emplace_back(sketch.StandardMoments(), min_, max_);
  if (sketch.LogMomentsUsable()) {
    markov_.emplace_back(sketch.LogMoments(), std::log(min_),
                         std::log(max_));
  }
}

const std::vector<RankBoundOracle::RttDomain>& RankBoundOracle::Rtt() const {
  if (rtt_.empty()) {
    for (const MarkovDomain& d : markov_) rtt_.emplace_back(d);
  }
  return rtt_;
}

RankBounds RankBoundOracle::MarkovBound(double t) const {
  RankBounds b{0.0, n_};
  if (n_ == 0.0) return b;
  if (t <= min_) return RankBounds{0.0, 0.0};
  if (t > max_) return RankBounds{n_, n_};

  b.Intersect(markov_[0].Bound(t, n_));
  if (markov_.size() > 1 && t > 0.0) {
    b.Intersect(markov_[1].Bound(std::log(t), n_));
  }
  return b;
}

RankBounds RankBoundOracle::RttBound(double t) const {
  RankBounds b{0.0, n_};
  if (n_ == 0.0) return b;
  if (t <= min_) return RankBounds{0.0, 0.0};
  if (t > max_) return RankBounds{n_, n_};

  const std::vector<RttDomain>& rtt = Rtt();
  if (auto rb = rtt[0].Bound(t, n_); rb.ok()) b.Intersect(rb.value());
  // Log-moment bounds (paper: run both, take the tighter).
  if (rtt.size() > 1 && t > 0.0) {
    if (auto rb = rtt[1].Bound(std::log(t), n_); rb.ok()) {
      b.Intersect(rb.value());
    }
  }
  // Guarantee validity even if both solves degenerated.
  RankBounds markov = MarkovBound(t);
  b.Intersect(markov);
  // Crossing bounds mean one domain's solve went numerically bad; fall
  // back to the always-sound Markov bounds.
  if (b.lower > b.upper) return markov;
  return b;
}

double RankBoundOracle::QuantileErrorBound(double phi,
                                           double estimate) const {
  if (n_ == 0.0) return 0.0;
  RankBounds b = RttBound(estimate);
  const double lo = b.lower / n_;
  const double hi = b.upper / n_;
  return std::max({phi - lo, hi - phi, 0.0});
}

// One endpoint of the certified interval. Target rank r (1-based): the
// r-th smallest element. rank(t) counts strict inferiors, so rank(t) < r
// certifies Q >= t and rank(t) >= r certifies Q <= t (the r-th smallest
// is preceded by >= r elements). The lower endpoint is the largest probe
// whose certified rank upper bound stays below r; the upper endpoint the
// smallest probe whose certified rank lower bound already reaches r. The
// search only ever moves past a certified probe, so the returned end is
// the last certified probe (or the range end) regardless of bound
// monotonicity.
double RankBoundOracle::BisectEndpoint(double r, int steps,
                                       bool lower_end) const {
  double lo = min_, hi = max_;
  for (int i = 0; i < steps; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (!(mid > lo && mid < hi)) break;  // interval exhausted in fp
    const RankBounds b = RttBound(mid);
    if (lower_end) {
      (b.upper < r ? lo : hi) = mid;
    } else {
      (b.lower >= r ? hi : lo) = mid;
    }
  }
  return lower_end ? lo : hi;
}

msketch::QuantileInterval RankBoundOracle::QuantileInterval(
    double phi, int steps) const {
  if (n_ == 0.0) return {0.0, 0.0};
  const msketch::QuantileInterval whole{min_, max_};
  if (min_ >= max_ || steps <= 0) return whole;

  double r = std::ceil(phi * n_);
  r = std::max(1.0, std::min(r, n_));
  const msketch::QuantileInterval out{BisectEndpoint(r, steps, true),
                                      BisectEndpoint(r, steps, false)};
  // Both endpoints are individually certified, so crossing can only come
  // from floating-point damage inside the bound solves; never hand a
  // crossed certificate to a caller.
  if (out.lower > out.upper) return whole;
  return out;
}

double RankBoundOracle::HankelConditionNumber() const {
  if (n_ == 0.0 || !(min_ < max_)) {
    return std::numeric_limits<double>::infinity();
  }
  const Matrix& hankel = Rtt()[0].hankel;
  if (hankel.rows() == 0) return std::numeric_limits<double>::infinity();
  return SymmetricConditionNumber(hankel);
}

QuantileInterval CertifiedQuantileInterval(const MomentsSketch& sketch,
                                           double phi, int steps) {
  return RankBoundOracle(sketch).QuantileInterval(phi, steps);
}

}  // namespace msketch
