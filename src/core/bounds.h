// Moment-based rank bounds (Section 5.1): Markov inequalities on shifted /
// reflected / log-transformed data, and the sharper RTT bounds (Racz, Tari,
// Telek 2006) derived from canonical representations of the truncated
// moment problem (Chebyshev-Markov-Stieltjes inequalities).
//
// These are worst-case bounds over *every* distribution matching the
// sketch's moments, so cascade decisions based on them can never disagree
// with the maximum entropy estimate (no false negatives, Section 5.2).
#ifndef MSKETCH_CORE_BOUNDS_H_
#define MSKETCH_CORE_BOUNDS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/chebyshev_moments.h"
#include "core/moments_sketch.h"
#include "numerics/matrix.h"

namespace msketch {

/// Bounds on rank(t) = #{x in D : x < t}, inclusive.
struct RankBounds {
  double lower = 0.0;
  double upper = 0.0;

  /// Intersects with another valid pair of bounds.
  void Intersect(const RankBounds& other) {
    lower = lower > other.lower ? lower : other.lower;
    upper = upper < other.upper ? upper : other.upper;
  }
};

/// Certified value-domain enclosure of a quantile: the true phi-quantile
/// of every dataset matching the sketch's moments lies in [lower, upper].
struct QuantileInterval {
  double lower = 0.0;
  double upper = 0.0;
  double width() const { return upper - lower; }
};

/// Every moment rank bound of one sketch, from per-sketch state built
/// once. Construction reads n, min, max and, per domain (standard, and
/// log when LogMomentsUsable()), the Markov shifted and reflected
/// moments. The first RTT query (RttBound, QuantileInterval,
/// QuantileErrorBound, HankelConditionNumber) adds, per domain, the
/// scale map onto [-1, 1], the scaled moments, their Hankel matrix and
/// the three-term recurrence from its Cholesky factor — so a caller that
/// only needs Markov never pays for the factorization. Each method then
/// does only the work that depends on t or phi.
///
/// The cached state is exactly what a from-scratch evaluation computes
/// first, by the same floating-point operations in the same order, so
/// every result is bit-identical to rebuilding the state per call. One
/// oracle serves one thread; build one per sketch per query.
class RankBoundOracle {
 public:
  explicit RankBoundOracle(const MomentsSketch& sketch);

  /// Markov-inequality bounds on rank(t), using the transforms
  /// T+(D) = x - xmin, T-(D) = xmax - x, and (when usable) their
  /// log-domain counterparts.
  RankBounds MarkovBound(double t) const;

  /// RTT bounds: sharp bounds on rank(t) from the canonical
  /// representation of the moment sequence anchored at t, on standard
  /// and (when usable) log moments, intersected with the Markov bounds.
  /// Crossed bounds (a numerically bad solve) fall back to Markov.
  RankBounds RttBound(double t) const;

  /// Certified enclosure of the true phi-quantile from moment bounds
  /// alone (no solved density needed): bisection over the value domain
  /// where each probe t is certified individually by RttBound — if even
  /// the upper rank bound at t is short of the target rank, the quantile
  /// is >= t, and symmetrically for the lower bound. Individually-sound
  /// probes keep the result a certificate even when the rank bounds are
  /// not numerically monotone in t. Worst case (degenerate bounds)
  /// returns [min, max], which is still sound. `steps` bisection probes
  /// per endpoint. Returns {0, 0} on an empty sketch.
  msketch::QuantileInterval QuantileInterval(double phi, int steps) const;

  /// Condition number of the Hankel moment matrix on the scaled standard
  /// domain — the router's conditioning signal. Large values mean the
  /// moment vector is near the boundary of the moment cone (near-atomic
  /// or near-singular data) and the maxent solve is unreliable. +inf for
  /// empty or point-mass sketches.
  double HankelConditionNumber() const;

  /// Worst-case quantile error (Section 3.1, Eq. 1) of `estimate` as a
  /// phi-quantile of the sketch's dataset, certified by RttBound:
  ///   eps = max(phi - rank_lo/n, rank_hi/n - phi, 0).
  double QuantileErrorBound(double phi, double estimate) const;

 private:
  // Markov state of one moment domain: standard, or log when usable.
  struct MarkovDomain {
    MarkovDomain(std::vector<double> moments, double range_lo,
                 double range_hi);
    RankBounds Bound(double x, double n) const;

    double lo;                      // data range in this domain
    double hi;
    std::vector<double> mu;         // raw moments E[x^j]
    std::vector<double> shifted;    // E[(x - lo)^j]
    std::vector<double> reflected;  // E[(hi - x)^j]
  };

  // RTT state of one domain: the Hankel matrix of the moments scaled onto
  // [-1, 1], and the orthonormal-polynomial recurrence of its largest
  // positive definite leading block (chol is empty when there is none).
  struct RttDomain {
    explicit RttDomain(const MarkovDomain& domain);
    Result<RankBounds> Bound(double x, double n) const;

    ScaleMap map;
    Matrix hankel;
    Matrix chol;
    std::vector<double> diag;  // recurrence a_0..a_r (a_r re-anchored per t)
    std::vector<double> off;   // recurrence b_0..b_{r-1}
  };

  const std::vector<RttDomain>& Rtt() const;
  double BisectEndpoint(double target_rank, int steps, bool lower_end) const;

  double n_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<MarkovDomain> markov_;    // standard, then log when usable
  mutable std::vector<RttDomain> rtt_;  // parallel to markov_; first use
};

/// RankBoundOracle(sketch).QuantileInterval(phi, steps).
QuantileInterval CertifiedQuantileInterval(const MomentsSketch& sketch,
                                           double phi, int steps = 24);

}  // namespace msketch

#endif  // MSKETCH_CORE_BOUNDS_H_
