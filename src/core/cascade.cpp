#include "core/cascade.h"

#include <cmath>

namespace msketch {

ThresholdCascade::Decision ThresholdCascade::RangeStage(
    const CascadeOptions& options, uint64_t count, double min, double max,
    double t) {
  // An empty dataset has no phi-quantile above t, and no bound stage
  // could say more.
  if (count == 0) return Decision::kFalse;
  if (options.use_simple_check) {
    if (t > max) return Decision::kFalse;  // every element <= xmax < t
    if (t < min) return Decision::kTrue;   // every element >= xmin > t
  }
  return Decision::kUnresolved;
}

ThresholdCascade::Decision ThresholdCascade::CheckBounds(
    const MomentsSketch& sketch, double phi, double t,
    RankBounds* bounds_out) {
  ++stats_.total;
  *bounds_out = RankBounds{0.0, static_cast<double>(sketch.count())};
  const Decision range =
      RangeStage(opt_, sketch.count(), sketch.min(), sketch.max(), t);
  if (range != Decision::kUnresolved) {
    ++stats_.resolved_simple;
    return range;
  }
  const double rt = phi * static_cast<double>(sketch.count());

  // rank(t) upper bound < n phi  =>  q_phi >= t       => predicate true
  // rank(t) lower bound > n phi  =>  q_phi < t        => predicate false
  if (!opt_.use_markov && !opt_.use_rtt) return Decision::kUnresolved;
  const RankBoundOracle oracle(sketch);
  if (opt_.use_markov) {
    *bounds_out = oracle.MarkovBound(t);
    if (bounds_out->upper < rt) {
      ++stats_.resolved_markov;
      return Decision::kTrue;
    }
    if (bounds_out->lower > rt) {
      ++stats_.resolved_markov;
      return Decision::kFalse;
    }
  }
  if (opt_.use_rtt) {
    RankBounds rtt = oracle.RttBound(t);
    rtt.Intersect(*bounds_out);
    *bounds_out = rtt;
    if (bounds_out->upper < rt) {
      ++stats_.resolved_rtt;
      return Decision::kTrue;
    }
    if (bounds_out->lower > rt) {
      ++stats_.resolved_rtt;
      return Decision::kFalse;
    }
  }
  return Decision::kUnresolved;
}

const ThresholdCascade::SolveMemo& ThresholdCascade::SolveMemoized(
    const MomentsSketch& sketch) {
  if (memo_.valid && memo_.sketch.IdenticalTo(sketch)) {
    ++stats_.maxent_memo_hits;
    return memo_;
  }
  memo_.valid = true;
  memo_.sketch = sketch;
  memo_.atomic_ok = false;
  Result<MaxEntDistribution> dist = SolveMaxEnt(sketch, opt_.maxent);
  memo_.solve_ok = dist.ok();
  if (dist.ok()) {
    memo_.dist = std::move(dist.value());
  } else {
    // Non-convergent maxent usually means near-discrete data (Section
    // 6.2.3): try recovering the atoms directly.
    Result<DiscreteDistribution> atomic = FitAtomicDistribution(sketch);
    memo_.atomic_ok = atomic.ok();
    if (atomic.ok()) memo_.atomic = std::move(atomic.value());
  }
  return memo_;
}

bool ThresholdCascade::DecideFrom(const MaxEntDistribution* dist,
                                  const DiscreteDistribution* atomic,
                                  const MomentsSketch& sketch, double phi,
                                  double t, const RankBounds& bounds,
                                  MaxEntResolution* resolution_out) {
  if (dist != nullptr) {
    if (resolution_out != nullptr) {
      *resolution_out = MaxEntResolution::kDistribution;
    }
    return dist->Quantile(phi) > t;
  }
  if (atomic != nullptr) {
    if (resolution_out != nullptr) {
      *resolution_out = MaxEntResolution::kAtomic;
    }
    return atomic->Quantile(phi) > t;
  }
  // Decide by the midpoint of the tightest valid rank bounds.
  if (resolution_out != nullptr) *resolution_out = MaxEntResolution::kBounds;
  const double rt = phi * static_cast<double>(sketch.count());
  return 0.5 * (bounds.lower + bounds.upper) < rt;
}

bool ThresholdCascade::DecideWithDistribution(
    const MaxEntDistribution* dist, const MomentsSketch& sketch, double phi,
    double t, const RankBounds& bounds, MaxEntResolution* resolution_out) {
  ++stats_.resolved_maxent;
  if (dist == nullptr) {
    if (auto atomic = FitAtomicDistribution(sketch); atomic.ok()) {
      return DecideFrom(nullptr, &atomic.value(), sketch, phi, t, bounds,
                        resolution_out);
    }
  }
  return DecideFrom(dist, nullptr, sketch, phi, t, bounds, resolution_out);
}

bool ThresholdCascade::Threshold(const MomentsSketch& sketch, double phi,
                                 double t) {
  RankBounds bounds;
  switch (CheckBounds(sketch, phi, t, &bounds)) {
    case Decision::kTrue:
      return true;
    case Decision::kFalse:
      return false;
    case Decision::kUnresolved:
      break;
  }

  ++stats_.resolved_maxent;
  const SolveMemo& memo = SolveMemoized(sketch);
  return DecideFrom(memo.solve_ok ? &memo.dist : nullptr,
                    memo.atomic_ok ? &memo.atomic : nullptr, sketch, phi, t,
                    bounds, nullptr);
}

}  // namespace msketch
