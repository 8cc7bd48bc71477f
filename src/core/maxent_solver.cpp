#include "core/maxent_solver.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "core/maxent_problem.h"
#include "core/solver_cache.h"

namespace msketch {

// The solve machinery (grid, basis, greedy selection, Newton objective,
// packaging) lives in core/maxent_problem.{h,cpp}, which the batch
// GROUP BY chain also calls with its condition-number memo. This file
// keeps the public scalar entry points and the solved-distribution query
// methods.

double MaxEntDistribution::Cdf(double x) const {
  if (degenerate_) return x >= xmin_ ? 1.0 : 0.0;
  if (x <= xmin_) return 0.0;
  if (x >= xmax_) return 1.0;
  const double primary = log_primary_ ? std::log(x) : x;
  const double u = std::clamp(primary_map_.Forward(primary), -1.0, 1.0);
  // Linear interpolation in the monotone table.
  const double pos = (u + 1.0) * 0.5 * (cdf_values_.size() - 1);
  const size_t i = std::min(static_cast<size_t>(pos),
                            cdf_values_.size() - 2);
  const double frac = pos - static_cast<double>(i);
  const double v =
      cdf_values_[i] + frac * (cdf_values_[i + 1] - cdf_values_[i]);
  return std::clamp(v, 0.0, 1.0);
}

double MaxEntDistribution::Quantile(double phi) const {
  if (degenerate_) return xmin_;
  phi = std::clamp(phi, 0.0, 1.0);
  // Binary search the monotone table, then interpolate.
  const size_t m = cdf_values_.size();
  size_t lo = 0, hi = m - 1;
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (cdf_values_[mid] < phi) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double span = cdf_values_[hi] - cdf_values_[lo];
  const double frac = (span > 0.0) ? (phi - cdf_values_[lo]) / span : 0.0;
  const double u = -1.0 + 2.0 *
                              (static_cast<double>(lo) +
                               std::clamp(frac, 0.0, 1.0)) /
                              static_cast<double>(m - 1);
  const double primary = primary_map_.Inverse(u);
  const double x = log_primary_ ? std::exp(primary) : primary;
  return std::clamp(x, xmin_, xmax_);
}

std::vector<double> MaxEntDistribution::Quantiles(
    const std::vector<double>& phis) const {
  std::vector<double> out;
  out.reserve(phis.size());
  for (double phi : phis) out.push_back(Quantile(phi));
  return out;
}

Result<MaxEntDistribution> SolveMaxEnt(const MomentsSketch& sketch,
                                       const MaxEntOptions& options,
                                       const WarmStart* hint) {
  return MaxEntProblem::Solve(sketch, options, hint, /*cond_memo=*/nullptr);
}

Result<std::vector<double>> EstimateQuantiles(const MomentsSketch& sketch,
                                              const std::vector<double>& phis,
                                              const MaxEntOptions& options,
                                              const WarmStart* hint) {
  MSKETCH_ASSIGN_OR_RETURN(std::shared_ptr<const MaxEntDistribution> dist,
                           SolveCached(sketch, options, hint));
  return dist->Quantiles(phis);
}

}  // namespace msketch
