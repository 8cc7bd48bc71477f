// Shared synthetic workload for the batched-estimation benches: a cube
// of latency-like cohorts whose lognormal parameters drift smoothly
// across neighboring groups (the premise behind warm-start chains) with
// mild per-group jitter. fig5's warm-vs-cold section and fig6's
// group-count sweep must measure the same workload, so the model lives
// here once.
#ifndef MSKETCH_BENCH_COHORTS_H_
#define MSKETCH_BENCH_COHORTS_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/moments_summary.h"
#include "cube/data_cube.h"

namespace msketch {
namespace bench {

/// One-dimensional cube with `groups` drifting lognormal cohorts of
/// `rows_per_group` rows each (group id = the single coordinate).
inline DataCube<MomentsSummary> BuildDriftingCohortCube(
    size_t groups, int rows_per_group, uint64_t seed = 0xF165) {
  DataCube<MomentsSummary> cube(1, MomentsSummary(10));
  Rng rng(seed);
  std::vector<double> buf(rows_per_group);
  for (size_t g = 0; g < groups; ++g) {
    const double gd = static_cast<double>(g);
    const double mu =
        1.0 + 0.3 * std::sin(0.001 * gd) + 0.01 * rng.NextDouble();
    const double sigma =
        0.4 + 0.1 * std::sin(0.0003 * gd) + 0.01 * rng.NextDouble();
    for (double& x : buf) x = rng.NextLognormal(mu, sigma);
    for (double x : buf) cube.Ingest({static_cast<uint32_t>(g)}, x);
  }
  return cube;
}

/// Uniform-cells workload: `groups` cells of uniform data whose support
/// drifts over a small family of (offset, width) pairs. Most groups
/// select the same moment subset, so warm seeds transfer along the
/// whole chain; it also models the common telemetry shape of many
/// near-identical cells.
inline DataCube<MomentsSummary> BuildUniformCellsCube(
    size_t groups, int rows_per_group, uint64_t seed = 0xFACE) {
  DataCube<MomentsSummary> cube(1, MomentsSummary(10));
  Rng rng(seed);
  std::vector<double> buf(rows_per_group);
  for (size_t g = 0; g < groups; ++g) {
    const double lo = 10.0 + 0.01 * static_cast<double>(g % 97);
    const double width = 5.0 + 0.003 * static_cast<double>(g % 53);
    for (double& x : buf) x = lo + width * rng.NextDouble();
    for (double x : buf) cube.Ingest({static_cast<uint32_t>(g)}, x);
  }
  return cube;
}

}  // namespace bench
}  // namespace msketch

#endif  // MSKETCH_BENCH_COHORTS_H_
