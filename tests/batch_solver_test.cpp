// Tests for the lane-batched maxent solver (core/batch_solver.h): parity
// against per-group SolveMaxEnt across dataset shapes, repeat-run and
// packing-independence determinism, lane refill / partial packing with
// mixed moment subsets, scalar fallback and grid-escalation paths, and
// the lock-striped solver cache.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/batch_solver.h"
#include "core/maxent_solver.h"
#include "core/moments_sketch.h"
#include "core/solver_cache.h"
#include "cube/data_cube.h"
#include "datasets/datasets.h"

namespace msketch {
namespace {

MomentsSketch SketchOf(const std::vector<double>& data, int k = 10) {
  MomentsSketch s(k);
  s.AccumulateBatch(data.data(), data.size());
  return s;
}

// Cells of a dataset: contiguous slices, so each cell is a plausible
// cube cell of the full distribution.
std::vector<MomentsSketch> CellsOf(const std::vector<double>& data,
                                   size_t cells) {
  std::vector<MomentsSketch> out;
  const size_t per = data.size() / cells;
  for (size_t c = 0; c < cells; ++c) {
    out.push_back(SketchOf(std::vector<double>(
        data.begin() + c * per, data.begin() + (c + 1) * per)));
  }
  return out;
}

struct LaneRun {
  std::vector<Result<MaxEntDistribution>> results;
  LaneSolverStats stats;
};

// Enqueues every sketch and flushes; results indexed by tag.
LaneRun RunLanes(const std::vector<MomentsSketch>& sketches,
                 const MaxEntOptions& options = {}, bool warm = true) {
  LaneRun run;
  run.results.resize(sketches.size(), Status::Internal("not delivered"));
  std::vector<int> delivered(sketches.size(), 0);
  LaneMaxEntSolver solver(options, warm,
                          [&](size_t tag, Result<MaxEntDistribution> res) {
                            ++delivered[tag];
                            run.results[tag] = std::move(res);
                          });
  for (size_t i = 0; i < sketches.size(); ++i) solver.Enqueue(i, sketches[i]);
  solver.FlushAll();
  run.stats = solver.stats();
  for (int d : delivered) EXPECT_EQ(d, 1);  // exactly once per tag
  return run;
}

// ------------------------------------------------------------- parity

// The satellite's dataset matrix: per-group quantiles from the lane
// solver must match per-group SolveMaxEnt within the tolerance implied
// by grad_tol (both paths match the same moments to 1e-9; the CDF-table
// and quadrature differences keep observed deviations ~1e-7).
TEST(LaneSolverTest, ParityAcrossDatasets) {
  struct Workload {
    const char* name;
    std::vector<double> data;
  };
  Rng rng(0x5EED);
  std::vector<Workload> workloads;
  workloads.push_back(
      {"milan", GenerateDataset(DatasetId::kMilan, 48'000)});
  workloads.push_back(
      {"hepmass", GenerateDataset(DatasetId::kHepmass, 48'000)});
  {
    std::vector<double> uniform(48'000);
    for (double& x : uniform) x = 5.0 + 3.0 * rng.NextDouble();
    workloads.push_back({"uniform", std::move(uniform)});
  }
  {
    std::vector<double> lognormal(48'000);
    for (double& x : lognormal) x = rng.NextLognormal(1.0, 0.5);
    workloads.push_back({"lognormal", std::move(lognormal)});
  }

  const std::vector<double> phis = {0.01, 0.1, 0.5, 0.9, 0.99};
  for (const Workload& w : workloads) {
    auto cells = CellsOf(w.data, 24);
    auto lane = RunLanes(cells);
    for (size_t c = 0; c < cells.size(); ++c) {
      auto scalar = SolveMaxEnt(cells[c]);
      ASSERT_EQ(scalar.ok(), lane.results[c].ok())
          << w.name << " cell " << c;
      if (!scalar.ok()) continue;
      const auto& ld = lane.results[c].value();
      // Different fallback chains may fit different subsets; parity is
      // defined on same-subset solves (mirrors the warm-start tests).
      if (ld.diagnostics().k1 != scalar->diagnostics().k1 ||
          ld.diagnostics().k2 != scalar->diagnostics().k2) {
        continue;
      }
      const double span = cells[c].max() - cells[c].min();
      for (double phi : phis) {
        EXPECT_NEAR(ld.Quantile(phi), scalar->Quantile(phi), 1e-4 * span)
            << w.name << " cell " << c << " phi " << phi;
      }
    }
  }
}

// ------------------------------------------------------- determinism

TEST(LaneSolverTest, RepeatRunsAreBitIdentical) {
  Rng rng(0xDE7);
  std::vector<double> data(24'000);
  for (double& x : data) x = rng.NextLognormal(0.8, 0.6);
  auto cells = CellsOf(data, 12);
  auto a = RunLanes(cells);
  auto b = RunLanes(cells);
  for (size_t c = 0; c < cells.size(); ++c) {
    ASSERT_EQ(a.results[c].ok(), b.results[c].ok());
    if (!a.results[c].ok()) continue;
    for (double phi = 0.05; phi < 1.0; phi += 0.05) {
      EXPECT_EQ(a.results[c].value().Quantile(phi),
                b.results[c].value().Quantile(phi));
    }
  }
}

// A lane's result must not depend on which groups it was packed with:
// every lane is an independent chain of per-lane FP operations. Cold
// runs (no warm chaining — the bucket seed legitimately depends on
// neighbors) of a group solved alone and solved among 11 others must be
// bit-identical.
TEST(LaneSolverTest, ColdResultsIndependentOfPacking) {
  Rng rng(0xACC);
  std::vector<double> data(24'000);
  for (double& x : data) x = rng.NextLognormal(1.1, 0.4);
  auto cells = CellsOf(data, 12);

  auto packed = RunLanes(cells, {}, /*warm=*/false);
  for (size_t c = 0; c < cells.size(); ++c) {
    auto solo = RunLanes({cells[c]}, {}, /*warm=*/false);
    ASSERT_EQ(solo.results[0].ok(), packed.results[c].ok()) << c;
    if (!solo.results[0].ok()) continue;
    for (double phi : {0.1, 0.5, 0.99}) {
      EXPECT_EQ(solo.results[0].value().Quantile(phi),
                packed.results[c].value().Quantile(phi))
          << "cell " << c << " phi " << phi;
    }
  }
}

// ------------------------------- packing, refill, mixed moment subsets

// Alternating lognormal (log-primary) and gaussian (std-primary, log
// moments unusable) groups select different subsets, forcing at least
// two buckets that fill and refill independently and flush partial at
// the end.
TEST(LaneSolverTest, MixedSubsetsPackPartially) {
  Rng rng(0x717);
  std::vector<MomentsSketch> sketches;
  for (int i = 0; i < 11; ++i) {
    std::vector<double> logn(2000), gauss(2000);
    for (double& x : logn) x = rng.NextLognormal(0.5 + 0.01 * i, 0.5);
    for (double& x : gauss) x = rng.NextGaussian() + 0.01 * i;
    sketches.push_back(SketchOf(logn));
    sketches.push_back(SketchOf(gauss));
  }
  auto run = RunLanes(sketches);
  EXPECT_EQ(run.stats.enqueued, sketches.size());
  // Two subset families of 11 each: at least one full pack per family
  // plus partial flushes; occupancy strictly between 1/kSolverLanes
  // and 1.
  EXPECT_GE(run.stats.packed_solves, 4u);
  EXPECT_EQ(run.stats.packed_lanes + run.stats.prep_failures,
            sketches.size());
  EXPECT_EQ(run.stats.lane_converged + run.stats.lane_escalated +
                run.stats.lane_fallbacks,
            run.stats.packed_lanes);
  EXPECT_LT(run.stats.LaneOccupancy(), 1.0);
  // Drifting parameters can split each family over a few neighboring
  // subsets; packing must still stay well above one-lane-per-pack.
  EXPECT_GT(run.stats.LaneOccupancy(), 0.25);
  for (size_t i = 0; i < sketches.size(); ++i) {
    ASSERT_TRUE(run.results[i].ok()) << i;
    auto scalar = SolveMaxEnt(sketches[i]);
    ASSERT_TRUE(scalar.ok());
    const double span = sketches[i].max() - sketches[i].min();
    EXPECT_NEAR(run.results[i].value().Quantile(0.5),
                scalar->Quantile(0.5), 1e-4 * span);
  }
}

// -------------------------------------- degenerate / failure delivery

TEST(LaneSolverTest, DegenerateAndAtomicGroupsDeliverImmediately) {
  MomentsSketch point(10);
  for (int i = 0; i < 50; ++i) point.Accumulate(7.5);
  MomentsSketch atoms(10);
  for (int i = 0; i < 300; ++i) atoms.Accumulate(double(1 + i % 3));
  MomentsSketch empty(10);

  auto run = RunLanes({point, atoms, empty});
  // Point mass: a degenerate distribution, no solve.
  ASSERT_TRUE(run.results[0].ok());
  EXPECT_EQ(run.results[0].value().Quantile(0.5), 7.5);
  // Near-discrete moments: refused exactly like SolveMaxEnt, with the
  // atomic screen's typed reason on both.
  EXPECT_FALSE(run.results[1].ok());
  EXPECT_EQ(run.results[1].status().reason(), StatusReason::kAtomicMeasure);
  EXPECT_EQ(SolveMaxEnt(atoms).status().reason(),
            StatusReason::kAtomicMeasure);
  // Empty sketch: InvalidArgument, no reason.
  EXPECT_FALSE(run.results[2].ok());
  EXPECT_EQ(run.results[2].status().reason(), StatusReason::kNone);
  EXPECT_EQ(run.stats.prep_failures, 2u);
  // Nothing reaches the packed path: degenerate + refused groups are
  // resolved at Enqueue.
  EXPECT_EQ(run.stats.packed_lanes, 0u);
  EXPECT_EQ(run.stats.packed_solves, 0u);
}

// ------------------------------------------- grid escalation + fallback

// A coarse starting grid forces GridResolved to fail after the packed
// solve, exercising the per-lane scalar escalation continuation; the
// answers must still match a scalar solve with the same options.
TEST(LaneSolverTest, GridEscalationFallsBackPerLane) {
  Rng rng(0xE5C);
  std::vector<double> data(24'000);
  for (double& x : data) x = rng.NextLognormal(1.0, 0.8);
  auto cells = CellsOf(data, 12);
  MaxEntOptions coarse;
  coarse.min_grid = 32;
  coarse.max_grid = 512;
  auto run = RunLanes(cells, coarse);
  EXPECT_GT(run.stats.lane_escalated + run.stats.lane_fallbacks, 0u);
  // Every packed lane ends in exactly one outcome: packaged in the
  // packed path, escalated to a finer grid, or fallen back.
  EXPECT_EQ(run.stats.lane_converged + run.stats.lane_escalated +
                run.stats.lane_fallbacks,
            run.stats.packed_lanes);
  for (size_t c = 0; c < cells.size(); ++c) {
    auto scalar = SolveMaxEnt(cells[c], coarse);
    ASSERT_EQ(scalar.ok(), run.results[c].ok()) << c;
    if (!scalar.ok()) continue;
    if (run.results[c].value().diagnostics().k1 !=
            scalar->diagnostics().k1 ||
        run.results[c].value().diagnostics().k2 !=
            scalar->diagnostics().k2) {
      continue;
    }
    const double span = cells[c].max() - cells[c].min();
    EXPECT_NEAR(run.results[c].value().Quantile(0.9),
                scalar->Quantile(0.9), 2e-3 * span)
        << c;
  }
}

// ----------------------------------------------- striped solver cache

TEST(StripedCacheTest, SegmentsPartitionCapacityAndCountStats) {
  SolverCache cache(SolverCacheOptions{64, 1e-9, 8});
  EXPECT_EQ(cache.num_segments(), 8u);
  Rng rng(0xCAC);
  MaxEntOptions options;
  std::vector<MomentsSketch> sketches;
  for (int i = 0; i < 24; ++i) {
    std::vector<double> data(1000);
    for (double& x : data) x = rng.NextLognormal(0.5 + 0.05 * i, 0.5);
    sketches.push_back(SketchOf(data));
    auto d = SolveMaxEnt(sketches.back(), options);
    ASSERT_TRUE(d.ok());
    cache.Insert(sketches.back(), options, d.value());
  }
  EXPECT_EQ(cache.size(), 24u);  // capacity 64 across segments: no evicts
  for (const auto& s : sketches) {
    EXPECT_NE(cache.Lookup(s, options), nullptr);
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 24u);
  EXPECT_EQ(stats.hits, 24u);
  EXPECT_EQ(stats.evictions, 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(StripedCacheTest, TinyCapacityClampsSegmentsAndEvicts) {
  // capacity < segments: segment count clamps so eviction still works.
  SolverCache cache(SolverCacheOptions{2, 1e-9, 8});
  EXPECT_LE(cache.num_segments(), 2u);
  Rng rng(0xE71);
  MaxEntOptions options;
  for (int i = 0; i < 6; ++i) {
    std::vector<double> data(800);
    for (double& x : data) x = rng.NextLognormal(0.2 * i, 0.4);
    MomentsSketch s = SketchOf(data);
    auto d = SolveMaxEnt(s, options);
    ASSERT_TRUE(d.ok());
    cache.Insert(s, options, d.value());
  }
  EXPECT_LE(cache.size(), 2u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

// The batch pipeline exposes the lane counters through BatchStats.
TEST(BatchStatsTest, LaneCountersSurfaceThroughGroupBy) {
  DataCube<MomentsSummary> cube(1, MomentsSummary(10));
  Rng rng(0xBEA7);
  for (uint32_t g = 0; g < 20; ++g) {
    for (int i = 0; i < 400; ++i) {
      cube.Ingest({g}, rng.NextLognormal(1.0 + 0.01 * g, 0.5));
    }
  }
  BatchOptions options;
  BatchStats stats;
  auto results = cube.GroupByQuantiles({0}, {0.5}, options, &stats);
  ASSERT_EQ(results.size(), 20u);
  EXPECT_GT(stats.lane.packed_solves, 0u);
  EXPECT_EQ(stats.lane.packed_lanes + stats.lane.prep_failures +
                stats.cache_hits,
            20u);
  EXPECT_GT(stats.LaneOccupancy(), 0.0);

  // Every group's answer agrees with a cold per-group SolveMaxEnt to
  // Newton tolerance (warm lanes may fit another subset; skip those).
  for (const GroupQuantiles& r : results) {
    ASSERT_TRUE(r.status.ok());
    MomentsSketch group(10);
    cube.store().ForEachGroup({0}, [&](const CubeCoords& key,
                                       const MomentsSketch& sketch) {
      if (key == r.key) group = sketch;
    });
    MaxEntOptions cold;
    cold.use_solver_cache = false;
    auto dist = SolveMaxEnt(group, cold);
    ASSERT_TRUE(dist.ok());
    if (r.k1 != dist->diagnostics().k1 || r.k2 != dist->diagnostics().k2) {
      continue;
    }
    EXPECT_NEAR(r.quantiles[0], dist->Quantile(0.5),
                1e-4 * (group.max() - group.min()))
        << "group " << r.key[0];
  }
}

}  // namespace
}  // namespace msketch
