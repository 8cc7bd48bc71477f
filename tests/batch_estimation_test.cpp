// Tests for the batched estimation pipeline: warm-started maxent solves,
// the (lock-striped) solver cache, and the cube's GroupByQuantiles /
// GroupByThreshold batch APIs, whose cold answers are per-group
// SolveMaxEnt bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cascade.h"
#include "core/maxent_solver.h"
#include "core/moments_sketch.h"
#include "core/solver_cache.h"
#include "cube/data_cube.h"
#include "datasets/datasets.h"
#include "numerics/stats.h"

namespace msketch {
namespace {

// A sketch over lognormal data whose parameters drift with `shift`, so a
// family of sketches is distributionally similar but not identical.
MomentsSketch DriftingSketch(uint64_t seed, double shift, int rows = 4000) {
  MomentsSketch s(10);
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    s.Accumulate(rng.NextLognormal(1.0 + 0.05 * shift, 0.5 + 0.01 * shift));
  }
  return s;
}

MomentsSketch SketchOf(const std::vector<double>& data, int k = 10) {
  MomentsSketch s(k);
  s.AccumulateBatch(data.data(), data.size());
  return s;
}

TEST(WarmStartTest, WarmSolveMatchesColdSolve) {
  const std::vector<double> phis = {0.01, 0.1, 0.5, 0.9, 0.99};
  uint64_t cold_iters = 0, warm_iters = 0;
  int warm_used = 0;
  for (int trial = 0; trial < 12; ++trial) {
    // Neighboring cells: same distribution family, slightly drifted
    // parameters — close enough for the solver's warm gate.
    MomentsSketch a = DriftingSketch(1000 + trial, trial);
    MomentsSketch b = DriftingSketch(2000 + trial, trial + 0.1);
    auto seed = SolveMaxEnt(a);
    ASSERT_TRUE(seed.ok()) << seed.status().ToString();
    auto cold = SolveMaxEnt(b);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    auto warm = SolveMaxEnt(b, {}, &seed->warm_start());
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    cold_iters += cold->diagnostics().newton_iterations;
    warm_iters += warm->diagnostics().newton_iterations;
    warm_used += warm->diagnostics().warm_started ? 1 : 0;
    // Both converge the selected moments to grad_tol, so the quantiles
    // must agree to well within the estimator's own error scale.
    for (double phi : phis) {
      const double qc = cold->Quantile(phi);
      const double qw = warm->Quantile(phi);
      EXPECT_NEAR(qw, qc, 2e-3 * (b.max() - b.min()))
          << "trial " << trial << " phi " << phi;
    }
  }
  // The hint should actually be taken for a majority of neighboring
  // pairs (subset overlap varies with the drift), and seeding near the
  // optimum must save Newton work in aggregate.
  EXPECT_GE(warm_used, 6);
  EXPECT_LT(warm_iters, cold_iters);
}

TEST(WarmStartTest, MismatchedDomainFallsBackToColdPath) {
  // Gaussian data (negative values: std-moment primary) seeded with a
  // lognormal hint (log primary): the hint must be rejected, and the
  // solve must equal the cold solve exactly.
  MomentsSketch lognormal = DriftingSketch(7, 0.0);
  auto seed = SolveMaxEnt(lognormal);
  ASSERT_TRUE(seed.ok());
  ASSERT_TRUE(seed->diagnostics().log_primary);

  MomentsSketch gauss(10);
  Rng rng(8);
  for (int i = 0; i < 4000; ++i) gauss.Accumulate(rng.NextGaussian());
  auto cold = SolveMaxEnt(gauss);
  auto warm = SolveMaxEnt(gauss, {}, &seed->warm_start());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(warm->diagnostics().warm_started);
  for (double phi : {0.1, 0.5, 0.9}) {
    EXPECT_DOUBLE_EQ(warm->Quantile(phi), cold->Quantile(phi));
  }
}

TEST(WarmStartTest, DegenerateSketchExportsInvalidWarmStart) {
  MomentsSketch s(10);
  for (int i = 0; i < 10; ++i) s.Accumulate(3.0);
  auto dist = SolveMaxEnt(s);
  ASSERT_TRUE(dist.ok());
  EXPECT_FALSE(dist->warm_start().valid());
  // An invalid hint must be ignored, not crash.
  MomentsSketch b = DriftingSketch(9, 1.0);
  auto warm = SolveMaxEnt(b, {}, &dist->warm_start());
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(warm->diagnostics().warm_started);
}

TEST(SolverCacheTest, HitIsBitIdenticalToCachedSolution) {
  SolverCache cache;
  MomentsSketch s = DriftingSketch(21, 2.0);
  MaxEntOptions options;
  EXPECT_EQ(cache.Lookup(s, options), nullptr);
  auto solved = SolveMaxEnt(s, options);
  ASSERT_TRUE(solved.ok());
  cache.Insert(s, options, solved.value());
  auto hit = cache.Lookup(s, options);
  ASSERT_NE(hit, nullptr);
  for (double phi = 0.01; phi < 1.0; phi += 0.01) {
    EXPECT_EQ(hit->Quantile(phi), solved->Quantile(phi)) << phi;
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(SolverCacheTest, DistinguishesSketchesAndOptions) {
  SolverCache cache;
  MomentsSketch a = DriftingSketch(31, 0.0);
  MomentsSketch b = DriftingSketch(32, 8.0);
  MaxEntOptions options;
  auto da = SolveMaxEnt(a, options);
  ASSERT_TRUE(da.ok());
  cache.Insert(a, options, da.value());
  EXPECT_EQ(cache.Lookup(b, options), nullptr);
  MaxEntOptions tighter;
  tighter.kappa_max = 100.0;
  EXPECT_EQ(cache.Lookup(a, tighter), nullptr);
  EXPECT_NE(cache.Lookup(a, options), nullptr);
}

TEST(SolverCacheTest, EvictsLeastRecentlyUsed) {
  // One segment: exact global LRU order (the striped default evicts per
  // segment; see StripedCacheTest for the striping behavior).
  SolverCache cache(SolverCacheOptions{2, 1e-9, 1});
  MaxEntOptions options;
  std::vector<MomentsSketch> sketches;
  for (int i = 0; i < 3; ++i) {
    sketches.push_back(DriftingSketch(41 + i, 4.0 * i));
    auto d = SolveMaxEnt(sketches.back(), options);
    ASSERT_TRUE(d.ok());
    cache.Insert(sketches.back(), options, d.value());
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(sketches[0], options), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(sketches[2], options), nullptr);
}

TEST(SolverCacheTest, EstimateQuantilesRoutesThroughGlobalCache) {
  MomentsSketch s = DriftingSketch(51, 3.0);
  const std::vector<double> phis = {0.25, 0.5, 0.75};
  const auto before = GlobalSolverCache().stats();
  auto first = EstimateQuantiles(s, phis);
  auto second = EstimateQuantiles(s, phis);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  for (size_t i = 0; i < phis.size(); ++i) {
    EXPECT_EQ(first.value()[i], second.value()[i]);
  }
  const auto after = GlobalSolverCache().stats();
  EXPECT_GE(after.hits, before.hits + 1);
}

// ------------------------------------------------------------ batch APIs

DataCube<MomentsSummary> BuildGroupedCube(size_t num_groups,
                                          int rows_per_group,
                                          uint64_t seed = 0xBA7C4) {
  DataCube<MomentsSummary> cube(2, MomentsSummary(10));
  Rng rng(seed);
  std::vector<double> buf;
  for (size_t grp = 0; grp < num_groups; ++grp) {
    buf.clear();
    for (int i = 0; i < rows_per_group; ++i) {
      buf.push_back(
          rng.NextLognormal(1.0 + 0.002 * grp, 0.4 + 0.0005 * grp));
    }
    // Two cells per group on the second dimension, so grouping actually
    // merges cells.
    const size_t half = buf.size() / 2;
    for (size_t i = 0; i < buf.size(); ++i) {
      cube.Ingest({static_cast<uint32_t>(grp), i < half ? 0u : 1u}, buf[i]);
    }
  }
  return cube;
}

// The sketch GroupByQuantiles solves for group `key` of a one-dim GROUP BY.
MomentsSketch GroupSketch(const DataCube<MomentsSummary>& cube,
                          const CubeCoords& key) {
  MomentsSketch group(10);
  cube.store().ForEachGroup({0}, [&](const CubeCoords& k,
                                     const MomentsSketch& sketch) {
    if (k == key) group = sketch;
  });
  return group;
}

// Cold chain, no cache: every group's answer is per-group SolveMaxEnt's,
// bit for bit, with the same moment subset (or the atomic fallback
// exactly where SolveMaxEnt refuses).
void ExpectColdBatchMatchesSolveMaxEnt(const DataCube<MomentsSummary>& cube,
                                       const std::vector<double>& phis,
                                       const std::string& what) {
  BatchOptions options;
  options.use_warm_start = false;
  options.use_cache = false;
  BatchStats stats;
  auto results = cube.GroupByQuantiles({0}, phis, options, &stats);
  EXPECT_EQ(stats.groups, results.size()) << what;
  EXPECT_EQ(stats.solve.warm_solves, 0u) << what;
  for (const auto& r : results) {
    const std::string where = what + " group " + std::to_string(r.key[0]);
    auto dist = SolveMaxEnt(GroupSketch(cube, r.key));
    ASSERT_EQ(dist.ok(), r.status.ok() && !r.used_atomic) << where;
    if (!dist.ok()) continue;
    EXPECT_EQ(r.k1, dist->diagnostics().k1) << where;
    EXPECT_EQ(r.k2, dist->diagnostics().k2) << where;
    ASSERT_EQ(r.quantiles.size(), phis.size()) << where;
    for (size_t i = 0; i < phis.size(); ++i) {
      EXPECT_EQ(r.quantiles[i], dist->Quantile(phis[i]))
          << where << " phi " << phis[i];
    }
  }
}

TEST(BatchQueryTest, GroupByQuantilesMatchesPerGroupSolveBitForBit) {
  const auto cube = BuildGroupedCube(24, 500);
  BatchOptions options;
  options.use_warm_start = false;
  options.use_cache = false;
  BatchStats stats;
  auto results = cube.GroupByQuantiles({0}, {0.5}, options, &stats);
  ASSERT_EQ(results.size(), 24u);
  EXPECT_EQ(stats.solve.cold_solves + stats.atomic_fallbacks +
                stats.failed_solves,
            24u);
  ExpectColdBatchMatchesSolveMaxEnt(cube, {0.1, 0.5, 0.95}, "drifting");
}

// The same cold bit-identity over dataset shapes: 24 contiguous cells of
// each dataset, one group per cell.
TEST(BatchQueryTest, ColdParityAcrossDatasets) {
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
  constexpr uint32_t kCells = 24;
  for (const Workload& w : workloads) {
    DataCube<MomentsSummary> cube(1, MomentsSummary(10));
    const size_t per = w.data.size() / kCells;
    for (uint32_t c = 0; c < kCells; ++c) {
      for (size_t i = c * per; i < (c + 1) * per; ++i) {
        cube.Ingest({c}, w.data[i]);
      }
    }
    ExpectColdBatchMatchesSolveMaxEnt(cube, phis, w.name);
  }
}

TEST(BatchQueryTest, WarmBatchWithinToleranceOfColdAndCheaper) {
  const auto cube = BuildGroupedCube(40, 400);
  const std::vector<double> phis = {0.5, 0.99};

  BatchOptions cold;
  cold.use_warm_start = false;
  cold.use_cache = false;
  BatchStats cold_stats;
  auto cold_results = cube.GroupByQuantiles({0}, phis, cold, &cold_stats);

  BatchOptions warm;  // defaults: warm start + cache on
  BatchStats warm_stats;
  auto warm_results = cube.GroupByQuantiles({0}, phis, warm, &warm_stats);

  ASSERT_EQ(cold_results.size(), warm_results.size());
  for (size_t g = 0; g < cold_results.size(); ++g) {
    ASSERT_EQ(cold_results[g].key, warm_results[g].key);
    for (size_t i = 0; i < phis.size(); ++i) {
      const double qc = cold_results[g].quantiles[i];
      const double qw = warm_results[g].quantiles[i];
      EXPECT_NEAR(qw, qc, 2e-3 * std::max(1.0, std::fabs(qc)));
    }
  }
  EXPECT_GT(warm_stats.solve.warm_solves, 0u);
  EXPECT_LT(warm_stats.solve.MeanNewtonIterations(),
            cold_stats.solve.MeanNewtonIterations());
}

TEST(BatchQueryTest, ThreadedBatchMatchesSingleThread) {
  const auto cube = BuildGroupedCube(32, 300);
  const std::vector<double> phis = {0.25, 0.9};
  BatchOptions single;
  single.use_warm_start = false;
  single.use_cache = false;
  single.threads = 1;
  BatchOptions quad = single;
  quad.threads = 4;
  auto r1 = cube.GroupByQuantiles({0}, phis, single);
  auto r4 = cube.GroupByQuantiles({0}, phis, quad);
  ASSERT_EQ(r1.size(), r4.size());
  for (size_t g = 0; g < r1.size(); ++g) {
    EXPECT_EQ(r1[g].key, r4[g].key);
    ASSERT_TRUE(r1[g].status.ok());
    ASSERT_TRUE(r4[g].status.ok());
    for (size_t i = 0; i < phis.size(); ++i) {
      EXPECT_EQ(r1[g].quantiles[i], r4[g].quantiles[i]);
    }
  }
}

TEST(BatchQueryTest, IdenticalGroupsHitTheCache) {
  // Many groups with byte-identical content: one solve, rest cache hits.
  DataCube<MomentsSummary> cube(2, MomentsSummary(10));
  std::vector<double> buf;
  Rng rng(77);
  for (int i = 0; i < 800; ++i) buf.push_back(rng.NextLognormal(0.5, 0.7));
  for (uint32_t grp = 0; grp < 16; ++grp) {
    for (double x : buf) cube.Ingest({grp, 0u}, x);
  }
  BatchOptions options;
  BatchStats stats;
  auto results = cube.GroupByQuantiles({0}, {0.5, 0.9}, options, &stats);
  ASSERT_EQ(results.size(), 16u);
  EXPECT_GE(stats.cache_hits, 12u);
  EXPECT_EQ(stats.cache_hits + stats.solve.cold_solves +
                stats.solve.warm_solves,
            16u);
  for (size_t g = 1; g < results.size(); ++g) {
    for (size_t i = 0; i < results[0].quantiles.size(); ++i) {
      EXPECT_EQ(results[g].quantiles[i], results[0].quantiles[i]);
    }
  }
}

TEST(BatchQueryTest, AtomicRefusalsCountOncePerGroup) {
  // Three near-discrete groups among smooth ones: each refusal is
  // counted once (from the typed status reason) and answered by the
  // atomic fit.
  auto cube = BuildGroupedCube(6, 400);
  for (uint32_t grp = 6; grp < 9; ++grp) {
    for (int i = 0; i < 300; ++i) cube.Ingest({grp, 0u}, double(1 + i % 3));
  }
  BatchOptions options;
  options.use_cache = false;
  BatchStats stats;
  auto results = cube.GroupByQuantiles({0}, {0.5}, options, &stats);
  ASSERT_EQ(results.size(), 9u);
  EXPECT_EQ(stats.solve.atomic_screen_hits, 3u);
  EXPECT_EQ(stats.atomic_fallbacks, 3u);
  for (uint32_t grp = 6; grp < 9; ++grp) {
    EXPECT_TRUE(results[grp].used_atomic) << "group " << grp;
  }
}

// GroupByThreshold against a per-group ThresholdCascade::Threshold over
// each group's sketch, over milan and lognormal cubes, four groupings
// (plus the rollup-backed single-dimension path), thresholds below every
// min, above every max, exactly at one group's min and at its max (the
// range checks are strict, so that group stays open) and at the global
// p90/p99, and one and four threads. The chain runs cold and uncached,
// so its maxent stage decides as the per-group solve does: decisions,
// every CascadeStats field and BatchStats::groups must equal the
// reference's, and the range stage must decide exactly the groups whose
// range excludes t.
TEST(BatchQueryTest, GroupByThresholdMatchesPerGroupCascade) {
  constexpr size_t kRows = 24000;
  constexpr double kPhi = 0.9;
  Rng value_rng(0x7E57);
  std::vector<double> lognormal(kRows);
  for (double& v : lognormal) v = value_rng.NextLognormal(1.0, 0.8);
  const std::vector<std::pair<const char*, std::vector<double>>> datasets = {
      {"milan", GenerateDataset(DatasetId::kMilan, kRows)},
      {"lognormal", lognormal}};
  struct Grouping {
    std::vector<size_t> dims;
    bool rollup;
  };
  const std::vector<Grouping> groupings = {{{0}, false},   {{1, 0}, false},
                                           {{0, 2}, false}, {{0, 1, 2}, false},
                                           {{0}, true}};
  for (const auto& [name, rows] : datasets) {
    DataCube<MomentsSummary> cube(3, MomentsSummary(10));
    Rng rng(0x7E58);
    for (double v : rows) {
      cube.Ingest({static_cast<uint32_t>(rng.NextBelow(8)),
                   static_cast<uint32_t>(rng.NextBelow(4)),
                   static_cast<uint32_t>(rng.NextBelow(5))},
                  v);
    }
    DataCube<MomentsSummary> rolled = cube;
    rolled.BuildRollup();
    ASSERT_TRUE(rolled.store().HasFreshRollup());
    std::vector<double> sorted = rows;
    std::sort(sorted.begin(), sorted.end());
    for (const Grouping& grouping : groupings) {
      const DataCube<MomentsSummary>& c = grouping.rollup ? rolled : cube;
      // The sketch each group's cascade sees: the rollup path's planned
      // query or ForEachGroup's merge.
      std::map<CubeCoords, MomentsSketch> groups;
      if (grouping.rollup) {
        for (uint32_t v = 0; v < 8; ++v) {
          CubeFilter filter(3, kAnyValue);
          filter[0] = v;
          groups.emplace(CubeCoords{v}, c.store().QueryWhere(filter));
        }
      } else {
        c.store().ForEachGroup(grouping.dims, [&](const CubeCoords& key,
                                                  const MomentsSketch& s) {
          groups.emplace(key, s);
        });
      }
      double lowest = groups.begin()->second.min();
      double highest = groups.begin()->second.max();
      for (const auto& [key, s] : groups) {
        lowest = std::min(lowest, s.min());
        highest = std::max(highest, s.max());
      }
      const MomentsSketch& middle =
          std::next(groups.begin(), groups.size() / 2)->second;
      const std::vector<double> thresholds = {
          lowest - 1.0,
          highest + 1.0,
          middle.min(),
          middle.max(),
          QuantileOfSorted(sorted, 0.9),
          QuantileOfSorted(sorted, 0.99)};
      for (double t : thresholds) {
        std::string where = std::string(name) + " dims";
        for (size_t d : grouping.dims) where += " " + std::to_string(d);
        if (grouping.rollup) where += " (rollup)";
        where += " t=" + std::to_string(t);
        SCOPED_TRACE(where);
        ThresholdCascade reference;
        std::vector<bool> expected;
        uint64_t outside = 0;
        for (const auto& [key, s] : groups) {
          expected.push_back(reference.Threshold(s, kPhi, t));
          if (s.count() == 0 || t > s.max() || t < s.min()) ++outside;
        }
        const CascadeStats& want = reference.stats();
        EXPECT_EQ(want.resolved_simple, outside);
        for (int threads : {1, 4}) {
          SCOPED_TRACE("threads=" + std::to_string(threads));
          BatchOptions options;
          options.use_warm_start = false;
          options.use_cache = false;
          options.threads = threads;
          BatchStats stats;
          const std::vector<GroupThreshold> out =
              c.GroupByThreshold(grouping.dims, kPhi, t, options, &stats);
          ASSERT_EQ(out.size(), groups.size());
          size_t i = 0;
          for (const auto& [key, s] : groups) {
            EXPECT_EQ(out[i].key, key);
            EXPECT_EQ(out[i].count, s.count());
            EXPECT_EQ(out[i].exceeds, expected[i]) << "group " << i;
            ++i;
          }
          EXPECT_EQ(stats.groups, groups.size());
          EXPECT_EQ(stats.cascade.total, want.total);
          EXPECT_EQ(stats.cascade.resolved_simple, want.resolved_simple);
          EXPECT_EQ(stats.cascade.resolved_markov, want.resolved_markov);
          EXPECT_EQ(stats.cascade.resolved_rtt, want.resolved_rtt);
          EXPECT_EQ(stats.cascade.resolved_maxent, want.resolved_maxent);
          EXPECT_EQ(stats.cascade.maxent_memo_hits, want.maxent_memo_hits);
        }
      }
    }
  }
}

// Every group ends in exactly one solve outcome: a cold or warm solve,
// a cache hit, the atomic fallback, or a failure.
TEST(BatchStatsTest, SolveOutcomesAccountForEveryGroup) {
  DataCube<MomentsSummary> cube(1, MomentsSummary(10));
  Rng rng(0xBEA7);
  for (uint32_t g = 0; g < 20; ++g) {
    for (int i = 0; i < 400; ++i) {
      cube.Ingest({g}, rng.NextLognormal(1.0 + 0.01 * g, 0.5));
    }
  }
  // Identical groups (cache hits), near-discrete ones (atomic fallback)
  // and a point mass.
  std::vector<double> repeated(300);
  for (double& x : repeated) x = rng.NextLognormal(0.5, 0.7);
  for (uint32_t g = 20; g < 24; ++g) {
    for (double x : repeated) cube.Ingest({g}, x);
  }
  for (uint32_t g = 24; g < 26; ++g) {
    for (int i = 0; i < 300; ++i) cube.Ingest({g}, double(1 + i % 3));
  }
  for (int i = 0; i < 10; ++i) cube.Ingest({26u}, 4.0);
  BatchOptions options;
  BatchStats stats;
  auto results = cube.GroupByQuantiles({0}, {0.5}, options, &stats);
  ASSERT_EQ(results.size(), 27u);
  EXPECT_EQ(stats.groups, 27u);
  EXPECT_GE(stats.cache_hits, 3u);
  EXPECT_EQ(stats.atomic_fallbacks, 2u);
  EXPECT_GT(stats.solve.warm_solves, 0u);
  EXPECT_EQ(stats.solve.cold_solves + stats.solve.warm_solves +
                stats.cache_hits + stats.atomic_fallbacks +
                stats.failed_solves,
            stats.groups);
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

TEST(CascadeMemoTest, MultiThresholdSweepSolvesOnce) {
  // One sketch, many (phi, t) pairs chosen inside the bulk of the
  // distribution so the bound stages cannot resolve them: the memoized
  // cascade must solve once and reuse the distribution.
  MomentsSketch s = DriftingSketch(61, 1.0, 20000);
  auto dist = SolveMaxEnt(s);
  ASSERT_TRUE(dist.ok());
  const std::vector<double> phis = {0.45, 0.5, 0.55, 0.6, 0.65};

  // The reference is a fresh cascade per query: its memo starts empty,
  // so each of its decisions comes from its own solve.
  ThresholdCascade memoized;
  for (double phi : phis) {
    const double t = dist->Quantile(0.5);
    ThresholdCascade fresh;
    EXPECT_EQ(memoized.Threshold(s, phi, t), fresh.Threshold(s, phi, t))
        << phi;
    EXPECT_EQ(fresh.stats().maxent_memo_hits, 0u) << phi;
  }
  const auto& st = memoized.stats();
  EXPECT_GE(st.resolved_maxent, 2u);
  EXPECT_GE(st.maxent_memo_hits, st.resolved_maxent - 1);
}

}  // namespace
}  // namespace msketch
