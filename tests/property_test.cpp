// Cross-module property tests: randomized sweeps over datasets, orders,
// and configurations exercising the invariants the system's correctness
// rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/bounds.h"
#include "core/cascade.h"
#include "core/compressed_sketch.h"
#include "core/maxent_solver.h"
#include "core/moments_sketch.h"
#include "datasets/datasets.h"
#include "numerics/stats.h"
#include "parallel/parallel_merge.h"
#include "window/sliding_window.h"

namespace msketch {
namespace {

// ----------------------------------------------------------------------
// Merge associativity/commutativity: any merge tree over a partition of
// the data yields the same sums up to fp round-off.
class MergeOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(MergeOrderTest, AnyMergeTreeSameResult) {
  const int num_parts = GetParam();
  Rng rng(1000 + num_parts);
  std::vector<MomentsSketch> parts;
  for (int p = 0; p < num_parts; ++p) {
    MomentsSketch s(8);
    const int n = 50 + static_cast<int>(rng.NextBelow(200));
    for (int i = 0; i < n; ++i) s.Accumulate(rng.NextLognormal(0.0, 1.0));
    parts.push_back(std::move(s));
  }
  // Left fold.
  MomentsSketch left(8);
  for (const auto& p : parts) ASSERT_TRUE(left.Merge(p).ok());
  // Pairwise (tournament) fold.
  std::vector<MomentsSketch> level = parts;
  while (level.size() > 1) {
    std::vector<MomentsSketch> next;
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      MomentsSketch m = level[i];
      ASSERT_TRUE(m.Merge(level[i + 1]).ok());
      next.push_back(std::move(m));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  EXPECT_EQ(left.count(), level[0].count());
  for (int i = 0; i < 8; ++i) {
    EXPECT_NEAR(left.power_sums()[i], level[0].power_sums()[i],
                1e-9 * std::max(1.0, std::fabs(left.power_sums()[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(PartitionSizes, MergeOrderTest,
                         ::testing::Values(2, 3, 7, 16, 33, 100));

// ----------------------------------------------------------------------
// Maxent invariants across datasets and orders.
struct SolveCase {
  const char* dataset;
  int k;
};

class MaxEntInvariantTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(MaxEntInvariantTest, CdfMonotoneNormalizedAndInRange) {
  auto id = DatasetFromName(GetParam().dataset);
  ASSERT_TRUE(id.ok());
  auto data = GenerateDataset(id.value(), 50000);
  MomentsSketch sketch(GetParam().k);
  for (double x : data) sketch.Accumulate(x);
  auto dist = SolveMaxEnt(sketch);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();

  // CDF: monotone, 0 at min, 1 at max.
  double prev = -1.0;
  for (int i = 0; i <= 50; ++i) {
    const double x =
        sketch.min() + (sketch.max() - sketch.min()) * i / 50.0;
    const double c = dist->Cdf(x);
    EXPECT_GE(c, prev - 1e-12);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  // Quantile-CDF round trip within the support interior.
  for (double phi : {0.2, 0.5, 0.8}) {
    const double q = dist->Quantile(phi);
    EXPECT_NEAR(dist->Cdf(q), phi, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MaxEntInvariantTest,
    ::testing::Values(SolveCase{"milan", 4}, SolveCase{"milan", 10},
                      SolveCase{"hepmass", 6}, SolveCase{"hepmass", 12},
                      SolveCase{"power", 10}, SolveCase{"expon", 8},
                      SolveCase{"gauss", 10}, SolveCase{"occupancy", 10}),
    [](const ::testing::TestParamInfo<SolveCase>& info) {
      return std::string(info.param.dataset) + "_k" +
             std::to_string(info.param.k);
    });

// ----------------------------------------------------------------------
// Rank-bound containment under random thresholds (not just quantiles of
// the data — arbitrary probe points).
class BoundFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundFuzzTest, RandomThresholdsAlwaysContained) {
  Rng rng(GetParam());
  std::vector<double> data;
  const int n = 20000;
  // Random mixture shape each seed.
  const double mu2 = rng.Uniform(0.5, 3.0);
  const double w = rng.NextDouble();
  for (int i = 0; i < n; ++i) {
    data.push_back(rng.NextDouble() < w
                       ? rng.NextLognormal(0.0, 0.8)
                       : rng.NextLognormal(mu2, 0.4));
  }
  MomentsSketch sketch(10);
  for (double x : data) sketch.Accumulate(x);
  std::sort(data.begin(), data.end());
  const RankBoundOracle oracle(sketch);
  for (int probe = 0; probe < 40; ++probe) {
    const double t = rng.Uniform(data.front() * 0.5, data.back() * 1.1);
    const double rank = static_cast<double>(RankOfSorted(data, t));
    RankBounds markov = oracle.MarkovBound(t);
    RankBounds rtt = oracle.RttBound(t);
    EXPECT_LE(markov.lower, rank + n * 1e-6) << "seed=" << GetParam();
    EXPECT_GE(markov.upper, rank - n * 1e-6);
    EXPECT_LE(rtt.lower, rank + n * 1e-4);
    EXPECT_GE(rtt.upper, rank - n * 1e-4);
    // RTT bounds are never looser than Markov's after intersection.
    EXPECT_GE(rtt.lower, markov.lower - n * 1e-9);
    EXPECT_LE(rtt.upper, markov.upper + n * 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ----------------------------------------------------------------------
// Cascade is decision-stable across stage configurations: enabling more
// stages never changes the decision, only its cost. (Bounds are sound, so
// a bounds-resolved decision equals what maxent would have decided
// whenever the threshold is outside the estimate's uncertainty band; we
// assert full agreement at clearly-separated thresholds.)
TEST(CascadePropertyTest, StageConfigurationsAgree) {
  auto data = GenerateDataset(DatasetId::kPower, 40000);
  MomentsSketch sketch(10);
  for (double x : data) sketch.Accumulate(x);
  std::sort(data.begin(), data.end());
  for (double phi : {0.3, 0.7, 0.95}) {
    for (double scale : {0.5, 0.8, 1.25, 2.0}) {
      const double t = QuantileOfSorted(data, phi) * scale;
      std::vector<bool> decisions;
      for (int mask = 0; mask < 4; ++mask) {
        CascadeOptions options;
        options.use_simple_check = true;
        options.use_markov = mask & 1;
        options.use_rtt = mask & 2;
        ThresholdCascade cascade(options);
        decisions.push_back(cascade.Threshold(sketch, phi, t));
      }
      for (size_t i = 1; i < decisions.size(); ++i) {
        EXPECT_EQ(decisions[0], decisions[i])
            << "phi=" << phi << " scale=" << scale;
      }
    }
  }
}

// ----------------------------------------------------------------------
// Turnstile windows across window sizes: always identical to re-merge.
class WindowSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(WindowSizeTest, TurnstileEqualsRemergeAtAllSizes) {
  const size_t w = GetParam();
  Rng rng(500 + w);
  TurnstileWindow turnstile(8, w);
  RemergeWindow<MomentsSketch> remerge(MomentsSketch(8), w);
  for (int step = 0; step < 3 * static_cast<int>(w) + 5; ++step) {
    MomentsSketch pane(8);
    const int n = 20 + static_cast<int>(rng.NextBelow(100));
    for (int i = 0; i < n; ++i) {
      pane.Accumulate(rng.NextLognormal(0.1 * (step % 5), 0.7));
    }
    ASSERT_TRUE(turnstile.PushPane(pane).ok());
    remerge.PushPane(pane);
    MomentsSketch expect = remerge.Current();
    const MomentsSketch& got = turnstile.Current();
    ASSERT_EQ(got.count(), expect.count()) << "w=" << w << " step=" << step;
    ASSERT_DOUBLE_EQ(got.min(), expect.min());
    ASSERT_DOUBLE_EQ(got.max(), expect.max());
    for (int i = 0; i < 8; ++i) {
      ASSERT_NEAR(got.power_sums()[i], expect.power_sums()[i],
                  1e-6 * std::max(1.0, std::fabs(expect.power_sums()[i])));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, WindowSizeTest,
                         ::testing::Values(1, 2, 4, 8, 24));

// ----------------------------------------------------------------------
// Low-precision quantization sweep: decoded sketches stay mergeable and
// the error shrinks monotonically-ish with bits.
class QuantizationSweepTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QuantizationSweepTest, DecodedSketchUsable) {
  const auto [k, bits] = GetParam();
  Rng rng(k * 100 + bits);
  MomentsSketch s(k);
  for (int i = 0; i < 20000; ++i) s.Accumulate(rng.NextLognormal(0.5, 1.0));
  auto blob = EncodeLowPrecision(s, bits, 9);
  auto back = DecodeLowPrecision(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->count(), s.count());
  // Relative error of each sum bounded by the mantissa width.
  const double tol = std::ldexp(1.0, -(bits - 12)) * 1.01;
  for (int i = 0; i < k; ++i) {
    if (s.power_sums()[i] != 0.0) {
      EXPECT_LE(std::fabs(back->power_sums()[i] - s.power_sums()[i]) /
                    std::fabs(s.power_sums()[i]),
                tol)
          << "moment " << i;
    }
  }
  // Decoded sketches still merge.
  MomentsSketch other(k);
  other.Accumulate(1.0);
  EXPECT_TRUE(back->Merge(other).ok());
}

INSTANTIATE_TEST_SUITE_P(
    BitsAndOrders, QuantizationSweepTest,
    ::testing::Values(std::pair{4, 16}, std::pair{4, 32}, std::pair{10, 20},
                      std::pair{10, 40}, std::pair{14, 24},
                      std::pair{14, 64}),
    [](const ::testing::TestParamInfo<std::pair<int, int>>& info) {
      return "k" + std::to_string(info.param.first) + "_bits" +
             std::to_string(info.param.second);
    });

// ----------------------------------------------------------------------
// Parallel merge equivalence across thread counts and part counts.
class ParallelSweepTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ParallelSweepTest, ThreadsDoNotChangeResult) {
  const auto [parts_n, threads] = GetParam();
  Rng rng(parts_n * 31 + threads);
  std::vector<MomentsSketch> parts;
  for (int p = 0; p < parts_n; ++p) {
    MomentsSketch s(6);
    for (int i = 0; i < 50; ++i) s.Accumulate(rng.Uniform(0.0, 100.0));
    parts.push_back(std::move(s));
  }
  MomentsSketch seq = ParallelMerge(parts, 1);
  MomentsSketch par = ParallelMerge(parts, threads);
  EXPECT_EQ(seq.count(), par.count());
  for (int i = 0; i < 6; ++i) {
    EXPECT_NEAR(seq.power_sums()[i], par.power_sums()[i],
                1e-9 * std::fabs(seq.power_sums()[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParallelSweepTest,
    ::testing::Values(std::pair{10, 2}, std::pair{100, 3},
                      std::pair{1000, 4}, std::pair{101, 8},
                      std::pair{17, 16}));

// ----------------------------------------------------------------------
// NaN/odd input handling: the sketch CHECKs on non-finite input in debug;
// in release it is the caller's contract. Verify finite extremes work.
TEST(EdgeCaseTest, ExtremeFiniteValues) {
  MomentsSketch s(4);
  s.Accumulate(1e-300);
  s.Accumulate(1e300);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.min(), 1e-300);
  EXPECT_DOUBLE_EQ(s.max(), 1e300);
  // Power sums overflow to inf at order >= 2 — the sketch stores what fp
  // allows; estimation on such a sketch must fail cleanly, not crash.
  auto dist = SolveMaxEnt(s);
  if (dist.ok()) {
    const double q = dist->Quantile(0.5);
    EXPECT_GE(q, s.min());
    EXPECT_LE(q, s.max());
  }
}

TEST(EdgeCaseTest, SingleElementSketch) {
  MomentsSketch s(10);
  s.Accumulate(42.5);
  auto dist = SolveMaxEnt(s);
  ASSERT_TRUE(dist.ok());
  EXPECT_DOUBLE_EQ(dist->Quantile(0.01), 42.5);
  EXPECT_DOUBLE_EQ(dist->Quantile(0.99), 42.5);
  RankBounds b = RankBoundOracle(s).MarkovBound(42.5);
  EXPECT_LE(b.lower, 0.0 + 1e-9);
}

TEST(EdgeCaseTest, TwoDistinctValues) {
  MomentsSketch s(10);
  for (int i = 0; i < 30; ++i) s.Accumulate(1.0);
  for (int i = 0; i < 70; ++i) s.Accumulate(3.0);
  // Solver may or may not converge (discrete); cascade must still decide
  // correctly using bounds: q50 = 3 > 2, q20 = 1 < 2.
  ThresholdCascade cascade;
  EXPECT_TRUE(cascade.Threshold(s, 0.5, 2.0));
  EXPECT_FALSE(cascade.Threshold(s, 0.2, 2.0));
}

}  // namespace
}  // namespace msketch
