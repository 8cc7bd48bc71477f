#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/bounds.h"
#include "core/cascade.h"
#include "core/moments_sketch.h"
#include "datasets/datasets.h"
#include "numerics/stats.h"

namespace msketch {
namespace {

struct BoundCase {
  const char* dataset;
  uint64_t n;
};

class RankBoundPropertyTest : public ::testing::TestWithParam<BoundCase> {};

// Core soundness property: the true rank always lies inside both the
// Markov and the RTT bounds, and RTT is never looser than the intersection
// ordering requires.
TEST_P(RankBoundPropertyTest, TrueRankAlwaysInsideBounds) {
  auto ds = DatasetFromName(GetParam().dataset);
  ASSERT_TRUE(ds.ok());
  auto data = GenerateDataset(ds.value(), GetParam().n);
  MomentsSketch sketch(10);
  for (double x : data) sketch.Accumulate(x);
  std::sort(data.begin(), data.end());
  const double n = static_cast<double>(data.size());

  // Probe thresholds across the central quantile span plus the extremes.
  std::vector<double> probes;
  for (double phi : DefaultPhiGrid()) {
    probes.push_back(QuantileOfSorted(data, phi));
  }
  probes.push_back(data.front() - 1.0);
  probes.push_back(data.back() + 1.0);
  probes.push_back(0.5 * (data.front() + data.back()));

  const RankBoundOracle oracle(sketch);
  for (double t : probes) {
    const double rank = static_cast<double>(RankOfSorted(data, t));
    RankBounds markov = oracle.MarkovBound(t);
    // Tolerance: bounds are computed from ~1e-9-precise moments.
    EXPECT_LE(markov.lower, rank + n * 1e-6)
        << GetParam().dataset << " t=" << t;
    EXPECT_GE(markov.upper, rank - n * 1e-6)
        << GetParam().dataset << " t=" << t;

    RankBounds rtt = oracle.RttBound(t);
    EXPECT_LE(rtt.lower, rank + n * 1e-4)
        << GetParam().dataset << " RTT t=" << t;
    EXPECT_GE(rtt.upper, rank - n * 1e-4)
        << GetParam().dataset << " RTT t=" << t;
    EXPECT_LE(rtt.lower, rtt.upper + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, RankBoundPropertyTest,
    ::testing::Values(BoundCase{"milan", 50000}, BoundCase{"hepmass", 50000},
                      BoundCase{"occupancy", 20000},
                      BoundCase{"retail", 50000}, BoundCase{"power", 50000},
                      BoundCase{"expon", 50000}, BoundCase{"gauss", 50000}),
    [](const ::testing::TestParamInfo<BoundCase>& info) {
      return std::string(info.param.dataset);
    });

// Certified value-domain intervals: the true quantile must always lie
// inside, across datasets and quantiles, including pathological inputs.
TEST_P(RankBoundPropertyTest, CertifiedIntervalContainsTrueQuantile) {
  auto ds = DatasetFromName(GetParam().dataset);
  ASSERT_TRUE(ds.ok());
  auto data = GenerateDataset(ds.value(), GetParam().n);
  MomentsSketch sketch(10);
  for (double x : data) sketch.Accumulate(x);
  std::sort(data.begin(), data.end());
  for (double phi : {0.01, 0.1, 0.5, 0.9, 0.99}) {
    const double truth = QuantileOfSorted(data, phi);
    QuantileInterval iv = CertifiedQuantileInterval(sketch, phi);
    const double slack =
        1e-6 * (std::abs(sketch.max()) + std::abs(sketch.min()) + 1.0);
    EXPECT_LE(iv.lower, truth + slack)
        << GetParam().dataset << " phi=" << phi;
    EXPECT_GE(iv.upper, truth - slack)
        << GetParam().dataset << " phi=" << phi;
    EXPECT_GE(iv.lower, sketch.min() - slack);
    EXPECT_LE(iv.upper, sketch.max() + slack);
  }
}

TEST(CertifiedIntervalTest, DegenerateCases) {
  MomentsSketch empty(10);
  QuantileInterval iv = CertifiedQuantileInterval(empty, 0.5);
  EXPECT_EQ(iv.lower, 0.0);
  EXPECT_EQ(iv.upper, 0.0);

  MomentsSketch point(10);
  for (int i = 0; i < 100; ++i) point.Accumulate(42.0);
  iv = CertifiedQuantileInterval(point, 0.5);
  EXPECT_DOUBLE_EQ(iv.lower, 42.0);
  EXPECT_DOUBLE_EQ(iv.upper, 42.0);
}

TEST(CertifiedIntervalTest, TightensBeyondMinMaxOnSmoothData) {
  Rng rng(21);
  MomentsSketch sketch(10);
  for (int i = 0; i < 100000; ++i) sketch.Accumulate(rng.NextDouble());
  QuantileInterval iv = CertifiedQuantileInterval(sketch, 0.5);
  // On uniform data the median certificate must beat the trivial [0, 1].
  EXPECT_GT(iv.lower, sketch.min());
  EXPECT_LT(iv.upper, sketch.max());
  EXPECT_LT(iv.width(), 0.9 * (sketch.max() - sketch.min()));
}

TEST(HankelConditionTest, SeparatesSmoothFromAtomic) {
  Rng rng(31);
  MomentsSketch smooth(10);
  for (int i = 0; i < 50000; ++i) smooth.Accumulate(rng.NextDouble());
  const double cond_smooth = RankBoundOracle(smooth).HankelConditionNumber();
  EXPECT_TRUE(std::isfinite(cond_smooth));

  MomentsSketch atomic(10);
  for (int i = 0; i < 50000; ++i) atomic.Accumulate(i % 2 == 0 ? 1.0 : 3.0);
  const double cond_atomic = RankBoundOracle(atomic).HankelConditionNumber();
  // A two-atom measure has a (numerically) singular k=10 Hankel matrix.
  EXPECT_GT(cond_atomic, 1e6);
  EXPECT_GT(cond_atomic, cond_smooth * 100.0);

  MomentsSketch empty(10);
  EXPECT_TRUE(std::isinf(RankBoundOracle(empty).HankelConditionNumber()));
  MomentsSketch point(10);
  point.Accumulate(5.0);
  EXPECT_TRUE(std::isinf(RankBoundOracle(point).HankelConditionNumber()));
}

TEST(MarkovBoundTest, TrivialOutOfRange) {
  MomentsSketch s(6);
  for (int i = 1; i <= 100; ++i) s.Accumulate(i);
  const RankBoundOracle oracle(s);
  RankBounds below = oracle.MarkovBound(0.5);
  EXPECT_DOUBLE_EQ(below.lower, 0.0);
  EXPECT_DOUBLE_EQ(below.upper, 0.0);
  RankBounds above = oracle.MarkovBound(1000.0);
  EXPECT_DOUBLE_EQ(above.lower, 100.0);
  EXPECT_DOUBLE_EQ(above.upper, 100.0);
}

TEST(MarkovBoundTest, TightForPointMassTail) {
  // 99 ones and a single 100: P(x >= t) for t in (1, 100] should be
  // bounded near 1/100 by high-order Markov.
  MomentsSketch s(10);
  for (int i = 0; i < 99; ++i) s.Accumulate(1.0);
  s.Accumulate(100.0);
  RankBounds b = RankBoundOracle(s).MarkovBound(50.0);
  // rank(50) = 99. Lower bound should push well above 90.
  EXPECT_GE(b.lower, 90.0);
  EXPECT_GE(b.upper, 99.0);
}

TEST(RttBoundTest, TighterThanMarkovOnAverage) {
  auto data = GenerateDataset(DatasetId::kExponential, 50000);
  MomentsSketch sketch(10);
  for (double x : data) sketch.Accumulate(x);
  std::sort(data.begin(), data.end());
  const RankBoundOracle oracle(sketch);
  double markov_width = 0.0, rtt_width = 0.0;
  for (double phi : DefaultPhiGrid()) {
    const double t = QuantileOfSorted(data, phi);
    RankBounds m = oracle.MarkovBound(t);
    RankBounds r = oracle.RttBound(t);
    markov_width += m.upper - m.lower;
    rtt_width += r.upper - r.lower;
  }
  EXPECT_LT(rtt_width, 0.8 * markov_width);
}

TEST(RttBoundTest, DegenerateSketchStillSound) {
  // Two distinct values: Hankel matrices degenerate quickly; bounds must
  // remain valid.
  MomentsSketch s(10);
  for (int i = 0; i < 50; ++i) s.Accumulate(1.0);
  for (int i = 0; i < 50; ++i) s.Accumulate(2.0);
  RankBounds b = RankBoundOracle(s).RttBound(1.5);
  EXPECT_LE(b.lower, 50.0 + 1e-3);
  EXPECT_GE(b.upper, 50.0 - 1e-3);
}

TEST(QuantileErrorBoundTest, BoundCoversTrueError) {
  auto data = GenerateDataset(DatasetId::kPower, 50000);
  MomentsSketch sketch(10);
  for (double x : data) sketch.Accumulate(x);
  std::sort(data.begin(), data.end());
  const RankBoundOracle oracle(sketch);
  for (double phi : {0.1, 0.5, 0.9, 0.99}) {
    const double truth = QuantileOfSorted(data, phi);
    // Perturb the estimate; the certified bound must cover the actual
    // rank error of the perturbed estimate.
    const double estimate = truth * 1.05;
    const double certified = oracle.QuantileErrorBound(phi, estimate);
    const double actual = QuantileError(data, phi, estimate);
    EXPECT_GE(certified + 1e-4, actual) << "phi=" << phi;
  }
}

// ------------------------------------------------------------- Cascade

TEST(CascadeTest, SimpleRangeChecks) {
  MomentsSketch s(10);
  for (int i = 1; i <= 1000; ++i) s.Accumulate(i);
  ThresholdCascade cascade;
  EXPECT_FALSE(cascade.Threshold(s, 0.99, 2000.0));  // t above max
  EXPECT_TRUE(cascade.Threshold(s, 0.01, 0.5));      // t below min
  EXPECT_EQ(cascade.stats().resolved_simple, 2u);
}

// The range stage's checks are strict: t equal to the min or the max
// leaves the query open. An empty dataset is decided (false) even with
// the range check off, since no bound stage could say more.
TEST(CascadeTest, RangeStageIsStrictAndDecidesEmpty) {
  using D = ThresholdCascade::Decision;
  const CascadeOptions on;
  EXPECT_EQ(ThresholdCascade::RangeStage(on, 10, 1.0, 5.0, 5.5), D::kFalse);
  EXPECT_EQ(ThresholdCascade::RangeStage(on, 10, 1.0, 5.0, 0.5), D::kTrue);
  EXPECT_EQ(ThresholdCascade::RangeStage(on, 10, 1.0, 5.0, 5.0),
            D::kUnresolved);
  EXPECT_EQ(ThresholdCascade::RangeStage(on, 10, 1.0, 5.0, 1.0),
            D::kUnresolved);
  EXPECT_EQ(ThresholdCascade::RangeStage(on, 0, 1.0, 5.0, 3.0), D::kFalse);
  CascadeOptions off;
  off.use_simple_check = false;
  EXPECT_EQ(ThresholdCascade::RangeStage(off, 10, 1.0, 5.0, 9.0),
            D::kUnresolved);
  EXPECT_EQ(ThresholdCascade::RangeStage(off, 0, 1.0, 5.0, 3.0), D::kFalse);
}

// Every query is counted in exactly one stage, an empty sketch in the
// range stage, so the stage counters add up to `total` under every
// stage configuration.
TEST(CascadeTest, StageCountersSumToTotal) {
  auto data = GenerateDataset(DatasetId::kExponential, 5000);
  MomentsSketch full(10);
  for (double x : data) full.Accumulate(x);
  std::sort(data.begin(), data.end());
  const MomentsSketch empty(10);
  for (const bool simple : {true, false}) {
    for (const bool bounds : {true, false}) {
      CascadeOptions opts;
      opts.use_simple_check = simple;
      opts.use_markov = bounds;
      opts.use_rtt = bounds;
      ThresholdCascade cascade(opts);
      EXPECT_FALSE(cascade.Threshold(empty, 0.5, 1.0));
      for (double phi : {0.1, 0.5, 0.99}) {
        for (double t : {-1.0, QuantileOfSorted(data, phi), 100.0}) {
          cascade.Threshold(full, phi, t);
        }
      }
      const CascadeStats& st = cascade.stats();
      EXPECT_EQ(st.total, 10u);
      EXPECT_GE(st.resolved_simple, 1u);
      EXPECT_EQ(st.resolved_simple + st.resolved_markov + st.resolved_rtt +
                    st.resolved_maxent,
                st.total)
          << "simple=" << simple << " bounds=" << bounds;
    }
  }
}

TEST(CascadeTest, AgreesWithDirectMaxEntEstimate) {
  // Consistency property from Section 5.2: cascade decisions match
  // computing the maxent quantile up front.
  auto data = GenerateDataset(DatasetId::kMilan, 50000);
  MomentsSketch sketch(10);
  for (double x : data) sketch.Accumulate(x);
  auto dist = SolveMaxEnt(sketch);
  ASSERT_TRUE(dist.ok());

  ThresholdCascade cascade;
  std::sort(data.begin(), data.end());
  for (double phi : {0.3, 0.5, 0.7, 0.9, 0.99}) {
    for (double scale : {0.5, 0.9, 0.999, 1.001, 1.1, 2.0}) {
      const double t = QuantileOfSorted(data, phi) * scale;
      const double q = dist->Quantile(phi);
      const bool direct = q > t;
      const bool via_cascade = cascade.Threshold(sketch, phi, t);
      // Bounds-resolved decisions are exact w.r.t. any matching dataset;
      // they can only disagree with maxent when maxent itself errs within
      // the bound gap. Tolerate disagreement only when t is within 0.5%
      // of the maxent estimate.
      if (std::fabs(t - q) > 0.005 * std::max(1.0, std::fabs(q))) {
        EXPECT_EQ(direct, via_cascade) << "phi=" << phi << " t=" << t;
      }
    }
  }
}

TEST(CascadeTest, StagesResolveProgressively) {
  // With thresholds far outside the bulk, Markov should resolve; close to
  // the quantile, maxent must be consulted.
  auto data = GenerateDataset(DatasetId::kExponential, 50000);
  MomentsSketch sketch(10);
  for (double x : data) sketch.Accumulate(x);
  std::sort(data.begin(), data.end());
  ThresholdCascade cascade;

  // Far threshold: q99 vs t = 50 (way above q99 ~ 4.6).
  cascade.Threshold(sketch, 0.99, 50.0);
  const auto after_far = cascade.stats();
  EXPECT_EQ(after_far.resolved_simple + after_far.resolved_markov +
                after_far.resolved_rtt,
            1u);

  // Near threshold: within the bound gap -> maxent stage.
  const double q50 = QuantileOfSorted(data, 0.5);
  cascade.Threshold(sketch, 0.5, q50 * 1.001);
  EXPECT_EQ(cascade.stats().resolved_maxent, 1u);
}

TEST(CascadeTest, DisabledStagesFallThrough) {
  auto data = GenerateDataset(DatasetId::kGauss, 20000);
  MomentsSketch sketch(10);
  for (double x : data) sketch.Accumulate(x);
  CascadeOptions opts;
  opts.use_simple_check = false;
  opts.use_markov = false;
  opts.use_rtt = false;
  ThresholdCascade cascade(opts);
  cascade.Threshold(sketch, 0.5, 100.0);
  EXPECT_EQ(cascade.stats().resolved_maxent, 1u);
  EXPECT_EQ(cascade.stats().resolved_simple, 0u);
}

TEST(CascadeTest, NonConvergentMaxEntStillDecides) {
  // Three-point discrete data: maxent may fail; the cascade must still
  // return a decision consistent with the rank bounds.
  MomentsSketch s(10);
  for (int i = 0; i < 400; ++i) s.Accumulate(1.0);
  for (int i = 0; i < 400; ++i) s.Accumulate(2.0);
  for (int i = 0; i < 200; ++i) s.Accumulate(4.0);
  ThresholdCascade cascade;
  // q50 = 2 (rank 500 element); t = 3 -> predicate false.
  EXPECT_FALSE(cascade.Threshold(s, 0.5, 3.0));
  // q95 = 4; t = 3 -> predicate true.
  EXPECT_TRUE(cascade.Threshold(s, 0.95, 3.0));
}

TEST(CascadeTest, StatsAccumulateAndReset) {
  MomentsSketch s(10);
  for (int i = 1; i <= 100; ++i) s.Accumulate(i);
  ThresholdCascade cascade;
  cascade.Threshold(s, 0.5, 1000.0);
  cascade.Threshold(s, 0.5, -5.0);
  EXPECT_EQ(cascade.stats().total, 2u);
  cascade.ResetStats();
  EXPECT_EQ(cascade.stats().total, 0u);
}

}  // namespace
}  // namespace msketch
