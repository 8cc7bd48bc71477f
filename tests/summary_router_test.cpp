// Summary-router tests: backend selection, the certified-interval
// contract (satellite 3's property suite — the true quantile always lies
// inside the certificate, and the router never regresses against a pure
// moments solve on well-conditioned cells), the adversarial sweep (no
// uncertified or failed answer ever escapes on non-empty data), certified
// GROUP BY, the streaming dual-write path, the solver cache behind
// repeated point queries, and bit-exact recovery of a mixed-backend
// (moments + KLL) durable cube.
//
// Point queries share the process-wide solver cache across the tests of
// this binary; tests that count solves or compare independent solves
// turn it off (MaxEntOptions::use_solver_cache).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "core/bounds.h"
#include "core/maxent_solver.h"
#include "core/moments_sketch.h"
#include "core/solver_cache.h"
#include "cube/batch_query.h"
#include "cube/cube_store.h"
#include "cube/summary_router.h"
#include "datasets/datasets.h"
#include "ingest/streaming_cube.h"
#include "numerics/stats.h"
#include "persist/durable_log.h"
#include "persist/env.h"
#include "sketches/kll_sketch.h"

namespace msketch {
namespace {

// ------------------------------------------------------------ helpers

constexpr double kPhis[] = {0.01, 0.1, 0.5, 0.9, 0.99};

std::string MakeTempDir() {
  char tmpl[] = "/tmp/msketch_router_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

// Named synthetic datasets for the property suite. Deterministic seeds:
// the suite asserts hard containment, not statistics.
std::vector<double> NamedData(const std::string& name, size_t n) {
  Rng rng(0x5eedULL + std::hash<std::string>{}(name));
  std::vector<double> out;
  out.reserve(n);
  if (name == "uniform") {
    for (size_t i = 0; i < n; ++i) out.push_back(rng.NextDouble());
  } else if (name == "lognormal") {
    for (size_t i = 0; i < n; ++i) out.push_back(rng.NextLognormal(0.0, 1.0));
  } else if (name == "pareto") {
    // Moderate tail (finite first four moments).
    for (size_t i = 0; i < n; ++i) {
      out.push_back(std::pow(1.0 - rng.NextDouble(), -1.0 / 2.5));
    }
  } else if (name == "pareto_heavy") {
    // alpha = 1.1: the higher sample moments are wild — this is the
    // cell the conditioning monitor exists for.
    for (size_t i = 0; i < n; ++i) {
      out.push_back(std::pow(1.0 - rng.NextDouble(), -1.0 / 1.1));
    }
  } else if (name == "discrete") {
    const double levels[] = {1.0, 2.0, 4.0, 8.0, 16.0};
    for (size_t i = 0; i < n; ++i) out.push_back(levels[rng.NextBelow(5)]);
  } else if (name == "two_atom") {
    for (size_t i = 0; i < n; ++i) {
      out.push_back(rng.NextDouble() < 0.6 ? 1.0 : 5.0);
    }
  } else if (name == "single_atom") {
    for (size_t i = 0; i < n; ++i) out.push_back(42.0);
  } else if (name == "near_singular") {
    // Point mass plus a vanishing perturbation: the Hankel matrix is
    // numerically singular but min < max.
    for (size_t i = 0; i < n; ++i) {
      out.push_back(1.0 + 1e-9 * rng.NextDouble());
    }
  } else if (name == "clustered") {
    // Two tight clusters nine orders of magnitude apart.
    for (size_t i = 0; i < n; ++i) {
      const double base = (i % 3 == 0) ? 1e-6 : 1e3;
      out.push_back(base * (1.0 + 1e-7 * rng.NextDouble()));
    }
  } else {
    ADD_FAILURE() << "unknown dataset " << name;
  }
  return out;
}

MomentsSketch SketchOf(const std::vector<double>& data, int k = 10) {
  MomentsSketch s(k);
  for (double v : data) s.Accumulate(v);
  return s;
}

KllSketch KllOf(const std::vector<double>& data, int k = 64) {
  KllSketch s(k);
  for (double v : data) s.Accumulate(v);
  return s;
}

double Slack(const MomentsSketch& s) {
  return 1e-6 * (std::abs(s.max()) + std::abs(s.min()) + 1.0);
}

// Asserts the router's core contract on one answer: OK status, certified
// flag, estimate inside the interval, truth inside the interval.
void ExpectCertified(const CertifiedQuantile& a, double truth, double slack,
                     const std::string& what) {
  EXPECT_TRUE(a.status.ok()) << what << ": " << a.status.ToString();
  EXPECT_TRUE(a.certified) << what;
  EXPECT_LE(a.interval.lower, a.estimate + 1e-12) << what;
  EXPECT_GE(a.interval.upper, a.estimate - 1e-12) << what;
  EXPECT_LE(a.interval.lower, truth + slack)
      << what << " lower bound above truth " << truth;
  EXPECT_GE(a.interval.upper, truth - slack)
      << what << " upper bound below truth " << truth;
}

// True when the interval holds an exact phi-quantile of the sorted rows:
// some row q with #{x < q} <= phi*n <= #{x <= q}, within `slack`.
bool HoldsExactQuantile(const QuantileInterval& iv,
                        const std::vector<double>& sorted, double phi,
                        double slack) {
  const double target = phi * static_cast<double>(sorted.size());
  for (double q : sorted) {
    const double below = static_cast<double>(
        std::lower_bound(sorted.begin(), sorted.end(), q) - sorted.begin());
    const double at_or_below = static_cast<double>(
        std::upper_bound(sorted.begin(), sorted.end(), q) - sorted.begin());
    if (below <= target && target <= at_or_below &&
        iv.lower <= q + slack && iv.upper >= q - slack) {
      return true;
    }
  }
  return false;
}

// True when two answers print the same under %a: the same bits in the
// estimate and both interval ends, and the same backend.
bool SameAnswer(const CertifiedQuantile& a, const CertifiedQuantile& b) {
  auto bits = [](double v) {
    uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
  };
  return bits(a.estimate) == bits(b.estimate) &&
         bits(a.interval.lower) == bits(b.interval.lower) &&
         bits(a.interval.upper) == bits(b.interval.upper) &&
         a.backend == b.backend && a.certified == b.certified;
}

RouterOptions NoSolverCache() {
  RouterOptions o;
  o.maxent.use_solver_cache = false;
  return o;
}

// --------------------------------------------------------- unit tests

TEST(SummaryRouterTest, EmptyCellIsTheOnlyError) {
  SummaryRouter router;
  MomentsSketch empty(10);
  CertifiedQuantile a = router.Query(empty, nullptr, 0.5);
  EXPECT_FALSE(a.status.ok());
  EXPECT_FALSE(a.certified);

  // Same with a (necessarily empty) KLL alongside.
  KllSketch kll(64);
  a = router.Query(empty, &kll, 0.5);
  EXPECT_FALSE(a.status.ok());
}

TEST(SummaryRouterTest, PointMassIsExactAndDegenerate) {
  SummaryRouter router;
  const auto data = NamedData("single_atom", 1000);
  MomentsSketch s = SketchOf(data);
  CertifiedQuantile a = router.Query(s, nullptr, 0.5);
  EXPECT_TRUE(a.status.ok());
  EXPECT_TRUE(a.certified);
  EXPECT_EQ(a.backend, QuantileBackend::kDegenerate);
  EXPECT_DOUBLE_EQ(a.estimate, 42.0);
  EXPECT_DOUBLE_EQ(a.interval.lower, 42.0);
  EXPECT_DOUBLE_EQ(a.interval.upper, 42.0);
  EXPECT_EQ(router.stats().degenerate_answers, 1u);
}

TEST(SummaryRouterTest, SmoothCellAnswersFromMoments) {
  SummaryRouter router(NoSolverCache());  // counts the solve
  const auto data = NamedData("uniform", 50000);
  MomentsSketch s = SketchOf(data);
  KllSketch kll = KllOf(data);
  std::vector<CertifiedQuantile> out =
      router.QueryMany(s, &kll, {0.1, 0.5, 0.9});
  for (const auto& a : out) {
    EXPECT_TRUE(a.status.ok());
    EXPECT_EQ(a.backend, QuantileBackend::kMoments);
  }
  EXPECT_EQ(router.stats().moments_answers, 3u);
  EXPECT_EQ(router.stats().conditioning_rejects, 0u);
  EXPECT_EQ(router.stats().solver_failures, 0u);
  // One solve shared by the whole batch, no hint -> cold.
  EXPECT_EQ(router.stats().solve.cold_solves +
                router.stats().solve.warm_solves,
            1u);
}

TEST(SummaryRouterTest, WarmHintChainsAcrossQueries) {
  SummaryRouter router(NoSolverCache());  // counts the warm solve
  const auto data = NamedData("uniform", 20000);
  MomentsSketch s = SketchOf(data);
  ASSERT_TRUE(router.Query(s, nullptr, 0.5).status.ok());
  ASSERT_TRUE(router.last_warm_start().valid());
  // A similar cell warm-started from the previous solve.
  MomentsSketch s2 = SketchOf(NamedData("uniform", 21000));
  CertifiedQuantile a =
      router.Query(s2, nullptr, 0.5, &router.last_warm_start());
  EXPECT_TRUE(a.status.ok());
  EXPECT_EQ(a.backend, QuantileBackend::kMoments);
  EXPECT_GE(router.stats().solve.warm_solves, 1u);
}

// A repeated selection reuses the distribution its first query solved:
// the second QueryMany records a cache hit and no solve, and answers bit
// for bit as a router that always solves. With the cache off, the
// process-wide cache is neither read nor written.
TEST(SummaryRouterTest, RepeatedQueryReusesTheSolvedDistribution) {
  const auto data = NamedData("lognormal", 30011);  // no other test's cell
  const MomentsSketch s = SketchOf(data);
  const KllSketch kll = KllOf(data);
  ASSERT_GT(kll.rank_error_bound(), 0u);  // not the exact path
  const std::vector<double> phis(kPhis, kPhis + 5);

  SummaryRouter cold(NoSolverCache());
  const CacheStats before = GlobalSolverCache().stats();
  const std::vector<CertifiedQuantile> ref = cold.QueryMany(s, &kll, phis);
  (void)cold.QueryMany(s, &kll, phis);
  const CacheStats after = GlobalSolverCache().stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.insertions, before.insertions);
  EXPECT_EQ(cold.stats().solve.cold_solves, 2u);
  EXPECT_EQ(cold.stats().cache_hits, 0u);

  SummaryRouter router;
  const std::vector<CertifiedQuantile> first =
      router.QueryMany(s, &kll, phis);
  const RouterStats once = router.stats();
  EXPECT_EQ(once.cache_hits + once.solve.cold_solves + once.solve.warm_solves,
            1u);
  const std::vector<CertifiedQuantile> second =
      router.QueryMany(s, &kll, phis);
  const RouterStats& twice = router.stats();
  EXPECT_EQ(twice.cache_hits, once.cache_hits + 1);
  EXPECT_EQ(twice.solve.cold_solves, once.solve.cold_solves);
  EXPECT_EQ(twice.solve.warm_solves, once.solve.warm_solves);
  EXPECT_EQ(twice.moments_answers, 2 * phis.size());
  EXPECT_TRUE(router.last_warm_start().valid());

  ASSERT_EQ(first.size(), phis.size());
  ASSERT_EQ(second.size(), phis.size());
  for (size_t i = 0; i < phis.size(); ++i) {
    const std::string what = "phi=" + std::to_string(phis[i]);
    EXPECT_EQ(ref[i].backend, QuantileBackend::kMoments) << what;
    EXPECT_TRUE(SameAnswer(first[i], ref[i])) << what;
    EXPECT_TRUE(SameAnswer(second[i], ref[i])) << what;
  }
}

TEST(SummaryRouterTest, KllIntersectionNeverWidensTheCertificate) {
  const auto data = NamedData("lognormal", 50000);
  MomentsSketch s = SketchOf(data);
  KllSketch kll = KllOf(data);
  SummaryRouter with_kll;
  SummaryRouter without;
  for (double phi : kPhis) {
    CertifiedQuantile a = with_kll.Query(s, &kll, phi);
    CertifiedQuantile b = without.Query(s, nullptr, phi);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_GE(a.interval.lower, b.interval.lower - 1e-12) << "phi=" << phi;
    EXPECT_LE(a.interval.upper, b.interval.upper + 1e-12) << "phi=" << phi;
  }
}

// Twelve heavy-tailed rows where the moment-bound interval excludes the
// exact 0.9-quantile and does not even meet the KLL certificate. Of two
// disjoint certificates only the KLL one is sound by construction, so
// the combined certificate must be the KLL one. Twelve rows never
// compact a k = 64 KLL, so the router answers them on the exact path;
// the rule for compacted sketches is checked on IntersectCertificates.
TEST(SummaryRouterTest, DisjointCertificatesKeepTheKllInterval) {
  const std::vector<double> rows = {
      1497.1075385661322, 21.93080052510501,     140.84918729346307,
      26.13132607446725,  4.5954653801346446,    3.8061469639233536e-05,
      82.6982198848915,   18.198388553509833,    36.171422949992838,
      3.7179629225478705, 14.966951082641719,    83.502219641687759};
  const double phi = 0.9;
  std::vector<double> sorted = rows;
  std::sort(sorted.begin(), sorted.end());
  const double truth = QuantileOfSorted(sorted, phi);
  MomentsSketch s = SketchOf(rows);
  KllSketch kll = KllOf(rows);

  // The defect's shape: the two certificates are disjoint and the moment
  // interval misses the truth.
  const QuantileInterval moments_iv = CertifiedQuantileInterval(
      s, phi, RouterOptions().interval_steps);
  auto kll_iv = kll.CertifiedInterval(phi);
  ASSERT_TRUE(kll_iv.ok());
  ASSERT_GT(moments_iv.lower, kll_iv.value().upper);
  ASSERT_GT(moments_iv.lower, truth);

  RouterStats stats;
  const QuantileInterval combined =
      IntersectCertificates(moments_iv, kll_iv.value(), &stats);
  EXPECT_EQ(combined.lower, kll_iv.value().lower);
  EXPECT_EQ(combined.upper, kll_iv.value().upper);
  EXPECT_EQ(stats.intersected_certificates, 0u);
  // Mirrored: a moment interval wholly below the KLL certificate.
  const QuantileInterval below = {sorted[0], sorted[1]};
  const QuantileInterval mirrored =
      IntersectCertificates(below, kll_iv.value(), &stats);
  EXPECT_EQ(mirrored.lower, kll_iv.value().lower);
  EXPECT_EQ(mirrored.upper, kll_iv.value().upper);

  SummaryRouter router;
  CertifiedQuantile a = router.Query(s, &kll, phi);
  ExpectCertified(a, truth, Slack(s), "twelve rows phi=0.9");
  EXPECT_EQ(a.interval.lower, kll_iv.value().lower);
  EXPECT_EQ(a.interval.upper, kll_iv.value().upper);
}

// Overlapping certificates meet in their intersection, counted once
// per narrowed moment interval.
TEST(SummaryRouterTest, OverlappingCertificatesIntersect) {
  RouterStats stats;
  const QuantileInterval narrowed =
      IntersectCertificates({1.0, 5.0}, KllInterval{3.0, 8.0}, &stats);
  EXPECT_EQ(narrowed.lower, 3.0);
  EXPECT_EQ(narrowed.upper, 5.0);
  EXPECT_EQ(stats.intersected_certificates, 1u);
  const QuantileInterval inside =
      IntersectCertificates({3.5, 4.0}, KllInterval{3.0, 8.0}, &stats);
  EXPECT_EQ(inside.lower, 3.5);
  EXPECT_EQ(inside.upper, 4.0);
  EXPECT_EQ(stats.intersected_certificates, 1u);
}

TEST(SummaryRouterTest, BackendCountersAccountForEveryQuery) {
  SummaryRouter router;
  for (const char* name :
       {"uniform", "two_atom", "single_atom", "pareto_heavy"}) {
    const auto data = NamedData(name, 20000);
    MomentsSketch s = SketchOf(data);
    KllSketch kll = KllOf(data);
    router.QueryMany(s, &kll, {0.25, 0.5, 0.75});
  }
  const RouterStats& st = router.stats();
  EXPECT_EQ(st.queries, 12u);
  EXPECT_EQ(st.moments_answers + st.kll_answers + st.atomic_answers +
                st.bounds_fallbacks + st.degenerate_answers,
            st.queries);
  EXPECT_LE(st.exact_answers, st.kll_answers);
}

// ------------------------------------- satellite 3: property suite

struct PropertyCase {
  const char* dataset;
  size_t n;
  // Cells where the maxent solve is expected to succeed outright; on
  // these the router must answer from moments and be at least as
  // accurate as a bare solve (no-regression clause).
  bool well_conditioned;
};

class RouterPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(RouterPropertyTest, TruthAlwaysInsideCertificate) {
  const auto data = NamedData(GetParam().dataset, GetParam().n);
  MomentsSketch s = SketchOf(data);
  KllSketch kll = KllOf(data);
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  const double slack = Slack(s);

  // Both with and without the rank sketch: the certificate must hold on
  // every degradation path.
  const KllSketch* sides[] = {nullptr, &kll};
  for (const KllSketch* side : sides) {
    SummaryRouter router;
    for (double phi : kPhis) {
      const double truth = QuantileOfSorted(sorted, phi);
      CertifiedQuantile a = router.Query(s, side, phi);
      ExpectCertified(a, truth, slack,
                      std::string(GetParam().dataset) + " phi=" +
                          std::to_string(phi) +
                          (side ? " (with kll)" : " (moments only)"));
    }
  }
}

TEST_P(RouterPropertyTest, NoRegressionOnWellConditionedCells) {
  if (!GetParam().well_conditioned) GTEST_SKIP();
  const auto data = NamedData(GetParam().dataset, GetParam().n);
  MomentsSketch s = SketchOf(data);
  KllSketch kll = KllOf(data);
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());

  auto pure = SolveMaxEnt(s, MaxEntOptions{});
  ASSERT_TRUE(pure.ok()) << GetParam().dataset
                         << ": expected a clean maxent solve";
  SummaryRouter router;
  for (double phi : kPhis) {
    const double truth = QuantileOfSorted(sorted, phi);
    CertifiedQuantile a = router.Query(s, &kll, phi);
    ASSERT_TRUE(a.status.ok());
    // The router must not route a healthy cell away from moments...
    EXPECT_EQ(a.backend, QuantileBackend::kMoments)
        << GetParam().dataset << " phi=" << phi;
    // ...and clamping into the certificate can only reduce the error of
    // the bare estimate (the truth is inside the interval).
    const double pure_err = std::abs(pure.value().Quantile(phi) - truth);
    const double routed_err = std::abs(a.estimate - truth);
    EXPECT_LE(routed_err, pure_err + Slack(s))
        << GetParam().dataset << " phi=" << phi;
  }
  EXPECT_EQ(router.stats().conditioning_rejects, 0u);
  EXPECT_EQ(router.stats().solver_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, RouterPropertyTest,
    ::testing::Values(PropertyCase{"uniform", 50000, true},
                      PropertyCase{"lognormal", 50000, true},
                      PropertyCase{"pareto", 50000, false},
                      PropertyCase{"discrete", 50000, false},
                      PropertyCase{"single_atom", 10000, false}),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return std::string(info.param.dataset);
    });

// ------------------------------------------------ adversarial sweep

// The acceptance sweep: every pathological cell, with and without a KLL
// backend, at every phi — 100% certified answers containing the truth,
// zero escaped failures. This is the CI gate's in-process twin.
TEST(RouterAdversarialSweep, EveryAnswerCertifiedAndContainsTruth) {
  const char* suite[] = {"two_atom",      "discrete", "pareto_heavy",
                         "near_singular", "clustered", "single_atom"};
  SummaryRouter router;
  uint64_t answers = 0;
  for (const char* name : suite) {
    const auto data = NamedData(name, 20000);
    MomentsSketch s = SketchOf(data);
    KllSketch kll = KllOf(data);
    std::vector<double> sorted = data;
    std::sort(sorted.begin(), sorted.end());
    const double slack = Slack(s);
    const KllSketch* sides[] = {nullptr, &kll};
    for (const KllSketch* side : sides) {
      for (double phi : kPhis) {
        const double truth = QuantileOfSorted(sorted, phi);
        CertifiedQuantile a = router.Query(s, side, phi);
        ExpectCertified(a, truth, slack,
                        std::string(name) + " phi=" + std::to_string(phi) +
                            (side ? " (kll)" : " (moments only)"));
        ++answers;
      }
    }
  }
  // Nothing escaped: every query produced a certified answer.
  EXPECT_EQ(router.stats().queries, answers);
  EXPECT_EQ(router.stats().moments_answers + router.stats().kll_answers +
                router.stats().atomic_answers +
                router.stats().bounds_fallbacks +
                router.stats().degenerate_answers,
            answers);
  // The sweep is pathological by construction: the degradation chain
  // must actually have fired (otherwise the sweep tests nothing).
  EXPECT_GT(router.stats().solver_failures +
                router.stats().conditioning_rejects +
                router.stats().degenerate_answers,
            0u);
}

// Small heavy-tailed selections where the conditioning pre-screen rejects
// the moments. The rank-bound solves behind the moment interval are as
// unreliable there as the maxent solve: intersected with the KLL
// certificate, they used to exclude every exact quantile. Each pinned
// case is one that missed; the KLL certificate alone holds.
TEST(RouterAdversarialSweep, SmallHeavyTailedSelectionsHoldAnExactQuantile) {
  struct Case {
    DatasetId data;
    uint64_t n;
    uint64_t seed;
    std::vector<double> phis;
  };
  const Case cases[] = {
      {DatasetId::kMilan, 300, 918904, {0.9, 0.95, 0.99}},
      {DatasetId::kMilan, 150, 1766087, {0.99}},
      {DatasetId::kMilan, 600, 3073172, {0.9}},
      {DatasetId::kRetail, 1200, 191256, {0.95, 0.99}},
      {DatasetId::kRetail, 300, 245789, {0.95}},
      {DatasetId::kRetail, 300, 784281, {0.99}},
      {DatasetId::kRetail, 150, 902916, {0.99}},
      {DatasetId::kRetail, 300, 1006013, {0.95}},
      {DatasetId::kRetail, 150, 1061296, {0.99}},
  };
  SummaryRouter router;
  for (const Case& c : cases) {
    std::vector<double> rows = GenerateDataset(c.data, c.n, c.seed);
    MomentsSketch s = SketchOf(rows);
    KllSketch kll = KllOf(rows);
    std::sort(rows.begin(), rows.end());
    const double slack = 1e-5 * (std::abs(s.min()) + std::abs(s.max()) + 1.0);
    for (double phi : c.phis) {
      const std::string what = DatasetName(c.data) + " n=" +
                                std::to_string(c.n) + " seed=" +
                                std::to_string(c.seed) +
                                " phi=" + std::to_string(phi);
      CertifiedQuantile a = router.Query(s, &kll, phi);
      ASSERT_TRUE(a.status.ok() && a.certified) << what;
      EXPECT_TRUE(HoldsExactQuantile(a.interval, rows, phi, slack))
          << what << ": [" << a.interval.lower << ", " << a.interval.upper
          << "]";
    }
  }
}

// ------------------------------------------------------ exact path

// The ceil(phi*n)-th smallest row: KLL's rank convention, the row an
// uncompacted KLL's point certificate sits on.
double KllRankRow(const std::vector<double>& sorted, double phi) {
  size_t r = static_cast<size_t>(
      std::ceil(phi * static_cast<double>(sorted.size())));
  r = std::max<size_t>(1, std::min(r, sorted.size()));
  return sorted[r - 1];
}

// An uncompacted KLL holds every row, so every answer is the point at
// the ceil(phi*n)-th smallest row and no solve runs. One row is a point
// mass, settled by the check before the exact path.
TEST(RouterExactPathTest, UncompactedKllAnswersExactlyWithoutASolve) {
  const std::vector<double> phis = {0.0, 0.01, 0.5, 0.9, 0.99, 1.0};
  for (const std::string name : {"milan", "lognormal", "pareto_heavy"}) {
    for (size_t n : {1, 2, 3, 17, 63}) {
      std::vector<double> rows =
          name == "milan" ? GenerateDataset(DatasetId::kMilan, n, 1000 + n)
                          : NamedData(name, n);
      MomentsSketch s = SketchOf(rows);
      KllSketch kll = KllOf(rows);
      ASSERT_EQ(kll.rank_error_bound(), 0u);
      std::sort(rows.begin(), rows.end());
      const bool point_mass = rows.front() == rows.back();
      SummaryRouter router;
      const std::vector<CertifiedQuantile> answers =
          router.QueryMany(s, &kll, phis);
      ASSERT_EQ(answers.size(), phis.size());
      for (size_t i = 0; i < phis.size(); ++i) {
        const std::string what = name + " n=" + std::to_string(n) +
                                 " phi=" + std::to_string(phis[i]);
        const CertifiedQuantile& a = answers[i];
        ASSERT_TRUE(a.status.ok() && a.certified) << what;
        EXPECT_EQ(a.interval.lower, KllRankRow(rows, phis[i])) << what;
        EXPECT_EQ(a.interval.upper, KllRankRow(rows, phis[i])) << what;
        EXPECT_EQ(a.estimate, KllRankRow(rows, phis[i])) << what;
        EXPECT_TRUE(HoldsExactQuantile(a.interval, rows, phis[i], 0.0))
            << what;
        EXPECT_EQ(a.backend, point_mass ? QuantileBackend::kDegenerate
                                        : QuantileBackend::kKll)
            << what;
      }
      const RouterStats& st = router.stats();
      const std::string what = name + " n=" + std::to_string(n);
      EXPECT_EQ(st.solve.warm_solves + st.solve.cold_solves, 0u) << what;
      EXPECT_EQ(st.solver_failures + st.conditioning_rejects, 0u) << what;
      EXPECT_EQ(st.exact_answers, point_mass ? 0u : phis.size()) << what;
      EXPECT_EQ(st.kll_answers, st.exact_answers) << what;
    }
  }
}

// The two rank conventions part where phi*n is whole. The exact path
// takes KLL's ceil(phi*n)-th smallest row; the paper's QuantileOfSorted
// takes the floor(phi*n) + 1-th. Both are exact phi-quantiles.
TEST(RouterExactPathTest, RankConventionWherePhiNIsWhole) {
  const std::vector<double> rows = {7, 3, 10, 1, 5, 9, 2, 8, 6, 4};
  std::vector<double> sorted = rows;
  std::sort(sorted.begin(), sorted.end());
  const double phi = 0.5;  // phi * n = 5
  SummaryRouter router;
  const KllSketch kll = KllOf(rows);
  const CertifiedQuantile a = router.Query(SketchOf(rows), &kll, phi);
  ASSERT_TRUE(a.certified);
  EXPECT_EQ(a.interval.lower, 5.0);  // 5th smallest: KLL's rank
  EXPECT_EQ(a.interval.upper, 5.0);
  EXPECT_EQ(a.estimate, 5.0);
  EXPECT_EQ(QuantileOfSorted(sorted, phi), 6.0);  // 6th smallest: paper's
  EXPECT_TRUE(HoldsExactQuantile({5.0, 5.0}, sorted, phi, 0.0));
  EXPECT_TRUE(HoldsExactQuantile({6.0, 6.0}, sorted, phi, 0.0));
  EXPECT_FALSE(HoldsExactQuantile({4.0, 4.0}, sorted, phi, 0.0));
  EXPECT_FALSE(HoldsExactQuantile({7.0, 7.0}, sorted, phi, 0.0));
}

// --------------------------------------------- certified GROUP BY

TEST(GroupByCertifiedTest, GroupsMatchPerGroupTruth) {
  CubeStore store(2, 10);
  store.EnableKll(64);

  // Three groups along dim 0: smooth, atomic, heavy-tailed — one cube
  // with healthy and pathological cells side by side.
  const char* group_data[] = {"uniform", "two_atom", "pareto_heavy"};
  std::map<uint32_t, std::vector<double>> rows_by_group;
  for (uint32_t g = 0; g < 3; ++g) {
    for (uint32_t d1 = 0; d1 < 2; ++d1) {
      auto data = NamedData(group_data[g], 4000 + 1000 * d1);
      CubeCoords coords{g, d1};
      ASSERT_TRUE(store.ApplyDelta(coords, SketchOf(data)).ok());
      ASSERT_TRUE(store.ApplyKllDelta(coords, KllOf(data)).ok());
      auto& rows = rows_by_group[g];
      rows.insert(rows.end(), data.begin(), data.end());
    }
  }

  RouterStats stats;
  const std::vector<double> phis(kPhis, kPhis + 5);
  auto groups = GroupByQuantilesCertified(store, {0}, phis, RouterOptions{},
                                          &stats);
  ASSERT_EQ(groups.size(), 3u);
  for (uint32_t g = 0; g < 3; ++g) {
    ASSERT_EQ(groups[g].key, (CubeCoords{g}));
    std::vector<double> sorted = rows_by_group[g];
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(groups[g].count, sorted.size());
    ASSERT_EQ(groups[g].answers.size(), phis.size());
    MomentsSketch merged = SketchOf(sorted);

    // The point-query router on the same group's cells: the batch
    // pipeline must make the same decision, with the same certificate
    // up to merge order and the same estimate up to solver tolerance.
    std::vector<uint32_t> ids;
    for (uint32_t id = 0; id < store.num_cells(); ++id) {
      if (store.CoordsOf(id)[0] == g) ids.push_back(id);
    }
    const MomentsSketch cells = store.MergeCells(ids.data(), ids.size());
    Result<KllSketch> cells_kll = store.MergeKllCells(ids.data(), ids.size());
    ASSERT_TRUE(cells_kll.ok());
    SummaryRouter router;
    const std::vector<CertifiedQuantile> ref =
        router.QueryMany(cells, &cells_kll.value(), phis);
    EXPECT_EQ(groups[g].count, cells.count());
    const double scale =
        std::abs(cells.min()) + std::abs(cells.max()) + 1.0;
    for (size_t i = 0; i < phis.size(); ++i) {
      const std::string what =
          std::string(group_data[g]) + " phi=" + std::to_string(phis[i]);
      const CertifiedQuantile& a = groups[g].answers[i];
      ExpectCertified(a, QuantileOfSorted(sorted, phis[i]), Slack(merged),
                      what);
      EXPECT_EQ(a.backend, ref[i].backend) << what;
      EXPECT_NEAR(a.interval.lower, ref[i].interval.lower, 1e-9 * scale)
          << what;
      EXPECT_NEAR(a.interval.upper, ref[i].interval.upper, 1e-9 * scale)
          << what;
      EXPECT_NEAR(a.estimate, ref[i].estimate, 1e-6 * scale) << what;
    }
  }
  EXPECT_EQ(stats.queries, 3 * phis.size());
}

// Groups whose cells never compacted are answered in pre-solve from
// their lossless KLL union; only the compacted group reaches the
// solver.
TEST(GroupByCertifiedTest, AllExactGroupsSkipTheSolver) {
  CubeStore store(2, 10);
  store.EnableKll(64);
  Rng rng(0xe8ac7ULL);
  std::vector<std::vector<double>> rows_by_group(4);
  for (uint32_t g = 0; g < 4; ++g) {
    // Groups 0-2: ten cells of 12 rows (120 rows, every cell exact).
    // Group 3: two cells of 500 smooth rows (both compacted).
    const uint32_t cells = g < 3 ? 10 : 2;
    const int per_cell = g < 3 ? 12 : 500;
    for (uint32_t c = 0; c < cells; ++c) {
      for (int i = 0; i < per_cell; ++i) {
        const double v =
            g < 3 ? rng.NextLognormal(0.0, 2.0) : rng.NextDouble();
        store.Ingest({g, c}, v);
        rows_by_group[g].push_back(v);
      }
    }
  }
  RouterStats stats;
  const std::vector<double> phis(kPhis, kPhis + 5);
  auto groups =
      GroupByQuantilesCertified(store, {0}, phis, RouterOptions{}, &stats);
  ASSERT_EQ(groups.size(), 4u);
  for (uint32_t g = 0; g < 3; ++g) {
    std::vector<double> sorted = rows_by_group[g];
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(groups[g].answers.size(), phis.size());
    for (size_t i = 0; i < phis.size(); ++i) {
      const CertifiedQuantile& a = groups[g].answers[i];
      EXPECT_EQ(a.backend, QuantileBackend::kKll);
      EXPECT_EQ(a.interval.lower, KllRankRow(sorted, phis[i]));
      EXPECT_EQ(a.interval.upper, KllRankRow(sorted, phis[i]));
      EXPECT_EQ(a.estimate, KllRankRow(sorted, phis[i]));
    }
  }
  EXPECT_EQ(stats.exact_answers, 3 * phis.size());
  EXPECT_EQ(stats.kll_answers, 3 * phis.size());
  EXPECT_EQ(stats.moments_answers, phis.size());
  EXPECT_EQ(stats.solve.warm_solves + stats.solve.cold_solves, 1u);
}

// ------------------------------------------- streaming dual-write

IngestOptions KllIngest() {
  IngestOptions o;
  o.num_shards = 2;
  o.batch_size = 8;
  o.enable_kll = true;
  o.kll_k = 64;
  return o;
}

TEST(StreamingCertifiedTest, EndToEndDualWrite) {
  StreamingCube cube(2, MomentsSummary(10), KllIngest());
  std::map<std::string, std::vector<double>> rows_by_cell;
  const char* cells[] = {"uniform", "two_atom", "near_singular"};
  for (const char* name : cells) {
    const auto data = NamedData(name, 3000);
    for (double v : data) {
      ASSERT_TRUE(cube.AppendRow({name, "all"}, v).ok());
    }
    rows_by_cell[name] = data;
  }
  cube.Flush();

  RouterStats stats;
  for (const char* name : cells) {
    std::vector<double> sorted = rows_by_cell[name];
    std::sort(sorted.begin(), sorted.end());
    Result<CubeFilter> filter = cube.EncodeFilter({name, ""});
    ASSERT_TRUE(filter.ok());
    for (double phi : kPhis) {
      CertifiedQuantile a =
          cube.QueryQuantileCertified(filter.value(), phi, &stats);
      ExpectCertified(a, QuantileOfSorted(sorted, phi),
                      1e-6 * (std::abs(sorted.front()) +
                              std::abs(sorted.back()) + 1.0),
                      std::string(name) + " phi=" + std::to_string(phi));
    }
  }
  EXPECT_EQ(stats.queries, 3 * 5u);

  // Certified GROUP BY over dim 0 sees the same per-cell truths.
  auto groups =
      cube.GroupByQuantilesCertified(std::vector<size_t>{0}, {0.5});
  ASSERT_EQ(groups.size(), 3u);
  for (const auto& g : groups) {
    ASSERT_EQ(g.answers.size(), 1u);
    EXPECT_TRUE(g.answers[0].status.ok());
    EXPECT_TRUE(g.answers[0].certified);
  }

  // An empty selection is the only visible error.
  Result<CubeFilter> none = cube.EncodeFilter({"uniform", "nope"});
  if (none.ok()) {
    CertifiedQuantile a = cube.QueryQuantileCertified(none.value(), 0.5);
    EXPECT_FALSE(a.status.ok());
    EXPECT_FALSE(a.certified);
  }
}

// Four threads repeat certified point queries over a small filter pool
// on one snapshot. They share the solver cache, and every answer is, bit
// for bit, the one a router that always solves gives on that snapshot.
TEST(StreamingCertifiedTest, ConcurrentRepeatedQueriesShareTheCache) {
  StreamingCube cube(2, MomentsSummary(10), KllIngest());
  const char* names[] = {"uniform", "lognormal", "pareto"};
  for (const char* name : names) {
    for (const char* half : {"a", "b"}) {
      for (double v : NamedData(name, 3000)) {
        ASSERT_TRUE(cube.AppendRow({name, half}, v).ok());
      }
    }
  }
  cube.Flush();

  struct Probe {
    CubeFilter filter;
    double phi;
  };
  std::vector<Probe> pool;
  for (const std::vector<std::string>& f :
       std::vector<std::vector<std::string>>{{"uniform", ""},
                                             {"lognormal", "a"},
                                             {"pareto", ""},
                                             {"", "b"}}) {
    Result<CubeFilter> filter = cube.EncodeFilter(f);
    ASSERT_TRUE(filter.ok());
    for (double phi : {0.5, 0.99}) pool.push_back({filter.value(), phi});
  }

  // Reference: the same merges the cube makes, routed without the cache.
  std::shared_ptr<const CubeSnapshot> snap = cube.Snapshot();
  RouterOptions no_cache;
  no_cache.maxent = cube.estimator_options();
  no_cache.maxent.use_solver_cache = false;
  SummaryRouter cold(no_cache);
  std::vector<CertifiedQuantile> ref;
  for (const Probe& p : pool) {
    const MomentsSketch moments = snap->store.QueryWhere(p.filter);
    Result<KllSketch> kll = snap->store.MergeKllWhere(p.filter);
    ASSERT_TRUE(kll.ok());
    ASSERT_GT(kll.value().rank_error_bound(), 0u);  // not the exact path
    ref.push_back(cold.Query(moments, &kll.value(), p.phi));
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 12;
  std::vector<std::vector<std::pair<size_t, CertifiedQuantile>>> got(
      kThreads);
  std::vector<RouterStats> stats(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (size_t j = 0; j < pool.size(); ++j) {
          const size_t k = (j + static_cast<size_t>(t)) % pool.size();
          got[t].emplace_back(k, cube.QueryQuantileCertified(
                                     pool[k].filter, pool[k].phi, &stats[t]));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  RouterStats total;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds * pool.size());
    for (const auto& [k, answer] : got[t]) {
      EXPECT_TRUE(SameAnswer(answer, ref[k]))
          << "thread " << t << " probe " << k << ": " << answer.estimate
          << " vs " << ref[k].estimate;
    }
    total.MergeFrom(stats[t]);
  }
  // Each thread misses a selection at most once; every other query that
  // reaches the solve stage is a hit.
  const uint64_t solves = total.solve.cold_solves + total.solve.warm_solves;
  EXPECT_LE(solves, kThreads * pool.size());
  EXPECT_GT(total.cache_hits, 0u);
}

// --------------------------------- mixed-backend durable recovery

TEST(StreamingCertifiedTest, MixedBackendRecoveryIsBitExact) {
  const std::string dir = MakeTempDir();
  DurabilityOptions durability;
  durability.dir = dir;
  durability.env = Env::Default();
  // Checkpoint at epochs 3 and 6; epoch 7 replays from the WAL — the
  // round-trip exercises both the checkpoint KLL section and the WAL
  // per-cell KLL tag.
  durability.checkpoint_every_epochs = 3;
  // Both cubes solve every query, so the recovered answers are
  // recomputed rather than read back from the solver cache.
  const MomentsSummary prototype(10, NoSolverCache().maxent);

  std::vector<uint8_t> live_fingerprint;
  std::vector<KllSketch> live_klls;
  std::vector<CertifiedQuantile> live_answers;
  const char* cells[] = {"uniform", "two_atom", "pareto_heavy"};
  {
    StreamingCube cube(2, prototype, KllIngest());
    ASSERT_TRUE(cube.EnableDurability(durability).ok());
    Rng rng(99);
    for (int epoch = 0; epoch < 7; ++epoch) {
      for (const char* name : cells) {
        const auto data = NamedData(name, 200 + 37 * epoch);
        for (double v : data) {
          ASSERT_TRUE(
              cube.AppendRow({name, "e" + std::to_string(epoch % 2)}, v).ok());
        }
      }
      cube.Flush();
    }
    std::shared_ptr<const CubeSnapshot> snap = cube.Snapshot();
    ASSERT_EQ(snap->epoch, 7u);
    ASSERT_TRUE(snap->store.kll_enabled());
    BytesWriter w;
    EncodeSketchColumns(snap->store.Columns(), &w);
    live_fingerprint = w.Take();
    for (uint32_t id = 0; id < snap->store.num_cells(); ++id) {
      ASSERT_NE(snap->store.CellKll(id), nullptr);
      live_klls.push_back(*snap->store.CellKll(id));
    }
    for (const char* name : cells) {
      Result<CubeFilter> f = cube.EncodeFilter({name, ""});
      ASSERT_TRUE(f.ok());
      live_answers.push_back(cube.QueryQuantileCertified(f.value(), 0.9));
    }
  }

  RecoveryStats rs;
  auto cube = StreamingCube::Recover(2, prototype, KllIngest(),
                                     durability, &rs);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_TRUE(rs.checkpoint_loaded);
  EXPECT_GT(rs.epochs_replayed, 0u) << "want WAL replay beyond checkpoint";

  std::shared_ptr<const CubeSnapshot> snap = cube.value()->Snapshot();
  EXPECT_EQ(snap->epoch, 7u);
  ASSERT_TRUE(snap->store.kll_enabled());

  // Moments columns identical byte for byte.
  BytesWriter w;
  EncodeSketchColumns(snap->store.Columns(), &w);
  EXPECT_EQ(w.Take(), live_fingerprint);

  // Every cell's KLL recovered bit-exact (coin state included) — the
  // recovered cube will keep making the very same compaction decisions.
  ASSERT_EQ(snap->store.num_cells(), live_klls.size());
  for (uint32_t id = 0; id < snap->store.num_cells(); ++id) {
    ASSERT_NE(snap->store.CellKll(id), nullptr) << "cell " << id;
    EXPECT_TRUE(snap->store.CellKll(id)->IdenticalTo(live_klls[id]))
        << "cell " << id << " KLL diverged through recovery";
  }

  // Certified answers reproduce exactly: same estimate, same interval,
  // same backend.
  for (size_t i = 0; i < 3; ++i) {
    Result<CubeFilter> f = cube.value()->EncodeFilter({cells[i], ""});
    ASSERT_TRUE(f.ok());
    CertifiedQuantile a =
        cube.value()->QueryQuantileCertified(f.value(), 0.9);
    ASSERT_TRUE(a.status.ok());
    EXPECT_EQ(a.estimate, live_answers[i].estimate) << cells[i];
    EXPECT_EQ(a.interval.lower, live_answers[i].interval.lower) << cells[i];
    EXPECT_EQ(a.interval.upper, live_answers[i].interval.upper) << cells[i];
    EXPECT_EQ(a.backend, live_answers[i].backend) << cells[i];
  }
}

}  // namespace
}  // namespace msketch
