#include "sketches/kll_sketch.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"

namespace msketch {
namespace {

double TrueQuantile(std::vector<double> xs, double phi) {
  std::sort(xs.begin(), xs.end());
  size_t r = static_cast<size_t>(
      std::ceil(phi * static_cast<double>(xs.size())));
  r = std::max<size_t>(1, std::min(r, xs.size()));
  return xs[r - 1];
}

std::vector<double> Uniform(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.NextDouble();
  return xs;
}

TEST(KllSketchTest, EmptyBehaviors) {
  KllSketch s(100);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.rank_error_bound(), 0u);
  EXPECT_FALSE(s.EstimateQuantile(0.5).ok());
  EXPECT_FALSE(s.CertifiedInterval(0.5).ok());
  // Merging an empty sketch into an empty sketch stays empty and valid.
  KllSketch t(100);
  ASSERT_TRUE(s.Merge(t).ok());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_FALSE(s.EstimateQuantile(0.5).ok());
}

TEST(KllSketchTest, SmallStreamIsExact) {
  // Below capacity nothing compacts: zero certified error, exact answers.
  KllSketch s(128);
  std::vector<double> xs = Uniform(100, 7);
  for (double x : xs) s.Accumulate(x);
  EXPECT_EQ(s.rank_error_bound(), 0u);
  for (double phi : {0.01, 0.1, 0.5, 0.9, 0.99}) {
    const double truth = TrueQuantile(xs, phi);
    auto est = s.EstimateQuantile(phi);
    ASSERT_TRUE(est.ok());
    EXPECT_DOUBLE_EQ(*est, truth);
    auto iv = s.CertifiedInterval(phi);
    ASSERT_TRUE(iv.ok());
    EXPECT_DOUBLE_EQ(iv->lower, truth);
    EXPECT_DOUBLE_EQ(iv->upper, truth);
  }
}

TEST(KllSketchTest, CertifiedIntervalContainsTruth) {
  const size_t kN = 200000;
  std::vector<double> xs = Uniform(kN, 13);
  KllSketch s(200);
  s.AccumulateBatch(xs.data(), xs.size());
  EXPECT_EQ(s.count(), kN);
  // Certified epsilon should be in the designed ballpark, not degenerate.
  EXPECT_GT(s.rank_error_bound(), 0u);
  EXPECT_LT(s.epsilon(), 0.10);
  for (double phi : {0.001, 0.01, 0.25, 0.5, 0.75, 0.99, 0.999}) {
    const double truth = TrueQuantile(xs, phi);
    auto iv = s.CertifiedInterval(phi);
    ASSERT_TRUE(iv.ok());
    EXPECT_LE(iv->lower, truth) << "phi=" << phi;
    EXPECT_GE(iv->upper, truth) << "phi=" << phi;
    auto est = s.EstimateQuantile(phi);
    ASSERT_TRUE(est.ok());
    EXPECT_GE(*est, iv->lower);
    EXPECT_LE(*est, iv->upper);
  }
}

TEST(KllSketchTest, CertifiedIntervalOnAtomicData) {
  // Two atoms: every certified interval must snap to one of them.
  KllSketch s(64);
  for (int i = 0; i < 50000; ++i) s.Accumulate(i % 2 == 0 ? 1.0 : 5.0);
  auto lo = s.CertifiedInterval(0.25);
  ASSERT_TRUE(lo.ok());
  EXPECT_DOUBLE_EQ(lo->lower, 1.0);
  EXPECT_LE(lo->upper, 5.0);
  auto hi = s.CertifiedInterval(0.95);
  ASSERT_TRUE(hi.ok());
  EXPECT_DOUBLE_EQ(hi->upper, 5.0);
  auto mono = s.EstimateQuantile(0.95);
  ASSERT_TRUE(mono.ok());
  EXPECT_DOUBLE_EQ(*mono, 5.0);
}

TEST(KllSketchTest, MergeMatchesConcatenatedCertificate) {
  std::vector<double> a = Uniform(60000, 1), b = Uniform(60000, 2);
  KllSketch sa(200), sb(200);
  sa.AccumulateBatch(a.data(), a.size());
  sb.AccumulateBatch(b.data(), b.size());
  const uint64_t err_before = sa.rank_error_bound() + sb.rank_error_bound();
  ASSERT_TRUE(sa.Merge(sb).ok());
  EXPECT_EQ(sa.count(), 120000u);
  EXPECT_GE(sa.rank_error_bound(), err_before);

  std::vector<double> all = a;
  all.insert(all.end(), b.begin(), b.end());
  for (double phi : {0.05, 0.5, 0.95}) {
    const double truth = TrueQuantile(all, phi);
    auto iv = sa.CertifiedInterval(phi);
    ASSERT_TRUE(iv.ok());
    EXPECT_LE(iv->lower, truth);
    EXPECT_GE(iv->upper, truth);
  }
}

TEST(KllSketchTest, MergeKMismatchRejected) {
  KllSketch a(64), b(128);
  b.Accumulate(1.0);
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(KllSketchTest, SelfMergeIsSafeAndDoubles) {
  std::vector<double> xs = Uniform(30000, 5);
  KllSketch s(128);
  s.AccumulateBatch(xs.data(), xs.size());
  KllSketch copy = s;
  ASSERT_TRUE(s.Merge(s).ok());
  EXPECT_EQ(s.count(), 2 * copy.count());
  // Same multiset => same quantiles (within the doubled certificate).
  for (double phi : {0.1, 0.5, 0.9}) {
    const double truth = TrueQuantile(xs, phi);
    auto iv = s.CertifiedInterval(phi);
    ASSERT_TRUE(iv.ok());
    EXPECT_LE(iv->lower, truth);
    EXPECT_GE(iv->upper, truth);
  }
}

TEST(KllSketchTest, SerializeRoundTripsBitExact) {
  std::vector<double> xs = Uniform(100000, 11);
  KllSketch s(200);
  s.AccumulateBatch(xs.data(), xs.size());
  BytesWriter w;
  s.Serialize(&w);
  const std::vector<uint8_t> bytes = w.Take();
  BytesReader r(bytes);
  auto back = KllSketch::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(s.IdenticalTo(*back));
  // And the round-tripped sketch keeps evolving identically.
  KllSketch s2 = std::move(back).value();
  for (int i = 0; i < 5000; ++i) {
    s.Accumulate(static_cast<double>(i));
    s2.Accumulate(static_cast<double>(i));
  }
  EXPECT_TRUE(s.IdenticalTo(s2));
}

// A well-formed image (the bytes a writer would frame under a valid CRC)
// whose header and levels may disagree.
std::vector<uint8_t> KllImage(uint64_t n, uint64_t err,
                              const std::vector<std::vector<double>>& levels) {
  BytesWriter w;
  w.PutU32(64);
  w.PutU64(n);
  w.PutU64(err);
  w.PutU64(0);
  w.PutDouble(0.0);
  w.PutDouble(1.0);
  w.PutU32(static_cast<uint32_t>(levels.size()));
  for (const auto& level : levels) w.PutDoubles(level);
  return w.Take();
}

TEST(KllSketchTest, DeserializeRejectsGarbage) {
  std::vector<uint8_t> junk(16, 0xAB);
  BytesReader r(junk);
  EXPECT_FALSE(KllSketch::Deserialize(&r).ok());

  // Lying images: CRC framing cannot catch them, the decoder must. The
  // exact-answer path reads rank_error_bound() == 0 as "every row is at
  // level 0", so both invariants behind that reading are checked.
  std::vector<std::vector<double>> top_heavy(64);
  top_heavy[63] = {0.5, 0.6};
  const std::vector<std::pair<const char*, std::vector<uint8_t>>> lies = {
      // Weighted retained count (sum of 2^h * |level h|) short of n.
      {"count above retained", KllImage(5, 0, {{0.1, 0.2, 0.3}})},
      // Fewer items than n, but their weights overshoot it.
      {"weights above count", KllImage(10, 4, {{0.1}, {}, {0.2, 0.3, 0.4}})},
      // Two items at level 63 weigh 2^64, which would wrap to n = 0.
      {"weight overflow", KllImage(0, 1, top_heavy)},
      // Consistent weights, but a zero error bound with a compacted item.
      {"compacted item with zero error", KllImage(4, 0, {{0.1, 0.2}, {0.3}})},
  };
  for (const auto& [what, bytes] : lies) {
    BytesReader lr(bytes);
    EXPECT_FALSE(KllSketch::Deserialize(&lr).ok()) << what;
  }
  // The same shapes with consistent headers decode.
  for (const auto& bytes : {KllImage(3, 0, {{0.1, 0.2, 0.3}}),
                            KllImage(4, 2, {{0.1, 0.2}, {0.3}})}) {
    BytesReader ok(bytes);
    EXPECT_TRUE(KllSketch::Deserialize(&ok).ok());
  }
}

TEST(KllSketchTest, DeterministicAcrossRuns) {
  std::vector<double> xs = Uniform(50000, 3);
  KllSketch a(100), b(100);
  a.AccumulateBatch(xs.data(), xs.size());
  b.AccumulateBatch(xs.data(), xs.size());
  EXPECT_TRUE(a.IdenticalTo(b));
}

TEST(KllSketchTest, RankBoundsHoldDeterministically) {
  // The tracked bound must dominate the realized rank error at every
  // retained value — this is the soundness invariant the router's
  // certificates rest on.
  std::vector<double> xs = Uniform(80000, 17);
  KllSketch s(100);
  s.AccumulateBatch(xs.data(), xs.size());
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.05, 0.2, 0.4, 0.6, 0.8, 0.95}) {
    const double v = sorted[static_cast<size_t>(q * sorted.size())];
    const uint64_t truth = static_cast<uint64_t>(
        std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
    const uint64_t est = s.RankBelow(v);
    const uint64_t diff = est > truth ? est - truth : truth - est;
    EXPECT_LE(diff, s.rank_error_bound()) << "q=" << q;
  }
}

}  // namespace
}  // namespace msketch
