// MacroBase subgroup search, turnstile sliding windows, parallel merging.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/cascade.h"
#include "core/maxent_solver.h"
#include "core/moments_summary.h"
#include "macrobase/macrobase.h"
#include "parallel/parallel_merge.h"
#include "sketches/buffer_hierarchy.h"
#include "window/sliding_window.h"

namespace msketch {
namespace {

// ------------------------------------------------------------ MacroBase

// Cube with a planted anomalous subgroup: dimension 0 value 7 has values
// ~50x larger than everything else.
// Dimension 0 has 100 values so the planted anomaly (value 7) holds ~1%
// of rows; its values are ~50x larger, making its q70 exceed the global
// q99 (the paper's 30x-outlier-rate setup needs the anomalous group to be
// a small fraction of the population).
DataCube<MomentsSummary> PlantedCube() {
  DataCube<MomentsSummary> cube(2, MomentsSummary(10));
  Rng rng(71);
  for (int i = 0; i < 60000; ++i) {
    CubeCoords coords = {static_cast<uint32_t>(rng.NextBelow(100)),
                         static_cast<uint32_t>(rng.NextBelow(5))};
    double v = rng.NextLognormal(0.0, 0.5);
    if (coords[0] == 7) v *= 50.0;
    cube.Ingest(coords, v);
  }
  return cube;
}

TEST(MacroBaseTest, FindsPlantedSubgroup) {
  auto cube = PlantedCube();
  MacroBaseOptions options;
  auto report = FindAnomalousSubgroups(cube, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Every examined grouping: 10 + 5 groups.
  EXPECT_EQ(report->groups_examined, 105u);
  ASSERT_EQ(report->flagged.size(), 1u);
  EXPECT_EQ(report->flagged[0].dims, std::vector<size_t>{0});
  EXPECT_EQ(report->flagged[0].values[0], 7u);
  EXPECT_GT(report->global_threshold, 0.0);
}

TEST(MacroBaseTest, PairSearchIncludesPlantedPairs) {
  auto cube = PlantedCube();
  MacroBaseOptions options;
  options.include_pairs = true;
  auto report = FindAnomalousSubgroups(cube, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->groups_examined, 105u + 500u);
  // The planted value appears alone and in 5 pairs.
  EXPECT_EQ(report->flagged.size(), 6u);
}

TEST(MacroBaseTest, CascadeResolvesMostGroupsEarly) {
  auto cube = PlantedCube();
  MacroBaseOptions options;
  auto report = FindAnomalousSubgroups(cube, options);
  ASSERT_TRUE(report.ok());
  const auto& st = report->cascade_stats;
  EXPECT_EQ(st.total, report->groups_examined);
  // Most groups should resolve before the maxent stage (Figure 13c).
  EXPECT_GT(st.resolved_simple + st.resolved_markov + st.resolved_rtt,
            st.resolved_maxent);
}

TEST(MacroBaseTest, DisabledCascadeStillCorrect) {
  auto cube = PlantedCube();
  MacroBaseOptions all_stages;
  MacroBaseOptions no_cascade;
  no_cascade.cascade.use_simple_check = false;
  no_cascade.cascade.use_markov = false;
  no_cascade.cascade.use_rtt = false;
  auto fast = FindAnomalousSubgroups(cube, all_stages);
  auto slow = FindAnomalousSubgroups(cube, no_cascade);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  // Same flagged set regardless of cascade configuration.
  ASSERT_EQ(fast->flagged.size(), slow->flagged.size());
  for (size_t i = 0; i < fast->flagged.size(); ++i) {
    EXPECT_EQ(fast->flagged[i].values, slow->flagged[i].values);
  }
  EXPECT_EQ(slow->cascade_stats.resolved_maxent, slow->groups_examined);
}

TEST(MacroBaseTest, EmptyCubeRejected) {
  DataCube<MomentsSummary> cube(1, MomentsSummary(10));
  EXPECT_FALSE(FindAnomalousSubgroups(cube, {}).ok());
}

// -------------------------------------------------------------- Window

MomentsSketch MakePane(Rng* rng, double scale, int n = 500) {
  MomentsSketch pane(10);
  for (int i = 0; i < n; ++i) {
    pane.Accumulate(scale * rng->NextLognormal(0.0, 0.8));
  }
  return pane;
}

// Turnstile correctness: the window aggregate equals a from-scratch merge
// of the panes currently in the window.
TEST(SlidingWindowTest, TurnstileMatchesRemerge) {
  Rng rng(72);
  const size_t w = 6;
  TurnstileWindow window(10, w);
  std::vector<MomentsSketch> history;
  for (int step = 0; step < 40; ++step) {
    MomentsSketch pane = MakePane(&rng, 1.0 + 0.1 * (step % 7));
    history.push_back(pane);
    ASSERT_TRUE(window.PushPane(pane).ok());
    if (!window.Full()) continue;

    MomentsSketch expect(10);
    for (size_t i = history.size() - w; i < history.size(); ++i) {
      ASSERT_TRUE(expect.Merge(history[i]).ok());
    }
    const MomentsSketch& got = window.Current();
    EXPECT_EQ(got.count(), expect.count());
    EXPECT_DOUBLE_EQ(got.min(), expect.min());
    EXPECT_DOUBLE_EQ(got.max(), expect.max());
    for (int i = 0; i < 10; ++i) {
      EXPECT_NEAR(got.power_sums()[i], expect.power_sums()[i],
                  1e-6 * std::max(1.0, std::fabs(expect.power_sums()[i])))
          << "step=" << step << " moment=" << i;
    }
  }
}

TEST(SlidingWindowTest, TurnstileQuantilesUsable) {
  Rng rng(73);
  TurnstileWindow window(10, 4);
  for (int step = 0; step < 10; ++step) {
    ASSERT_TRUE(window.PushPane(MakePane(&rng, 1.0)).ok());
  }
  ASSERT_TRUE(window.Full());
  auto dist = SolveMaxEnt(window.Current());
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  const double q50 = dist->Quantile(0.5);
  // Median of LN(0, 0.8) is 1.
  EXPECT_NEAR(q50, 1.0, 0.15);
}

TEST(SlidingWindowTest, RemergeWindowMatchesTurnstile) {
  Rng rng(74);
  const size_t w = 5;
  TurnstileWindow turnstile(10, w);
  RemergeWindow<MomentsSketch> remerge(MomentsSketch(10), w);
  for (int step = 0; step < 20; ++step) {
    MomentsSketch pane = MakePane(&rng, 1.0 + 0.05 * step);
    ASSERT_TRUE(turnstile.PushPane(pane).ok());
    remerge.PushPane(pane);
  }
  MomentsSketch a = remerge.Current();
  const MomentsSketch& b = turnstile.Current();
  EXPECT_EQ(a.count(), b.count());
  EXPECT_NEAR(a.power_sums()[3], b.power_sums()[3],
              1e-6 * std::fabs(a.power_sums()[3]));
}

TEST(SlidingWindowTest, DetectsInjectedSpike) {
  // Mirror of the Section 7.2.2 workload: spike panes inject an atom at
  // 2000 (1-12% of window mass) and must flip the window threshold
  // predicate. The decision goes through the cascade as in the paper's
  // workflow — a raw maxent estimate smears boundary atoms (exactly the
  // discrete-data weakness of Section 6.2.3), but the RTT bounds resolve
  // the threshold from the moments alone.
  Rng rng(75);
  TurnstileWindow window(10, 4);
  ThresholdCascade cascade;
  std::vector<bool> alerts;
  for (int step = 0; step < 60; ++step) {
    const bool spike = (step >= 30 && step < 34);
    MomentsSketch pane = MakePane(&rng, 1.0);
    if (spike) {
      for (int i = 0; i < 60; ++i) pane.Accumulate(2000.0);
    }
    ASSERT_TRUE(window.PushPane(pane).ok());
    if (!window.Full()) continue;
    alerts.push_back(cascade.Threshold(window.Current(), 0.99, 1500.0));
  }
  // Alerts fired, and only in windows overlapping the spike panes
  // (windows ending at steps 30..36 inclusive -> alert indices 27..33).
  int fired = 0;
  for (size_t i = 0; i < alerts.size(); ++i) {
    fired += alerts[i] ? 1 : 0;
    if (i < 27 || i > 33) {
      EXPECT_FALSE(alerts[i]) << "false alert at window " << i;
    }
  }
  EXPECT_GE(fired, 2);
  EXPECT_LE(fired, 7);
}

// An empty pane whose tracked range is stale (real-looking numbers left
// over from subtraction / SetRange) contributes no data and must not
// poison the window extrema.
TEST(SlidingWindowTest, EmptyPaneStaleRangeDoesNotPoisonExtrema) {
  TurnstileWindow window(10, 4);
  MomentsSketch empty(10);
  empty.SetRange(-500.0, 9000.0);  // stale, no data behind it
  ASSERT_TRUE(window.PushPane(empty).ok());
  MomentsSketch data(10);
  for (int i = 0; i < 100; ++i) data.Accumulate(2.0 + (i % 5));
  ASSERT_TRUE(window.PushPane(data).ok());
  EXPECT_DOUBLE_EQ(window.Current().min(), 2.0);
  EXPECT_DOUBLE_EQ(window.Current().max(), 6.0);
}

TEST(SlidingWindowTest, PushPaneReportsMismatchedOrder) {
  TurnstileWindow turnstile(10, 4);
  MomentsSketch wrong(6);
  wrong.Accumulate(1.0);
  EXPECT_FALSE(turnstile.PushPane(wrong).ok());
  // The failed push left the window usable.
  MomentsSketch good(10);
  good.Accumulate(3.0);
  EXPECT_TRUE(turnstile.PushPane(good).ok());
  EXPECT_EQ(turnstile.Current().count(), 1u);
}

// ------------------------------------------------------------- Parallel

TEST(ParallelMergeTest, MatchesSequential) {
  Rng rng(76);
  std::vector<MomentsSketch> parts;
  for (int p = 0; p < 257; ++p) {
    MomentsSketch s(10);
    for (int i = 0; i < 100; ++i) s.Accumulate(rng.NextLognormal(0.0, 1.0));
    parts.push_back(std::move(s));
  }
  MomentsSketch seq = ParallelMerge(parts, 1);
  for (int threads : {2, 4, 8}) {
    MomentsSketch par = ParallelMerge(parts, threads);
    EXPECT_EQ(par.count(), seq.count()) << threads;
    EXPECT_DOUBLE_EQ(par.min(), seq.min());
    EXPECT_DOUBLE_EQ(par.max(), seq.max());
    for (int i = 0; i < 10; ++i) {
      EXPECT_NEAR(par.power_sums()[i], seq.power_sums()[i],
                  1e-9 * std::fabs(seq.power_sums()[i]))
          << "threads=" << threads;
    }
  }
}

TEST(ParallelMergeTest, WorksWithBaselineSummaries) {
  Rng rng(77);
  std::vector<BufferHierarchySketch> parts;
  for (int p = 0; p < 64; ++p) {
    auto s = MakeMerge12(32, 100 + p);
    for (int i = 0; i < 200; ++i) s.Accumulate(rng.NextGaussian());
    parts.push_back(std::move(s));
  }
  auto merged = ParallelMerge(parts, 4);
  EXPECT_EQ(merged.count(), 64u * 200u);
  auto q = merged.EstimateQuantile(0.5);
  ASSERT_TRUE(q.ok());
  EXPECT_NEAR(q.value(), 0.0, 0.1);
}

// Columnar parallel merge over cell-id ranges must match the sequential
// columnar merge *exactly*. Data is crafted so all column sums are exact
// (negative eighths: |x| <= 1, no log accumulation, power sums are
// multiples of 2^-30 well within 53 bits), so re-association across
// thread shards cannot change any bit.
TEST(ParallelMergeTest, ColumnarRangeMergeMatchesSequentialExactly) {
  CubeStore store(2, 10);
  Rng rng(80);
  for (int i = 0; i < 12000; ++i) {
    CubeCoords c = {static_cast<uint32_t>(rng.NextBelow(40)),
                    static_cast<uint32_t>(rng.NextBelow(16))};
    store.Ingest(c, -static_cast<double>(1 + rng.NextBelow(8)) / 8.0);
  }
  const FlatMomentColumns cols = store.Columns();
  MomentsSketch seq = store.MergeRange(0, store.num_cells());
  for (int threads : {2, 4, 8}) {
    MomentsSketch par =
        ParallelMergeRange(cols, 0, store.num_cells(), threads);
    EXPECT_TRUE(par.IdenticalTo(seq)) << "threads=" << threads;
  }
  // Id-list variant over a filtered selection.
  std::vector<uint32_t> ids = store.MatchingCells({kAnyValue, 3});
  ASSERT_GT(ids.size(), 16u);
  MomentsSketch seq_ids = store.MergeCells(ids.data(), ids.size());
  for (int threads : {2, 4, 8}) {
    MomentsSketch par =
        ParallelMergeCells(cols, ids.data(), ids.size(), threads);
    EXPECT_TRUE(par.IdenticalTo(seq_ids)) << "threads=" << threads;
  }
}

TEST(ParallelMergeTest, FewPartsFallsBackToSequential) {
  std::vector<MomentsSketch> parts(3, MomentsSketch(4));
  for (auto& p : parts) p.Accumulate(1.0);
  MomentsSketch merged = ParallelMerge(parts, 8);
  EXPECT_EQ(merged.count(), 3u);
}

}  // namespace
}  // namespace msketch
