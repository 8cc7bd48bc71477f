#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "core/compressed_sketch.h"
#include "core/moments_summary.h"
#include "cube/batch_query.h"
#include "cube/cube_store.h"
#include "cube/data_cube.h"
#include "cube/dictionary.h"
#include "cube/dim_index.h"
#include "cube/summary_router.h"
#include "datasets/datasets.h"
#include "ingest/streaming_cube.h"
#include "numerics/stats.h"
#include "sketches/exact_sketch.h"
#include "sketches/kll_sketch.h"

namespace msketch {
namespace {

// Builds a 3-dim cube (4 x 3 x 2 coordinate space) over synthetic data.
// Values in cell (a, b, c) are drawn around a cell-specific location so
// filters have distinguishable quantiles.
template <typename Summary>
DataCube<Summary> BuildCube(Summary prototype, std::vector<double>* rows,
                            std::vector<CubeCoords>* coords_out = nullptr) {
  DataCube<Summary> cube(3, std::move(prototype));
  Rng rng(91);
  for (int i = 0; i < 30000; ++i) {
    CubeCoords coords = {static_cast<uint32_t>(rng.NextBelow(4)),
                         static_cast<uint32_t>(rng.NextBelow(3)),
                         static_cast<uint32_t>(rng.NextBelow(2))};
    const double base = 10.0 * coords[0] + 3.0 * coords[1] + coords[2];
    const double v = base + rng.NextLognormal(0.0, 0.5);
    cube.Ingest(coords, v);
    rows->push_back(v);
    if (coords_out != nullptr) coords_out->push_back(coords);
  }
  return cube;
}

TEST(DataCubeTest, CellAndRowAccounting) {
  std::vector<double> rows;
  auto cube = BuildCube(ExactSketch(), &rows);
  EXPECT_EQ(cube.num_rows(), 30000u);
  EXPECT_EQ(cube.num_cells(), 4u * 3u * 2u);
  EXPECT_EQ(cube.MergeAll().count(), 30000u);
}

TEST(DataCubeTest, FilteredMergeMatchesBruteForce) {
  std::vector<double> rows;
  std::vector<CubeCoords> coords;
  auto cube = BuildCube(ExactSketch(), &rows, &coords);
  CubeFilter filter = {2, kAnyValue, kAnyValue};
  ExactSketch merged = cube.MergeWhere(filter);
  // Brute force.
  std::vector<double> expect;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (coords[i][0] == 2) expect.push_back(rows[i]);
  }
  EXPECT_EQ(merged.count(), expect.size());
  std::sort(expect.begin(), expect.end());
  auto q = merged.EstimateQuantile(0.5);
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q.value(), QuantileOfSorted(expect, 0.5));
}

TEST(DataCubeTest, SumMatchesBruteForce) {
  std::vector<double> rows;
  std::vector<CubeCoords> coords;
  auto cube = BuildCube(ExactSketch(), &rows, &coords);
  CubeFilter filter = {kAnyValue, 1, kAnyValue};
  double expect = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (coords[i][1] == 1) expect += rows[i];
  }
  EXPECT_NEAR(cube.SumWhere(filter), expect, 1e-6 * std::fabs(expect));
}

TEST(DataCubeTest, QuantileQueryWithMomentsSummary) {
  std::vector<double> rows;
  std::vector<CubeCoords> coords;
  auto cube = BuildCube(MomentsSummary(10), &rows, &coords);
  CubeFilter filter = {3, kAnyValue, kAnyValue};
  auto q = cube.QueryQuantile(filter, 0.9);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<double> expect;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (coords[i][0] == 3) expect.push_back(rows[i]);
  }
  std::sort(expect.begin(), expect.end());
  EXPECT_LE(QuantileError(expect, 0.9, q.value()), 0.02);
}

TEST(DataCubeTest, MergeCountReported) {
  std::vector<double> rows;
  auto cube = BuildCube(ExactSketch(), &rows);
  uint64_t merges = 0;
  cube.MergeWhere({kAnyValue, kAnyValue, 0}, &merges);
  EXPECT_EQ(merges, 4u * 3u);
}

TEST(DataCubeTest, GroupByCoversAllGroups) {
  std::vector<double> rows;
  auto cube = BuildCube(ExactSketch(), &rows);
  size_t groups = 0;
  uint64_t total = 0;
  cube.ForEachGroup({0}, [&](const CubeCoords& key,
                             const ExactSketch& summary) {
    ASSERT_EQ(key.size(), 1u);
    ++groups;
    total += summary.count();
  });
  EXPECT_EQ(groups, 4u);
  EXPECT_EQ(total, 30000u);
}

TEST(DataCubeTest, GroupByPairs) {
  std::vector<double> rows;
  auto cube = BuildCube(ExactSketch(), &rows);
  size_t groups = 0;
  cube.ForEachGroup({1, 2}, [&](const CubeCoords& key, const ExactSketch&) {
    ASSERT_EQ(key.size(), 2u);
    ++groups;
  });
  EXPECT_EQ(groups, 3u * 2u);
}

TEST(DataCubeTest, EmptySelectionRejected) {
  DataCube<ExactSketch> cube(2, ExactSketch());
  cube.Ingest({0, 0}, 1.0);
  auto q = cube.QueryQuantile({1, 1}, 0.5);
  EXPECT_FALSE(q.ok());
}

// --------------------------------------------------- columnar CubeStore

// Store plus a parallel object-per-cell shadow (cell id order preserved),
// so columnar results can be checked bit-for-bit against per-object
// merges performed in the same cell order.
struct ShadowedStore {
  CubeStore store;
  std::vector<MomentsSketch> cells;  // indexed by cell id
  std::vector<CubeCoords> coords;    // one entry per row
  std::vector<double> rows;

  ShadowedStore(size_t dims, int k) : store(dims, k) {}

  void Ingest(const CubeCoords& c, double v) {
    const uint32_t id = store.Ingest(c, v);
    if (id == cells.size()) cells.emplace_back(store.k());
    cells[id].Accumulate(v);
    coords.push_back(c);
    rows.push_back(v);
  }
};

ShadowedStore BuildShadowedStore(uint64_t seed, int num_rows,
                                 const std::vector<uint32_t>& cards) {
  ShadowedStore s(cards.size(), 10);
  Rng rng(seed);
  for (int i = 0; i < num_rows; ++i) {
    CubeCoords c;
    c.reserve(cards.size());
    for (uint32_t card : cards) {
      c.push_back(static_cast<uint32_t>(rng.NextBelow(card)));
    }
    s.Ingest(c, rng.NextLognormal(0.0, 0.7));
  }
  return s;
}

TEST(CubeStoreTest, CellSketchMatchesObjectAccumulation) {
  auto s = BuildShadowedStore(101, 5000, {5, 4});
  ASSERT_EQ(s.store.num_cells(), s.cells.size());
  for (uint32_t id = 0; id < s.store.num_cells(); ++id) {
    // Column state was built by the same accumulation recurrence in the
    // same row order, so reconstruction is bit-identical.
    EXPECT_TRUE(s.store.CellSketch(id).IdenticalTo(s.cells[id])) << id;
  }
}

TEST(CubeStoreTest, ColumnarMergeBitIdenticalToObjectMerge) {
  auto s = BuildShadowedStore(102, 20000, {6, 5, 3});
  const CubeFilter filters[] = {
      {kAnyValue, kAnyValue, kAnyValue},
      {2, kAnyValue, kAnyValue},
      {kAnyValue, 4, 1},
      {5, 0, 2},
  };
  for (const CubeFilter& filter : filters) {
    MomentsSketch columnar = s.store.MergeWhere(filter);
    // Object path in the same ascending cell-id order.
    MomentsSketch object(10);
    for (uint32_t id = 0; id < s.store.num_cells(); ++id) {
      if (!FilterMatches(s.store.CoordsOf(id), filter)) continue;
      ASSERT_TRUE(object.Merge(s.cells[id]).ok());
    }
    EXPECT_TRUE(columnar.IdenticalTo(object));
  }
}

// Property test: across random filters (including unconstrained and
// empty-result ones), the indexed path is bit-identical to the full-scan
// path — both visit matching cells in ascending cell-id order.
TEST(CubeStoreTest, IndexedMergeIdenticalToScanAcrossRandomFilters) {
  auto s = BuildShadowedStore(103, 30000, {12, 7, 5});
  Rng rng(104);
  for (int trial = 0; trial < 200; ++trial) {
    CubeFilter filter(3, kAnyValue);
    for (size_t d = 0; d < filter.size(); ++d) {
      // ~half the dims constrained; occasionally to an unseen value.
      if (rng.NextBelow(2) == 0) {
        filter[d] = static_cast<int64_t>(rng.NextBelow(14));
      }
    }
    CubeStore::QueryStats indexed_stats, scan_stats;
    MomentsSketch indexed = s.store.MergeWhere(filter, &indexed_stats);
    MomentsSketch scanned = s.store.MergeWhereScan(filter, &scan_stats);
    EXPECT_TRUE(indexed.IdenticalTo(scanned)) << "trial " << trial;
    EXPECT_EQ(indexed_stats.merges, scan_stats.merges);
    // The index visits exactly the matching cells; the scan visits all.
    EXPECT_EQ(indexed_stats.visited, indexed_stats.merges);
    EXPECT_EQ(scan_stats.visited, s.store.num_cells());
  }
}

// Acceptance: a selective filter's work is proportional to matching
// cells only, verified through the merges/visited counters.
TEST(CubeStoreTest, SelectiveFilterMergesOnlyMatchingCells) {
  // 2048 potential cells; a fully-pinned filter matches exactly 1
  // (<1% of cells).
  auto s = BuildShadowedStore(105, 60000, {16, 16, 8});
  ASSERT_GT(s.store.num_cells(), 1000u);
  const CubeFilter filter = {3, 9, 4};
  uint64_t expect_matches = 0;
  for (uint32_t id = 0; id < s.store.num_cells(); ++id) {
    if (FilterMatches(s.store.CoordsOf(id), filter)) ++expect_matches;
  }
  ASSERT_GE(expect_matches, 1u);
  ASSERT_LE(expect_matches * 100, s.store.num_cells());  // <= 1% of cells
  CubeStore::QueryStats stats;
  MomentsSketch merged = s.store.MergeWhere(filter, &stats);
  EXPECT_EQ(stats.merges, expect_matches);
  EXPECT_EQ(stats.visited, expect_matches);
  EXPECT_GT(merged.count(), 0u);
}

TEST(CubeStoreTest, SumWhereMatchesBruteForce) {
  auto s = BuildShadowedStore(106, 10000, {4, 3});
  const CubeFilter filter = {2, kAnyValue};
  double expect = 0.0;
  for (size_t i = 0; i < s.rows.size(); ++i) {
    if (s.coords[i][0] == 2) expect += s.rows[i];
  }
  EXPECT_NEAR(s.store.SumWhere(filter), expect, 1e-9 * std::fabs(expect));
}

TEST(CubeStoreTest, UnseenFilterValueYieldsEmptySketch) {
  auto s = BuildShadowedStore(107, 1000, {3, 3});
  CubeStore::QueryStats stats;
  MomentsSketch merged = s.store.MergeWhere({999, kAnyValue}, &stats);
  EXPECT_EQ(merged.count(), 0u);
  EXPECT_EQ(stats.merges, 0u);
  EXPECT_EQ(stats.visited, 0u);
}

TEST(CubeStoreTest, SparseAndExtremeValueIdsIndexCheaply) {
  // Value ids need not be dense: the postings map must cost memory per
  // distinct value, and UINT32_MAX must not wrap the index.
  CubeStore store(2, 4);
  store.Ingest({0xFFFFFFFFu, 1'000'000'000u}, 2.0);
  store.Ingest({0xFFFFFFFFu, 7u}, 3.0);
  store.Ingest({5u, 1'000'000'000u}, 4.0);
  EXPECT_EQ(store.num_cells(), 3u);
  CubeStore::QueryStats stats;
  MomentsSketch m = store.MergeWhere(
      {static_cast<int64_t>(0xFFFFFFFFu), kAnyValue}, &stats);
  EXPECT_EQ(m.count(), 2u);
  EXPECT_EQ(stats.merges, 2u);
  MomentsSketch scan = store.MergeWhereScan(
      {static_cast<int64_t>(0xFFFFFFFFu), kAnyValue});
  EXPECT_TRUE(m.IdenticalTo(scan));
  EXPECT_EQ(store.MergeWhere({kAnyValue, 1'000'000'000}).count(), 2u);
}

TEST(CubeStoreTest, CopiedStoreReadsItsOwnColumns) {
  auto original = std::make_unique<CubeStore>(2, 6);
  Rng rng(108);
  for (int i = 0; i < 2000; ++i) {
    original->Ingest({static_cast<uint32_t>(rng.NextBelow(8)),
                      static_cast<uint32_t>(rng.NextBelow(4))},
                     rng.NextLognormal(0.0, 0.5));
  }
  CubeStore copy = *original;
  MomentsSketch before = original->MergeAll();
  // Mutate the original (may reallocate its columns), then destroy it:
  // the copy must keep answering from its own buffers.
  for (int i = 0; i < 500; ++i) original->Ingest({9, 9}, 1.0);
  original.reset();
  EXPECT_TRUE(copy.MergeAll().IdenticalTo(before));
  // Ingest into the copy for an existing cell, then query again.
  copy.Ingest({0, 0}, 2.0);
  EXPECT_EQ(copy.MergeAll().count(), before.count() + 1);
  // Copy assignment too.
  CubeStore assigned(2, 6);
  assigned = copy;
  EXPECT_TRUE(assigned.MergeAll().IdenticalTo(copy.MergeAll()));
}

TEST(CubeStoreTest, OutOfRangeFilterValuesMatchNothing) {
  CubeStore store(2, 4);
  store.Ingest({0u, 0xFFFFFFFEu}, 1.0);
  store.Ingest({1u, 2u}, 2.0);
  // -2 would truncate to 0xFFFFFFFE, 2^32 to 0 — both must match nothing
  // on the indexed and the scan path alike.
  for (const CubeFilter& filter :
       {CubeFilter{kAnyValue, -2}, CubeFilter{4294967296ll, kAnyValue}}) {
    EXPECT_EQ(store.MergeWhere(filter).count(), 0u);
    EXPECT_EQ(store.MergeWhereScan(filter).count(), 0u);
    EXPECT_EQ(store.SumWhere(filter), 0.0);
  }
}

TEST(DimIndexTest, PostingsAndIntersection) {
  DimIndex a, b;
  // Dim a: value 0 -> {0, 2, 4}; value 1 -> {1, 3}.
  a.Add(0, 0);
  a.Add(1, 1);
  a.Add(0, 2);
  a.Add(1, 3);
  a.Add(0, 4);
  // Dim b: value 7 -> {2, 3, 4}.
  b.Add(7, 2);
  b.Add(7, 3);
  b.Add(7, 4);
  EXPECT_EQ(a.Postings(0), (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_TRUE(a.Postings(99).empty());
  auto both = IntersectPostings({&a.Postings(0), &b.Postings(7)});
  EXPECT_EQ(both, (std::vector<uint32_t>{2, 4}));
  auto none = IntersectPostings({&a.Postings(1), &b.Postings(8)});
  EXPECT_TRUE(none.empty());
}

// The DataCube<MomentsSummary> specialization must behave exactly like
// the generic cube API while running on the columnar engine.
TEST(CubeStoreTest, SpecializedDataCubeMatchesGenericSemantics) {
  std::vector<double> rows;
  std::vector<CubeCoords> coords;
  auto cube = BuildCube(MomentsSummary(10), &rows, &coords);
  EXPECT_EQ(cube.num_rows(), 30000u);
  EXPECT_EQ(cube.num_cells(), 4u * 3u * 2u);
  EXPECT_EQ(cube.MergeAll().count(), 30000u);
  uint64_t merges = 0;
  cube.MergeWhere({kAnyValue, kAnyValue, 0}, &merges);
  EXPECT_EQ(merges, 4u * 3u);
  size_t groups = 0;
  uint64_t total = 0;
  cube.ForEachGroup({0}, [&](const CubeCoords& key,
                             const MomentsSummary& summary) {
    ASSERT_EQ(key.size(), 1u);
    ++groups;
    total += summary.count();
  });
  EXPECT_EQ(groups, 4u);
  EXPECT_EQ(total, 30000u);
  // Filtered sum agrees with brute force.
  double expect = 0.0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (coords[i][1] == 1) expect += rows[i];
  }
  EXPECT_NEAR(cube.SumWhere({kAnyValue, 1, kAnyValue}), expect,
              1e-9 * std::fabs(expect));
}

// ------------------------------------------------- rollup + planner

// Cube with postings long enough for full rollup spans: dim 0 and 1 are
// low-cardinality (long postings), dim 2 is high-cardinality (short,
// residual-only postings).
CubeStore BuildRollupStore(uint64_t seed, int num_rows) {
  CubeStore store(3, 10);
  Rng rng(seed);
  for (int i = 0; i < num_rows; ++i) {
    const CubeCoords c = {static_cast<uint32_t>(rng.NextBelow(4)),
                          static_cast<uint32_t>(rng.NextBelow(3)),
                          static_cast<uint32_t>(rng.NextBelow(1500))};
    store.Ingest(c, rng.NextLognormal(0.0, 0.7));
  }
  return store;
}

void ExpectAgreesWithExact(const MomentsSketch& got,
                           const MomentsSketch& want, const char* label) {
  EXPECT_EQ(got.count(), want.count()) << label;
  EXPECT_EQ(got.log_count(), want.log_count()) << label;
  if (want.count() > 0) {
    EXPECT_DOUBLE_EQ(got.min(), want.min()) << label;
    EXPECT_DOUBLE_EQ(got.max(), want.max()) << label;
  }
  for (int i = 0; i < want.k(); ++i) {
    EXPECT_NEAR(got.power_sums()[i], want.power_sums()[i],
                1e-11 * std::fabs(want.power_sums()[i]) + 1e-300)
        << label << " power " << i;
    EXPECT_NEAR(got.log_sums()[i], want.log_sums()[i],
                1e-11 * std::fabs(want.log_sums()[i]) + 1e-9)
        << label << " log " << i;
  }
}

// Across random filters (spans, residual-only values, multi-dim,
// unconstrained, unseen values), the planned query with a fresh rollup
// must agree with the exact scan path: counts and min/max bit-exact,
// moment sums within re-association tolerance.
TEST(CubeStoreTest, RollupQueryAgreesWithExactAcrossRandomFilters) {
  CubeStore store = BuildRollupStore(301, 40000);
  store.BuildRollup(RollupOptions{/*span_log2=*/5});
  ASSERT_TRUE(store.HasFreshRollup());
  Rng rng(302);
  for (int trial = 0; trial < 120; ++trial) {
    CubeFilter filter(3, kAnyValue);
    for (size_t d = 0; d < filter.size(); ++d) {
      if (rng.NextBelow(2) == 0) {
        filter[d] = static_cast<int64_t>(rng.NextBelow(d == 2 ? 1600 : 5));
      }
    }
    CubeStore::QueryStats stats, scan_stats;
    MomentsSketch planned = store.QueryWhere(filter, &stats);
    MomentsSketch exact = store.MergeWhereScan(filter, &scan_stats);
    ExpectAgreesWithExact(planned, exact, QueryPlanName(stats.plan));
    // Every plan reports the logical matching-cell count identically.
    EXPECT_EQ(stats.merges, scan_stats.merges) << trial;
  }
}

// The planner must pick each plan where it is designed to, and the
// cumulative counters must record it.
TEST(CubeStoreTest, PlannerSelectsExpectedPlans) {
  CubeStore store = BuildRollupStore(303, 30000);
  store.BuildRollup();
  const uint64_t base = store.plan_counters().total();
  CubeStore::QueryStats stats;

  // Unconstrained: pre-merged total.
  store.QueryWhere({kAnyValue, kAnyValue, kAnyValue}, &stats);
  EXPECT_EQ(stats.plan, QueryPlan::kRollup);
  EXPECT_EQ(stats.visited, 0u);

  // Single constrained dim with long postings: span nodes + residual.
  store.QueryWhere({2, kAnyValue, kAnyValue}, &stats);
  EXPECT_EQ(stats.plan, QueryPlan::kRollup);
  EXPECT_GT(stats.span_merges, 0u);
  EXPECT_LT(stats.visited, stats.merges / 4);  // >= 4x fewer fold units

  // Multi-dim selective filter: postings intersection.
  store.QueryWhere({2, 1, kAnyValue}, &stats);
  EXPECT_EQ(stats.plan, QueryPlan::kIntersect);

  // Stale rollup (ingest after build) falls back to intersect, refresh
  // restores the rollup plan.
  store.Ingest({0, 0, 0}, 1.0);
  EXPECT_FALSE(store.HasFreshRollup());
  store.QueryWhere({2, kAnyValue, kAnyValue}, &stats);
  EXPECT_EQ(stats.plan, QueryPlan::kIntersect);
  store.RefreshRollup();
  EXPECT_TRUE(store.HasFreshRollup());
  store.QueryWhere({2, kAnyValue, kAnyValue}, &stats);
  EXPECT_EQ(stats.plan, QueryPlan::kRollup);

  const PlanCounters& pc = store.plan_counters();
  EXPECT_EQ(pc.total() - base, 5u);
  EXPECT_EQ(pc.rollup.load(), 3u);
  EXPECT_EQ(pc.intersect.load(), 2u);
}

// Complement plan: a multi-dimension filter matching nearly everything
// is answered as total - non-matching, with exact count and range.
TEST(CubeStoreTest, ComplementPlanForHighSelectivityFilters) {
  CubeStore store(3, 10);
  Rng rng(304);
  for (int c = 0; c < 4000; ++c) {
    const CubeCoords coords = {static_cast<uint32_t>(c % 10 == 0 ? 1 : 0),
                               static_cast<uint32_t>(c % 7 == 0 ? 1 : 0),
                               static_cast<uint32_t>(c)};
    // Matching cells ({0, 0, *}) hold values >= 1, non-matching ones
    // values < 1, so the complement cancellation guard provably passes.
    const bool matching = coords[0] == 0 && coords[1] == 0;
    store.Ingest(coords, matching ? 1.0 + rng.NextDouble()
                                  : 0.25 + 0.5 * rng.NextDouble());
  }
  store.BuildRollup();
  const CubeFilter filter = {0, 0, kAnyValue};  // ~77% of cells
  CubeStore::QueryStats stats;
  MomentsSketch planned = store.QueryWhere(filter, &stats);
  EXPECT_EQ(stats.plan, QueryPlan::kComplement);
  EXPECT_GT(stats.subtract_merges, 0u);
  EXPECT_LT(stats.subtract_merges, stats.merges);
  MomentsSketch exact = store.MergeWhereScan(filter);
  ExpectAgreesWithExact(planned, exact, "complement");
  EXPECT_GE(store.plan_counters().complement.load(), 1u);
}

// The complement plan must refuse filters whose non-matching cells
// dwarf the matching ones in magnitude: subtracting their huge moment
// sums from the total would bury the true answer below the operands'
// ulp. The planner falls back to the direct gather merge, which stays
// at full precision.
TEST(CubeStoreTest, ComplementDeclinedUnderCancellationRisk) {
  CubeStore store(3, 8);
  Rng rng(310);
  for (int c = 0; c < 3000; ++c) {
    // A multi-dim filter {0, 0, *} matches ~76% of cells (so the
    // complement branch is considered) and the non-matching cells hold
    // values 18 orders of magnitude larger than the matching ones.
    const uint32_t d0 = c % 10 == 0 ? 1u : 0u;
    const uint32_t d1 = c % 7 == 0 ? 1u : 0u;
    const bool matching = d0 == 0 && d1 == 0;
    store.Ingest({d0, d1, static_cast<uint32_t>(c)},
                 (matching ? 1e-9 : 1e9) * (1.0 + rng.NextDouble()));
  }
  store.BuildRollup();
  const CubeFilter filter = {0, 0, kAnyValue};
  CubeStore::QueryStats stats;
  MomentsSketch planned = store.QueryWhere(filter, &stats);
  EXPECT_NE(stats.plan, QueryPlan::kComplement);
  MomentsSketch exact = store.MergeWhereScan(filter);
  ExpectAgreesWithExact(planned, exact, "cancellation-guarded");
}

// Scan plan: many constrained dimensions with near-full postings make
// the postings volume dwarf one coordinate pass.
TEST(CubeStoreTest, ScanPlanForManyNearFullPostings) {
  CubeStore store(15, 4);
  Rng rng(305);
  for (int c = 0; c < 2000; ++c) {
    CubeCoords coords(15, 0);
    coords[13] = static_cast<uint32_t>(c % 3);  // selective-ish dim
    coords[14] = static_cast<uint32_t>(c);      // makes cells distinct
    store.Ingest(coords, rng.NextLognormal(0.0, 0.5));
  }
  CubeFilter filter(15, 0);   // pins 13 all-zero dims + d13=0
  filter[14] = kAnyValue;
  CubeStore::QueryStats stats;
  MomentsSketch planned = store.QueryWhere(filter, &stats);
  EXPECT_EQ(stats.plan, QueryPlan::kScan);
  EXPECT_EQ(stats.visited, store.num_cells() + stats.merges);
  MomentsSketch exact = store.MergeWhereScan(filter);
  ExpectAgreesWithExact(planned, exact, "scan");
  EXPECT_GE(store.plan_counters().scan.load(), 1u);
}

// Incremental refresh must reproduce exactly what a from-scratch build
// produces: both rebuild nodes from the same columns with the same
// kernel, so every planned answer is bit-identical between the two.
TEST(CubeStoreTest, RollupRefreshMatchesFullRebuild) {
  CubeStore store = BuildRollupStore(306, 25000);
  store.BuildRollup();
  Rng rng(307);
  // Mutate existing cells and create new ones.
  for (int i = 0; i < 3000; ++i) {
    const CubeCoords c = {static_cast<uint32_t>(rng.NextBelow(4)),
                          static_cast<uint32_t>(rng.NextBelow(3)),
                          static_cast<uint32_t>(rng.NextBelow(2500))};
    store.Ingest(c, rng.NextLognormal(0.0, 0.7));
  }
  CubeStore rebuilt = store;
  rebuilt.BuildRollup();
  store.RefreshRollup();
  ASSERT_TRUE(store.HasFreshRollup());
  EXPECT_TRUE(store.rollup()->total().IdenticalTo(rebuilt.rollup()->total()));
  for (const CubeFilter& filter :
       {CubeFilter{1, kAnyValue, kAnyValue}, CubeFilter{kAnyValue, 2,
                                                        kAnyValue},
        CubeFilter{kAnyValue, kAnyValue, kAnyValue}}) {
    CubeStore::QueryStats a, b;
    MomentsSketch refreshed = store.QueryWhere(filter, &a);
    MomentsSketch scratch = rebuilt.QueryWhere(filter, &b);
    EXPECT_EQ(a.plan, QueryPlan::kRollup);
    EXPECT_EQ(b.plan, QueryPlan::kRollup);
    EXPECT_TRUE(refreshed.IdenticalTo(scratch));
  }
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// Bit-exact image of a store: sketch columns, native sums, coordinates
// in id order, and every cell's serialized KLL sketch.
std::vector<uint8_t> StoreBytes(const CubeStore& store) {
  BytesWriter w;
  EncodeSketchColumns(store.Columns(), &w);
  w.PutU64(store.num_rows());
  for (uint32_t id = 0; id < store.num_cells(); ++id) {
    w.PutU64(Bits(store.CellSum(id)));
    for (uint32_t c : store.CoordsOf(id)) w.PutU32(c);
    if (store.kll_enabled()) store.CellKll(id)->Serialize(&w);
  }
  return w.Take();
}

// Node `node` of `slab` against a fresh MomentsSketch merged over `ids`
// by MergeFlatFast (the per-node kernel the rollup used to call), bit
// for bit.
void ExpectNodeIs(const FlatMomentColumns& slab, uint32_t node,
                  const FlatMomentColumns& cells, const uint32_t* ids,
                  size_t n, const char* label) {
  MomentsSketch want(slab.k);
  ASSERT_TRUE(want.MergeFlatFast(cells, ids, n).ok());
  EXPECT_EQ(slab.counts[node], want.count()) << label;
  EXPECT_EQ(slab.log_counts[node], want.log_count()) << label;
  EXPECT_EQ(Bits(slab.mins[node]), Bits(want.min())) << label;
  EXPECT_EQ(Bits(slab.maxs[node]), Bits(want.max())) << label;
  for (int i = 0; i < slab.k; ++i) {
    EXPECT_EQ(Bits(slab.power_sums[i][node]), Bits(want.power_sums()[i]))
        << label << " power " << i;
    EXPECT_EQ(Bits(slab.log_sums[i][node]), Bits(want.log_sums()[i]))
        << label << " log " << i;
  }
}

// Every span node of every (dim, value) of `refreshed` against the same
// span of `rebuilt` (a fresh Build over the same contents) and against
// the per-node MergeFlatFast, bit for bit; and the totals.
void ExpectRollupsBitIdentical(const CubeStore& refreshed,
                               const CubeStore& rebuilt) {
  ASSERT_TRUE(refreshed.HasFreshRollup());
  ASSERT_TRUE(rebuilt.HasFreshRollup());
  const RollupIndex& a = *refreshed.rollup();
  const RollupIndex& b = *rebuilt.rollup();
  const FlatMomentColumns cells = refreshed.Columns();
  const FlatMomentColumns slab_a = a.slab().Columns();
  const FlatMomentColumns slab_b = b.slab().Columns();
  const size_t width = a.span_width();
  size_t spans = 0;
  for (size_t d = 0; d < refreshed.num_dims(); ++d) {
    refreshed.dim_index(d).ForEachValue(
        [&](uint32_t value, const std::vector<uint32_t>& postings) {
          const RollupIndex::ValueSpans sa = a.SpansFor(d, value);
          const RollupIndex::ValueSpans sb = b.SpansFor(d, value);
          ASSERT_EQ(sa.covered, (postings.size() / width) * width);
          ASSERT_EQ(sa.covered, sb.covered);
          for (size_t j = 0; j < sa.covered / width; ++j) {
            const uint32_t* ids = postings.data() + j * width;
            ExpectNodeIs(slab_a, (*sa.nodes)[j], cells, ids, width,
                         "refreshed");
            ExpectNodeIs(slab_b, (*sb.nodes)[j], cells, ids, width,
                         "rebuilt");
            ++spans;
          }
        });
  }
  EXPECT_GT(spans, 0u);
  EXPECT_TRUE(a.total().IdenticalTo(b.total()));
}

// Refresh writes every node bit-identically to Build, for narrow and
// wide spans, across epochs that dirty every existing span, complete
// new spans (long postings in dims 0 and 1, new values in dim 2), and
// dirty a random subset — through Ingest and through ApplyDeltas.
TEST(CubeStoreTest, RollupRefreshNodesBitIdenticalToBuild) {
  for (int span_log2 : {1, 3, 6}) {
    SCOPED_TRACE(span_log2);
    CubeStore store(3, 6);
    Rng rng(0x5ba9 + span_log2);
    for (int i = 0; i < 6000; ++i) {
      store.Ingest({static_cast<uint32_t>(rng.NextBelow(4)),
                    static_cast<uint32_t>(rng.NextBelow(3)),
                    static_cast<uint32_t>(rng.NextBelow(600))},
                   rng.NextLognormal(0.0, 0.8) - 0.3);
    }
    RollupOptions options;
    options.span_log2 = span_log2;
    store.BuildRollup(options);
    for (int epoch = 0; epoch < 3; ++epoch) {
      SCOPED_TRACE(epoch);
      if (epoch == 0) {
        // One row into every existing cell: every span is dirty.
        for (uint32_t id = 0; id < store.num_cells(); ++id) {
          const CubeCoords c = store.CoordsOf(id);
          store.Ingest(c, rng.NextLognormal(0.5, 0.5));
        }
      }
      // New cells (dim 2 values past the seen range) and a random subset
      // of existing cells, as one delta batch.
      std::vector<CubeCoords> coords;
      std::vector<MomentsSketch> deltas;
      for (int i = 0; i < 700; ++i) {
        const uint32_t v2 = static_cast<uint32_t>(
            rng.NextBelow(i % 2 == 0 ? 600 : 600 + 200 * (epoch + 1)));
        coords.push_back({static_cast<uint32_t>(rng.NextBelow(4)),
                          static_cast<uint32_t>(rng.NextBelow(3)), v2});
        MomentsSketch delta(6);
        for (int r = 0; r < 3; ++r) delta.Accumulate(rng.NextLognormal(0, 1));
        deltas.push_back(delta);
      }
      std::vector<DeltaRef> refs;
      for (size_t i = 0; i < coords.size(); ++i) {
        refs.push_back({&coords[i], &deltas[i], nullptr});
      }
      ASSERT_TRUE(store.ApplyDeltas(refs.data(), refs.size()).ok());
      CubeStore rebuilt = store;
      rebuilt.BuildRollup(options);
      store.RefreshRollup();
      ExpectRollupsBitIdentical(store, rebuilt);
    }
  }
}

// ------------------------------------------------ batched delta apply

// An epoch-shaped delta batch over a small coordinate space, so it
// repeats coordinates (same-cell deltas), creates cells mid-batch, and
// mixes moments+KLL, moments-only, KLL-only and empty deltas.
struct DeltaBatch {
  std::vector<CubeCoords> coords;
  std::vector<MomentsSketch> sketches;
  std::vector<KllSketch> klls;

  std::vector<DeltaRef> Refs() const {
    std::vector<DeltaRef> refs;
    for (size_t i = 0; i < coords.size(); ++i) {
      refs.push_back({&coords[i], &sketches[i], &klls[i]});
    }
    return refs;
  }
};

DeltaBatch MakeDeltaBatch(Rng* rng, size_t n, uint32_t values, int k,
                          int kll_k) {
  DeltaBatch b;
  for (size_t i = 0; i < n; ++i) {
    b.coords.push_back({static_cast<uint32_t>(rng->NextBelow(3)),
                        static_cast<uint32_t>(rng->NextBelow(values))});
    MomentsSketch s(k);
    KllSketch kll(kll_k);
    const uint64_t kind = rng->NextBelow(5);  // 0 KLL-only, 1 empty
    const int rows = 1 + static_cast<int>(rng->NextBelow(90));
    for (int r = 0; r < rows && kind != 1; ++r) {
      // Some non-positive rows, so log sums and counts diverge.
      const double x = rng->NextLognormal(0.0, 1.0) - 0.2;
      if (kind != 0) s.Accumulate(x);
      if (kind != 2) kll.Accumulate(x);  // 2: moments-only
    }
    b.sketches.push_back(s);
    b.klls.push_back(kll);
  }
  return b;
}

// The per-cell replay ApplyDeltas replaces: ApplyDelta, then
// ApplyKllDelta for a non-empty rank sketch.
void ApplyCellByCell(CubeStore* store, const DeltaBatch& b) {
  for (size_t i = 0; i < b.coords.size(); ++i) {
    ASSERT_TRUE(store->ApplyDelta(b.coords[i], b.sketches[i]).ok());
    if (store->kll_enabled() && b.klls[i].count() > 0) {
      ASSERT_TRUE(store->ApplyKllDelta(b.coords[i], b.klls[i]).ok());
    }
  }
}

TEST(CubeStoreApplyTest, BatchApplyMatchesCellByCellReplay) {
  for (bool kll : {false, true}) {
    SCOPED_TRACE(kll);
    CubeStore batched(2, 7), single(2, 7);
    if (kll) {
      batched.EnableKll(16);
      single.EnableKll(16);
    }
    batched.BuildRollup();
    single.BuildRollup();
    Rng rng(0xde17a + kll);
    // Independent oracle: each cell's moments as the in-order Merge of
    // its deltas (Merge adds each sum into a zeroed sketch, the same
    // addition sequence as a column slot).
    std::map<CubeCoords, MomentsSketch> merged;
    for (int epoch = 0; epoch < 4; ++epoch) {
      SCOPED_TRACE(epoch);
      const DeltaBatch b =
          MakeDeltaBatch(&rng, 400, 40 + 30 * epoch, 7, /*kll_k=*/16);
      const std::vector<DeltaRef> refs = b.Refs();
      ASSERT_TRUE(batched.ApplyDeltas(refs.data(), refs.size()).ok());
      ApplyCellByCell(&single, b);
      EXPECT_EQ(StoreBytes(batched), StoreBytes(single));
      for (size_t i = 0; i < b.coords.size(); ++i) {
        if (b.sketches[i].count() == 0) continue;
        auto it = merged.try_emplace(b.coords[i], MomentsSketch(7)).first;
        ASSERT_TRUE(it->second.Merge(b.sketches[i]).ok());
      }
      // Both stores mark the same cells dirty, so the refreshed rollups
      // agree too.
      batched.RefreshRollup();
      single.RefreshRollup();
      EXPECT_TRUE(batched.rollup()->total().IdenticalTo(
          single.rollup()->total()));
    }
    size_t moment_cells = 0;
    for (uint32_t id = 0; id < batched.num_cells(); ++id) {
      const MomentsSketch cell = batched.CellSketch(id);
      auto it = merged.find(batched.CoordsOf(id));
      if (it == merged.end()) {
        EXPECT_EQ(cell.count(), 0u);  // a KLL-only cell
        continue;
      }
      ++moment_cells;
      EXPECT_TRUE(cell.IdenticalTo(it->second));
    }
    EXPECT_EQ(moment_cells, merged.size());
  }
}

// A bad cell anywhere in the batch rejects the whole batch before any
// cell lands: wrong arity, wrong moments order, or wrong KLL k.
TEST(CubeStoreApplyTest, BadCellRejectsTheWholeBatch) {
  CubeStore store(2, 7);
  store.EnableKll(16);
  Rng rng(0xbad);
  const DeltaBatch first = MakeDeltaBatch(&rng, 200, 30, 7, 16);
  std::vector<DeltaRef> refs = first.Refs();
  ASSERT_TRUE(store.ApplyDeltas(refs.data(), refs.size()).ok());
  const std::vector<uint8_t> before = StoreBytes(store);
  const uint64_t version = store.column_version();

  DeltaBatch next = MakeDeltaBatch(&rng, 200, 60, 7, 16);
  const CubeCoords short_coords = {1};
  MomentsSketch wrong_k(8);
  wrong_k.Accumulate(2.0);
  KllSketch wrong_kll(32);
  wrong_kll.Accumulate(2.0);
  for (int bad = 0; bad < 3; ++bad) {
    SCOPED_TRACE(bad);
    refs = next.Refs();
    DeltaRef& mid = refs[refs.size() / 2];
    if (bad == 0) mid.coords = &short_coords;
    if (bad == 1) mid.sketch = &wrong_k;
    if (bad == 2) mid.kll = &wrong_kll;
    const Status st = store.ApplyDeltas(refs.data(), refs.size());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(StoreBytes(store), before);
    EXPECT_EQ(store.column_version(), version);
  }
  refs = next.Refs();
  EXPECT_TRUE(store.ApplyDeltas(refs.data(), refs.size()).ok());
  EXPECT_NE(StoreBytes(store), before);
}

std::vector<uint8_t> SketchBytes(const MomentsSketch& sketch) {
  BytesWriter w;
  sketch.Serialize(&w);
  return w.Take();
}

// ForEachGroup against its contract, over milan and shifted-lognormal
// rows (some non-positive, so log counts differ from counts) in 2-4-dim
// cubes: one callback per distinct group key, in ascending order of the
// group's first cell id, each sketch byte-equal to MergeFlat-ing the
// group's cells one at a time in ascending id into a fresh sketch.
TEST(CubeStoreTest, ForEachGroupBitIdenticalToPerCellMerge) {
  constexpr size_t kRows = 20000;
  Rng value_rng(2401);
  std::vector<double> lognormal(kRows);
  for (double& v : lognormal) v = value_rng.NextLognormal(0.0, 1.2) - 0.5;
  const std::vector<std::pair<const char*, std::vector<double>>> datasets = {
      {"milan", GenerateDataset(DatasetId::kMilan, kRows)},
      {"lognormal", lognormal}};
  const std::vector<std::vector<uint32_t>> shapes = {
      {9, 6}, {7, 5, 4}, {5, 4, 3, 3}};
  const std::vector<std::vector<size_t>> dim_sets = {
      {0}, {1}, {0, 1}, {1, 0}, {0, 2}, {0, 1, 2}, {}, {1, 1}, {2, 0, 2}};
  for (const auto& [name, rows] : datasets) {
    for (const std::vector<uint32_t>& cards : shapes) {
      CubeStore store(cards.size(), 10);
      Rng rng(2402 + cards.size());
      for (double v : rows) {
        CubeCoords c;
        for (uint32_t card : cards) {
          c.push_back(static_cast<uint32_t>(rng.NextBelow(card)));
        }
        store.Ingest(c, v);
      }
      const FlatMomentColumns cols = store.Columns();
      for (const std::vector<size_t>& dims : dim_sets) {
        bool fits = true;
        for (size_t d : dims) fits = fits && d < cards.size();
        if (!fits) continue;
        SCOPED_TRACE(std::string(name) + " dims=" +
                     std::to_string(cards.size()) + " groups by " +
                     std::to_string(dims.size()) + " dims");
        // Reference: per-cell MergeFlat in ascending cell id.
        struct Ref {
          uint32_t first_id;
          MomentsSketch sketch;
        };
        std::map<CubeCoords, Ref> ref;
        for (uint32_t id = 0; id < store.num_cells(); ++id) {
          CubeCoords key;
          for (size_t d : dims) key.push_back(store.CoordsOf(id)[d]);
          auto it = ref.try_emplace(key, Ref{id, MomentsSketch(10)}).first;
          ASSERT_TRUE(it->second.sketch.MergeFlat(cols, &id, 1).ok());
        }
        size_t calls = 0;
        int64_t last_first_id = -1;
        store.ForEachGroup(dims, [&](const CubeCoords& key,
                                     const MomentsSketch& sketch) {
          ++calls;
          auto it = ref.find(key);
          ASSERT_NE(it, ref.end());
          EXPECT_EQ(SketchBytes(sketch), SketchBytes(it->second.sketch));
          EXPECT_GT(static_cast<int64_t>(it->second.first_id), last_first_id);
          last_first_id = it->second.first_id;
        });
        EXPECT_EQ(calls, ref.size());
      }
    }
  }
}

// ReduceGroups over subsets of a partition's groups: none, one, a
// minority, a majority and all of them, so both the gather kernel
// (listed groups hold under half the cells) and the direct kernel with
// its discard row run. Each listed group's sketch must be byte-equal to
// ForEachGroup's, come with its index in the list, and the partition's
// ranges must equal the sketches'.
TEST(CubeStoreTest, ReduceGroupsSubsetsMatchForEachGroup) {
  constexpr size_t kRows = 20000;
  Rng value_rng(2411);
  std::vector<double> lognormal(kRows);
  for (double& v : lognormal) v = value_rng.NextLognormal(0.0, 1.2) - 0.5;
  const std::vector<std::pair<const char*, std::vector<double>>> datasets = {
      {"milan", GenerateDataset(DatasetId::kMilan, kRows)},
      {"lognormal", lognormal}};
  const std::vector<std::vector<size_t>> dim_sets = {{0}, {0, 2}, {2, 1}};
  for (const auto& [name, rows] : datasets) {
    CubeStore store(3, 10);
    Rng rng(2412);
    for (double v : rows) {
      store.Ingest({static_cast<uint32_t>(rng.NextBelow(9)),
                    static_cast<uint32_t>(rng.NextBelow(5)),
                    static_cast<uint32_t>(rng.NextBelow(4))},
                   v);
    }
    for (const std::vector<size_t>& dims : dim_sets) {
      SCOPED_TRACE(std::string(name) + " groups by " +
                   std::to_string(dims.size()) + " dims");
      std::vector<std::vector<uint8_t>> want;  // by group id
      store.ForEachGroup(dims, [&](const CubeCoords&, const MomentsSketch& s) {
        want.push_back(SketchBytes(s));
      });
      const GroupPartition part = store.PartitionGroups(dims);
      const uint32_t num_groups = static_cast<uint32_t>(part.num_groups());
      ASSERT_EQ(num_groups, want.size());
      ASSERT_GE(num_groups, 9u);
      // Subsets by the share of cells they hold.
      std::vector<uint32_t> minority, majority, all;
      size_t minority_cells = 0, majority_cells = 0;
      for (uint32_t g = 0; g < num_groups; ++g) {
        all.push_back(g);
        if (g % 4 == 1) {
          minority.push_back(g);
          minority_cells += part.ranges[g].num_cells;
        }
        if (g % 4 != 1) {
          majority.push_back(g);
          majority_cells += part.ranges[g].num_cells;
        }
      }
      ASSERT_LT(2 * minority_cells, store.num_cells());
      ASSERT_GE(2 * majority_cells, store.num_cells());
      ASSERT_LT(majority.size(), all.size());
      for (const std::vector<uint32_t>& listed :
           {std::vector<uint32_t>{}, std::vector<uint32_t>{num_groups / 2},
            minority, majority, all}) {
        SCOPED_TRACE("listing " + std::to_string(listed.size()) + " of " +
                     std::to_string(num_groups));
        size_t calls = 0;
        store.ReduceGroups(part, listed,
                           [&](size_t j, const MomentsSketch& s) {
                             ASSERT_EQ(j, calls);
                             ++calls;
                             const uint32_t g = listed[j];
                             EXPECT_EQ(SketchBytes(s), want[g]) << "group " << g;
                             EXPECT_EQ(s.count(), part.ranges[g].count);
                             EXPECT_EQ(s.min(), part.ranges[g].min);
                             EXPECT_EQ(s.max(), part.ranges[g].max);
                           });
        EXPECT_EQ(calls, listed.size());
      }
    }
  }
}

// The cell directory across growth, copies and moves: thousands of
// cells whose coordinates agree in their low 16 bits, so the slots
// double many times under keys that share low bits. Copy-constructed,
// copy-assigned and moved stores each add cells of their own, then the
// source grows through more rehashes and dies; each store must still
// find every cell under its creation id, and resolve a delta batch to
// the same ids as a store built directly.
TEST(CubeStoreTest, CellDirectoryGrowthCopyAndMove) {
  constexpr uint32_t kCells = 5000, kOwn = 50, kNew = 300;
  std::vector<CubeCoords> keys, own_keys, new_keys;
  for (uint32_t i = 0; i < kCells; ++i) {
    keys.push_back({i << 16, (i % 7) << 16});
  }
  for (uint32_t i = 0; i < kOwn; ++i) own_keys.push_back({i << 16, 5u << 28});
  for (uint32_t i = 0; i < kNew; ++i) new_keys.push_back({i << 16, 1u << 31});
  auto fill = [&](CubeStore* store) {
    for (uint32_t i = 0; i < kCells; ++i) {
      ASSERT_EQ(store->Ingest(keys[i], 1.0 + i), i);
    }
  };
  auto add_own = [&](CubeStore* store) {
    for (uint32_t i = 0; i < kOwn; ++i) {
      ASSERT_EQ(store->Ingest(own_keys[i], 3.0), kCells + i);
    }
  };
  // A batch over every existing cell, newest first, then new cells.
  std::vector<CubeCoords> batch_keys(keys.rbegin(), keys.rend());
  batch_keys.insert(batch_keys.end(), own_keys.begin(), own_keys.end());
  batch_keys.insert(batch_keys.end(), new_keys.begin(), new_keys.end());
  std::vector<MomentsSketch> deltas;
  Rng rng(2403);
  for (size_t j = 0; j < batch_keys.size(); ++j) {
    MomentsSketch s(6);
    s.Accumulate(rng.NextLognormal(0.0, 1.0));
    deltas.push_back(s);
  }
  std::vector<DeltaRef> refs;
  for (size_t j = 0; j < batch_keys.size(); ++j) {
    refs.push_back({&batch_keys[j], &deltas[j], nullptr});
  }
  auto exercise = [&](CubeStore* store) {
    ASSERT_EQ(store->num_cells(), kCells + kOwn);
    for (uint32_t i = 0; i < kCells + kOwn; ++i) {
      const CubeCoords& key = i < kCells ? keys[i] : own_keys[i - kCells];
      ASSERT_EQ(store->CoordsOf(i), key);
      ASSERT_EQ(store->Ingest(key, 0.5), i);
    }
    ASSERT_TRUE(store->ApplyDeltas(refs.data(), refs.size()).ok());
    ASSERT_EQ(store->num_cells(), kCells + kOwn + kNew);
    for (uint32_t i = 0; i < kNew; ++i) {
      ASSERT_EQ(store->Ingest(new_keys[i], 0.5), kCells + kOwn + i);
    }
  };
  CubeStore direct(2, 6);
  fill(&direct);
  add_own(&direct);
  exercise(&direct);
  BytesWriter direct_cols;
  EncodeSketchColumns(direct.Columns(), &direct_cols);
  const std::vector<uint8_t> want_cols = direct_cols.Take();
  const std::vector<uint8_t> want = StoreBytes(direct);

  auto source = std::make_unique<CubeStore>(2, 6);
  fill(source.get());
  CubeStore copied(*source);
  CubeStore assigned(2, 6);
  assigned.Ingest({7, 7}, 1.0);
  assigned = *source;
  CubeStore move_source(*source);
  CubeStore moved(std::move(move_source));
  for (CubeStore* store : {&copied, &assigned, &moved}) add_own(store);
  for (uint32_t i = 0; i < 3 * kCells; ++i) {
    source->Ingest({i << 16, 3u << 30}, 2.0);
  }
  source.reset();
  for (CubeStore* store : {&copied, &assigned, &moved}) {
    exercise(store);
    BytesWriter cols;
    EncodeSketchColumns(store->Columns(), &cols);
    EXPECT_EQ(cols.Take(), want_cols);
    EXPECT_EQ(StoreBytes(*store), want);
  }
}

// A GROUP BY dimension past the cube's arity is a programming error on
// every path that reads one: ForEachGroup, the multi-dimension batch
// and the single-dimension rollup branch, and the streaming facade.
TEST(CubeStoreDeathTest, OutOfRangeGroupDimensionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  CubeStore store(3, 6);
  store.Ingest({0, 1, 2}, 1.0);
  store.Ingest({1, 1, 0}, 2.0);
  EXPECT_DEATH(store.ForEachGroup(
                   {0, 7}, [](const CubeCoords&, const MomentsSketch&) {}),
               "group dimension out of range");
  EXPECT_DEATH(GroupByQuantiles(store, {0, 3}, {0.5}),
               "dimension out of range");
  store.BuildRollup();
  EXPECT_DEATH(GroupByThreshold(store, {7}, 0.5, 1.0),
               "dimension out of range");
  StreamingCube cube(3, MomentsSummary(6));
  ASSERT_TRUE(cube.Append({0, 1, 2}, 1.0).ok());
  cube.Flush();
  EXPECT_DEATH(cube.GroupByThreshold({7}, 0.5, 1.0),
               "dimension out of range");
}

// The MomentsSummary cube surfaces the planner through MergeWhere and
// the rollup-backed GROUP BY path; results must agree with the
// unaccelerated cube within estimation tolerance and keep exact counts.
TEST(CubeStoreTest, DataCubeRollupGroupByAgrees) {
  std::vector<double> rows;
  auto cube = BuildCube(MomentsSummary(10), &rows);
  auto baseline = cube.GroupByQuantiles({0}, {0.5});
  cube.BuildRollup();
  auto accelerated = cube.GroupByQuantiles({0}, {0.5});
  ASSERT_EQ(accelerated.size(), baseline.size());
  for (size_t g = 0; g < baseline.size(); ++g) {
    EXPECT_EQ(accelerated[g].key, baseline[g].key);
    EXPECT_EQ(accelerated[g].count, baseline[g].count);
    ASSERT_TRUE(accelerated[g].status.ok());
    EXPECT_NEAR(accelerated[g].quantiles[0], baseline[g].quantiles[0],
                2e-2 * (1.0 + std::fabs(baseline[g].quantiles[0])));
  }
}

// ------------------------------------------------- KLL side column

// Dim 0 picks a block of small cells (dim 1 spreads each block over
// `cells` cells of `per_cell` lognormal rows); block 2 also gets one
// cell past the KLL capacity, so it compacts.
struct KllStore {
  CubeStore store{2, 10};
  std::vector<std::vector<double>> block_rows;

  KllStore(uint32_t cells, int per_cell) : block_rows(3) {
    store.EnableKll(64);
    Rng rng(0x6b11ULL);
    for (uint32_t b = 0; b < 3; ++b) {
      for (uint32_t c = 0; c < cells; ++c) {
        for (int i = 0; i < per_cell; ++i) Add(b, c, rng.NextLognormal(0, 2));
      }
    }
    for (int i = 0; i < 200; ++i) Add(2, cells, rng.NextLognormal(0, 2));
  }

  void Add(uint32_t block, uint32_t cell, double v) {
    store.Ingest({block, cell}, v);
    block_rows[block].push_back(v);
  }

  std::vector<uint32_t> BlockCells(uint32_t block) const {
    return store.MatchingCells({block, kAnyValue});
  }
};

TEST(CubeStoreKllTest, UncompactedCellsMergeLosslessly) {
  KllStore s(/*cells=*/20, /*per_cell=*/15);  // 300 rows per block
  for (uint32_t block : {0u, 1u}) {
    for (uint32_t id : s.BlockCells(block)) {
      ASSERT_EQ(s.store.CellKll(id)->rank_error_bound(), 0u);
    }
    Result<KllSketch> merged = s.store.MergeKllWhere({block, kAnyValue});
    ASSERT_TRUE(merged.ok());
    std::vector<double> sorted = s.block_rows[block];
    ASSERT_GE(sorted.size(), 64u);
    EXPECT_EQ(merged->rank_error_bound(), 0u);
    EXPECT_EQ(merged->count(), sorted.size());
    std::sort(sorted.begin(), sorted.end());
    // The router answers from the union alone: a zero-width certificate
    // at the ceil(phi*n)-th smallest row, an exact quantile.
    SummaryRouter router;
    const MomentsSketch moments = s.store.QueryWhere({block, kAnyValue});
    for (double phi : {0.0, 0.01, 0.5, 0.9, 0.99, 1.0}) {
      size_t r = static_cast<size_t>(
          std::ceil(phi * static_cast<double>(sorted.size())));
      r = std::max<size_t>(1, r);
      const CertifiedQuantile a = router.Query(moments, &merged.value(), phi);
      ASSERT_TRUE(a.certified) << "phi=" << phi;
      EXPECT_EQ(a.interval.lower, sorted[r - 1]) << "phi=" << phi;
      EXPECT_EQ(a.interval.upper, sorted[r - 1]) << "phi=" << phi;
      EXPECT_EQ(a.estimate, sorted[r - 1]) << "phi=" << phi;
    }
    EXPECT_EQ(router.stats().exact_answers, 6u);
  }
  // Below the capacity the lossless union is the kll_k merge itself.
  const std::vector<uint32_t> ids = s.BlockCells(0);
  Result<KllSketch> few = s.store.MergeKllCells(ids.data(), 4);
  ASSERT_TRUE(few.ok());
  KllSketch reference(64);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(reference.Merge(*s.store.CellKll(ids[i])).ok());
  }
  EXPECT_TRUE(few->IdenticalTo(reference));
}

TEST(CubeStoreKllTest, OneCompactedCellKeepsTheKllKMerge) {
  KllStore s(/*cells=*/20, /*per_cell=*/15);
  const std::vector<uint32_t> ids = s.BlockCells(2);
  KllSketch reference(s.store.kll_k());
  bool compacted = false;
  for (uint32_t id : ids) {
    compacted = compacted || s.store.CellKll(id)->rank_error_bound() > 0;
    ASSERT_TRUE(reference.Merge(*s.store.CellKll(id)).ok());
  }
  ASSERT_TRUE(compacted);
  Result<KllSketch> merged = s.store.MergeKllWhere({2, kAnyValue});
  ASSERT_TRUE(merged.ok());
  EXPECT_GT(merged->rank_error_bound(), 0u);
  EXPECT_TRUE(merged->IdenticalTo(reference));
}

// The lossless union stops at 32 * kll_k rows: one row past it, an
// all-uncompacted selection gets the kll_k merge.
TEST(CubeStoreKllTest, LosslessUnionIsCappedAt32KllKRows) {
  CubeStore store(2, 10);
  store.EnableKll(64);
  Rng rng(0xca9ULL);
  // Block 0: 128 cells of 16 rows (2048 rows, the cap). Block 1: the
  // same plus one more row.
  for (uint32_t b = 0; b < 2; ++b) {
    for (uint32_t c = 0; c < 128; ++c) {
      for (int i = 0; i < 16; ++i) store.Ingest({b, c}, rng.NextLognormal(0, 2));
    }
  }
  store.Ingest({1, 128}, 1.0);
  for (uint32_t b = 0; b < 2; ++b) {
    const std::vector<uint32_t> ids = store.MatchingCells({b, kAnyValue});
    KllSketch reference(store.kll_k());
    for (uint32_t id : ids) {
      ASSERT_EQ(store.CellKll(id)->rank_error_bound(), 0u);
      ASSERT_TRUE(reference.Merge(*store.CellKll(id)).ok());
    }
    ASSERT_GT(reference.rank_error_bound(), 0u);
    Result<KllSketch> merged = store.MergeKllWhere({b, kAnyValue});
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(merged->count(), b == 0 ? 2048u : 2049u);
    if (b == 0) {
      EXPECT_EQ(merged->rank_error_bound(), 0u);
    } else {
      EXPECT_TRUE(merged->IdenticalTo(reference));
    }
  }
}

// ------------------------------------------------- galloping intersect

TEST(DimIndexTest, GallopLowerBoundMatchesStdLowerBound) {
  Rng rng(308);
  std::vector<uint32_t> list;
  uint32_t v = 0;
  for (int i = 0; i < 500; ++i) {
    v += 1 + static_cast<uint32_t>(rng.NextBelow(20));
    list.push_back(v);
  }
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t from = rng.NextBelow(list.size() + 1);
    const uint32_t target = static_cast<uint32_t>(rng.NextBelow(v + 100));
    const size_t got = GallopLowerBound(list, from, target);
    const size_t want = std::max(
        from, static_cast<size_t>(
                  std::lower_bound(list.begin(), list.end(), target) -
                  list.begin()));
    EXPECT_EQ(got, want) << "from=" << from << " target=" << target;
  }
}

TEST(DimIndexTest, IntersectionMatchesReferenceAcrossSkews) {
  Rng rng(309);
  for (size_t skew : {size_t{1}, size_t{4}, size_t{16}, size_t{64}}) {
    std::vector<uint32_t> small, large;
    for (uint32_t id = 0; id < 20000; ++id) {
      if (rng.NextBelow(skew * 4) == 0) small.push_back(id);
      if (rng.NextBelow(2) == 0) large.push_back(id);
    }
    // Reference: linear two-pointer intersection.
    std::vector<uint32_t> want;
    std::set_intersection(small.begin(), small.end(), large.begin(),
                          large.end(), std::back_inserter(want));
    EXPECT_EQ(IntersectPostings({&small, &large}), want) << skew;
    EXPECT_EQ(IntersectPostings({&large, &small}), want) << skew;
    // Three-way, mixing skews.
    std::vector<uint32_t> third;
    for (uint32_t id = 0; id < 20000; id += 3) third.push_back(id);
    std::vector<uint32_t> want3;
    std::set_intersection(want.begin(), want.end(), third.begin(),
                          third.end(), std::back_inserter(want3));
    EXPECT_EQ(IntersectPostings({&small, &large, &third}), want3) << skew;
  }
}

TEST(DictionaryTest, InternAndLookup) {
  Dictionary dict;
  EXPECT_EQ(dict.Intern("USA"), 0u);
  EXPECT_EQ(dict.Intern("CAN"), 1u);
  EXPECT_EQ(dict.Intern("USA"), 0u);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.ValueOf(1), "CAN");
  auto found = dict.Find("USA");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), 0u);
  EXPECT_FALSE(dict.Find("MEX").ok());
}

}  // namespace
}  // namespace msketch
