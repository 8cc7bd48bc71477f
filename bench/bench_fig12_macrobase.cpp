// Figure 12: MacroBase anomalous-subgroup query runtime. Variants:
//   Baseline   - moments sketches, direct maxent estimate per group
//   +Simple    - add the range check
//   +Markov    - add Markov bounds
//   +RTT       - add RTT bounds (the full cascade)
//   Merge12a   - Merge12 sketches merged per group, direct estimates
//   Merge12b   - optimistic baseline: pre-computed above-threshold counts
#include <cstdio>
#include <unordered_map>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "cube/data_cube.h"
#include "datasets/datasets.h"
#include "macrobase/macrobase.h"
#include "sketches/buffer_hierarchy.h"

namespace {

using namespace msketch;
using namespace msketch::bench;

struct Workload {
  std::vector<double> values;
  std::vector<CubeCoords> coords;
};

// Three grid ids get ~25x inflated values so the search has real
// candidates to find (the paper's query reported 19).
Workload MakeWorkload(uint64_t rows, uint64_t grids, uint64_t panes) {
  Workload w;
  w.values = GenerateDataset(DatasetId::kMilan, rows);
  w.coords.reserve(rows);
  Rng rng(0x3ACB0);
  for (uint64_t i = 0; i < rows; ++i) {
    const uint32_t grid = static_cast<uint32_t>(rng.NextBelow(grids));
    if (grid == 7 || grid == 23 || grid == 61) w.values[i] *= 25.0;
    w.coords.push_back({grid, static_cast<uint32_t>(rng.NextBelow(10)),
                        static_cast<uint32_t>(rng.NextBelow(panes))});
  }
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  // Paper: 80M rows, 13M cells (grid x country x 4h pane). Default: 2M
  // rows over 100 x 10 x 42 = 42k max cells; ~5.8k groups at depth 2.
  const uint64_t rows =
      args.GetU64("rows", 1'000'000) * static_cast<uint64_t>(args.Scale());
  const uint64_t grids = args.GetU64("grids", 100);
  const uint64_t panes = args.GetU64("panes", 20);

  PrintHeader("Figure 12: MacroBase query runtime");
  std::printf("paper: Baseline 42.4s | +Simple 6.27 | +Markov 2.69 |\n"
              "       +RTT 2.47 | Merge12a 19.6 | Merge12b 9.3\n\n");
  Workload w = MakeWorkload(rows, grids, panes);

  // Moments-sketch cube variants.
  DataCube<MomentsSummary> cube(3, MomentsSummary(10));
  for (size_t i = 0; i < w.values.size(); ++i) {
    cube.Ingest(w.coords[i], w.values[i]);
  }
  struct Variant {
    const char* name;
    bool simple, markov, rtt;
  };
  for (const Variant& v :
       {Variant{"Baseline", false, false, false},
        Variant{"+Simple", true, false, false},
        Variant{"+Markov", true, true, false},
        Variant{"+RTT", true, true, true}}) {
    MacroBaseOptions options;
    options.include_pairs = true;
    options.cascade.use_simple_check = v.simple;
    options.cascade.use_markov = v.markov;
    options.cascade.use_rtt = v.rtt;
    Timer t;
    auto report = FindAnomalousSubgroups(cube, options);
    MSKETCH_CHECK(report.ok());
    std::printf(
        "%-10s %8.3f s   (merge %.3f, estimate %.3f; %llu groups, "
        "%zu flagged)\n",
        v.name, t.Seconds(), report->merge_seconds,
        report->estimation_seconds,
        static_cast<unsigned long long>(report->groups_examined),
        report->flagged.size());
  }

  // +Batch: the same subgroup search expressed as batched threshold
  // queries — GroupByThreshold runs the cascade's bound stages per group
  // and routes unresolved groups through the warm-start chain and solver
  // cache instead of isolated cold solves.
  {
    MomentsSummary global = cube.MergeAll();
    auto t99 = global.EstimateQuantile(0.99);
    MSKETCH_CHECK(t99.ok());
    Timer t;
    size_t flagged = 0;
    uint64_t groups = 0;
    BatchStats stats;
    auto run_grouping = [&](const std::vector<size_t>& dims) {
      BatchStats gs;
      auto results = cube.GroupByThreshold(dims, 0.7, t99.value(), {}, &gs);
      for (const auto& r : results) flagged += r.exceeds ? 1 : 0;
      groups += results.size();
      stats.MergeFrom(gs);
    };
    for (size_t d = 0; d < 3; ++d) run_grouping({d});
    for (size_t a = 0; a < 3; ++a) {
      for (size_t b = a + 1; b < 3; ++b) run_grouping({a, b});
    }
    std::printf(
        "%-10s %8.3f s   (%llu groups, %zu flagged; bounds pruned %llu, "
        "warm %llu, cache hits %llu)\n",
        "+Batch", t.Seconds(), static_cast<unsigned long long>(groups),
        flagged, static_cast<unsigned long long>(stats.CascadePruned()),
        static_cast<unsigned long long>(stats.solve.warm_solves),
        static_cast<unsigned long long>(stats.cache_hits));
  }

  // Merge12a: same group search with Merge12 summaries + direct
  // estimates.
  {
    DataCube<BufferHierarchySketch> m12cube(3, MakeMerge12(32));
    for (size_t i = 0; i < w.values.size(); ++i) {
      m12cube.Ingest(w.coords[i], w.values[i]);
    }
    Timer t;
    BufferHierarchySketch all = m12cube.MergeAll();
    auto t99 = all.EstimateQuantile(0.99);
    MSKETCH_CHECK(t99.ok());
    size_t flagged = 0, groups = 0;
    auto check_grouping = [&](const std::vector<size_t>& dims) {
      m12cube.ForEachGroup(dims, [&](const CubeCoords&,
                                     const BufferHierarchySketch& s) {
        ++groups;
        auto q = s.EstimateQuantile(0.7);
        if (q.ok() && q.value() > t99.value()) ++flagged;
      });
    };
    for (size_t d = 0; d < 3; ++d) check_grouping({d});
    for (size_t a = 0; a < 3; ++a) {
      for (size_t b = a + 1; b < 3; ++b) check_grouping({a, b});
    }
    std::printf("%-10s %8.3f s   (%zu groups, %zu flagged)\n", "Merge12a",
                t.Seconds(), groups, flagged);
  }

  // Merge12b: the optimistic count-based baseline — per-cell counts of
  // values above t99 accumulated directly (requires a second data pass
  // and a known threshold, so it is not generally applicable).
  {
    // Threshold from the exact data (optimistic).
    auto sorted = w.values;
    std::sort(sorted.begin(), sorted.end());
    const double t99 = QuantileOfSorted(sorted, 0.99);
    Timer t;
    std::unordered_map<CubeCoords, std::pair<uint64_t, uint64_t>,
                       CubeCoordsHash>
        counts;  // coords -> (above, total)
    for (size_t i = 0; i < w.values.size(); ++i) {
      auto& c = counts[w.coords[i]];
      c.first += (w.values[i] > t99) ? 1 : 0;
      ++c.second;
    }
    // Aggregate counts per grouping; flag outlier rate >= 30%.
    size_t flagged = 0, groups = 0;
    auto check_grouping = [&](const std::vector<size_t>& dims) {
      std::unordered_map<CubeCoords, std::pair<uint64_t, uint64_t>,
                         CubeCoordsHash>
          agg;
      for (const auto& [coords, c] : counts) {
        CubeCoords key;
        for (size_t d : dims) key.push_back(coords[d]);
        auto& a = agg[key];
        a.first += c.first;
        a.second += c.second;
      }
      for (const auto& [key, a] : agg) {
        ++groups;
        if (a.second > 0 &&
            static_cast<double>(a.first) >=
                0.3 * static_cast<double>(a.second)) {
          ++flagged;
        }
      }
    };
    for (size_t d = 0; d < 3; ++d) check_grouping({d});
    for (size_t a = 0; a < 3; ++a) {
      for (size_t b = a + 1; b < 3; ++b) check_grouping({a, b});
    }
    std::printf("%-10s %8.3f s   (%zu groups, %zu flagged)\n", "Merge12b",
                t.Seconds(), groups, flagged);
  }
  return 0;
}
