// Figure 6: total query time vs number of aggregated cells for the three
// mergeable summaries (M-Sketch k=10, Merge12 k=32, RandomW). Merge time
// dominates past ~1e4 cells, which is where the moments sketch wins; below
// ~1e2 cells its estimation cost dominates.
//
// Extended with a group-count sweep for the batched estimation pipeline:
// GROUP BY queries returning per-group quantiles pay one maxent solve per
// group, and the batch path (similarity-ordered warm chains + solver
// cache + thread sharding) amortizes that against a cold per-group loop.
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "bench/bench_util.h"
#include "bench/cohorts.h"
#include "common/rng.h"
#include "core/maxent_solver.h"
#include "cube/data_cube.h"
#include "datasets/datasets.h"

namespace {

using namespace msketch;
using namespace msketch::bench;

// GROUP BY sweep: total estimation time vs number of groups — cold
// loop, the warm-chain pipeline, and the pipeline with hardware threads,
// plus the chain answers' worst deviation from the cold solves. Rows
// land in BENCH_fig6.json.
void RunGroupCountSweep(JsonReport* report,
                        const std::vector<uint64_t>& group_counts) {
  PrintHeader("Figure 6b: GROUP BY estimation time vs number of groups");
  std::printf(
      "cold = per-group SolveMaxEnt loop; chain = GroupByQuantiles\n"
      "(similarity-ordered warm chain + cache); chainN = chain with\n"
      "threads; dev = max relative deviation of chain vs cold (same\n"
      "moment subset)\n\n");
  std::printf("%10s %12s %12s %12s %10s %10s\n", "groups", "cold(ms)",
              "chain(ms)", "chainN(ms)", "it/chain", "dev");
  const std::vector<double> phis = {0.5, 0.99};
  const int hw = std::max(2u, std::thread::hardware_concurrency());
  for (uint64_t groups : group_counts) {
    DataCube<MomentsSummary> cube = BuildDriftingCohortCube(groups, 200);
    // Cold loop.
    std::map<CubeCoords, MaxEntDistribution> cold;
    Timer tc;
    cube.store().ForEachGroup({0}, [&](const CubeCoords& key,
                                       const MomentsSketch& sketch) {
      auto dist = SolveMaxEnt(sketch);
      if (dist.ok()) cold.emplace(key, std::move(dist).value());
    });
    const double cold_ms = tc.Millis();
    std::vector<GroupQuantiles> chain_results;
    auto run = [&](int threads, BatchStats* stats) {
      BatchOptions options;
      options.threads = threads;
      Timer t;
      auto results = cube.GroupByQuantiles({0}, phis, options, stats);
      const double ms = t.Millis();
      MSKETCH_CHECK(results.size() == groups);
      chain_results = std::move(results);
      return ms;
    };
    BatchStats chain_stats, threaded_stats;
    const double threaded_ms = run(hw, &threaded_stats);
    const double chain_ms = run(1, &chain_stats);
    double max_rel_dev = 0.0;
    for (const GroupQuantiles& r : chain_results) {
      auto it = cold.find(r.key);
      if (!r.status.ok() || r.used_atomic || it == cold.end()) continue;
      const MaxEntDiagnostics& diag = it->second.diagnostics();
      if (r.k1 != diag.k1 || r.k2 != diag.k2) continue;
      for (size_t p = 0; p < phis.size(); ++p) {
        const double qc = it->second.Quantile(phis[p]);
        max_rel_dev = std::max(max_rel_dev, std::fabs(r.quantiles[p] - qc) /
                                                std::max(1.0, std::fabs(qc)));
      }
    }
    std::printf("%10llu %12.1f %12.1f %12.1f %10.2f %10.3g\n",
                static_cast<unsigned long long>(groups), cold_ms, chain_ms,
                threaded_ms, chain_stats.solve.MeanNewtonIterations(),
                max_rel_dev);
    const double g = static_cast<double>(groups);
    char name[32];
    std::snprintf(name, sizeof(name), "groups_%llu",
                  static_cast<unsigned long long>(groups));
    report->Add(
        "group_sweep", name, {chain_ms},
        {{"groups", g},
         {"cold_ms", cold_ms},
         {"chain_ms", chain_ms},
         {"chain_threaded_ms", threaded_ms},
         {"speedup_vs_cold_loop", chain_ms > 0 ? cold_ms / chain_ms : 0.0},
         {"mean_newton_iters_chain", chain_stats.solve.MeanNewtonIterations()},
         {"max_rel_dev_vs_cold", max_rel_dev}});
  }
  std::printf("\n(chainN uses %d threads)\n", hw);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msketch;
  using namespace msketch::bench;
  Args args(argc, argv);
  const size_t cell_size = 200;
  const size_t pool_cells = args.GetU64("pool-cells", 10'000);
  std::vector<uint64_t> cell_counts = {100, 1'000, 10'000, 100'000};
  if (args.Has("full")) cell_counts.push_back(1'000'000);

  PrintHeader("Figure 6: query time vs number of merged cells");
  std::printf("paper: M-Sketch wins for nmerge >= 1e4; estimation cost\n"
              "dominates below ~1e2 cells\n\n");
  std::printf("%-9s %-9s %10s %12s %12s %12s\n", "dataset", "summary",
              "cells", "total(ms)", "merge(ms)", "est(ms)");

  struct Entry {
    const char* name;
    double param;
  };
  const Entry summaries[] = {
      {"M-Sketch", 10}, {"Merge12", 32}, {"RandomW", 32}};

  for (const char* dataset : {"milan", "hepmass", "expon"}) {
    auto id = DatasetFromName(dataset);
    MSKETCH_CHECK(id.ok());
    auto data = GenerateDataset(id.value(), cell_size * pool_cells);
    for (const Entry& s : summaries) {
      auto prototype = MakeAnySummary(s.name, s.param);
      MSKETCH_CHECK(prototype.ok());
      auto pool = BuildCells(data, cell_size, *prototype.value());
      for (uint64_t n : cell_counts) {
        Timer t;
        auto merged = prototype.value()->CloneEmpty();
        for (uint64_t i = 0; i < n; ++i) {
          MSKETCH_CHECK(merged->Merge(*pool[i % pool.size()]).ok());
        }
        const double merge_ms = t.Millis();
        Timer te;
        auto q = merged->EstimateQuantile(0.99);
        MSKETCH_CHECK(q.ok());
        const double est_ms = te.Millis();
        std::printf("%-9s %-9s %10llu %12.3f %12.3f %12.3f\n", dataset,
                    s.name, static_cast<unsigned long long>(n),
                    merge_ms + est_ms, merge_ms, est_ms);
      }
    }
  }

  std::vector<uint64_t> group_counts = {100, 1'000, 10'000};
  if (args.Has("full")) group_counts.push_back(100'000);
  JsonReport report("fig6");
  RunGroupCountSweep(&report, group_counts);
  return 0;
}
