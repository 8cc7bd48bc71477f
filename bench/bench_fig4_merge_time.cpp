// Figure 4: per-merge latency vs summary size on milan, hepmass, and
// exponential (google-benchmark). Cells of 200 rows are pre-built; the
// benchmark measures merging them into a running aggregate, which is the
// inner loop of every cube query.
//
// Also runs a "merge-path" section first (plain timers, no
// google-benchmark): the columnar filtered-merge kernels — exact
// MergeWhere baseline vs the planned QueryWhere without and with the
// rollup index — across ~10% / ~50% / ~90% selectivity filters at
// k = 10, plus the full-cube scalar-vs-SIMD range merge and the GROUP BY
// merge (ForEachGroup by one and two dimensions). Results land in
// BENCH_fig4.json (median/p95 per row) so the perf trajectory is
// tracked across PRs; CI runs `--merge-only` and uploads the JSON.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "cube/cube_store.h"
#include "datasets/datasets.h"

namespace {

using namespace msketch;
using namespace msketch::bench;

struct Config {
  const char* dataset;
  const char* summary;
  double param;
};

constexpr size_t kCellSize = 200;
constexpr size_t kNumCells = 1000;

void BM_Merge(benchmark::State& state, Config cfg) {
  auto id = DatasetFromName(cfg.dataset);
  MSKETCH_CHECK(id.ok());
  auto data = GenerateDataset(id.value(), kCellSize * kNumCells);
  auto prototype = MakeAnySummary(cfg.summary, cfg.param);
  MSKETCH_CHECK(prototype.ok());
  auto cells = BuildCells(data, kCellSize, *prototype.value());

  auto accumulator = prototype.value()->CloneEmpty();
  size_t i = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    MSKETCH_CHECK(accumulator->Merge(*cells[i]).ok());
    if (++i == cells.size()) {
      i = 0;
      state.PauseTiming();
      bytes = std::max(bytes, accumulator->SizeBytes());
      accumulator = prototype.value()->CloneEmpty();
      state.ResumeTiming();
    }
  }
  bytes = std::max(bytes, accumulator->SizeBytes());
  state.counters["bytes"] = static_cast<double>(bytes);
}

void RegisterAll() {
  struct Sweep {
    const char* summary;
    std::vector<double> params;
  };
  const std::vector<Sweep> sweeps = {
      {"M-Sketch", {4, 10, 15}},  {"Merge12", {16, 64, 256}},
      {"RandomW", {16, 64, 256}}, {"GK", {20, 60}},
      {"T-Digest", {20, 100, 400}}, {"Sampling", {250, 1000, 8000}},
      {"S-Hist", {10, 100, 1000}},  {"EW-Hist", {15, 100, 1000}},
  };
  for (const char* dataset : {"milan", "hepmass", "expon"}) {
    for (const auto& sweep : sweeps) {
      for (double param : sweep.params) {
        std::string name = std::string("merge/") + dataset + "/" +
                           sweep.summary + "/" + std::to_string(
                                                     static_cast<int>(param));
        benchmark::RegisterBenchmark(
            name.c_str(), BM_Merge, Config{dataset, sweep.summary, param})
            ->MinTime(0.05);
      }
    }
  }
}

// ------------------------------------------------- merge-path section

// Cube with controllable single-dimension selectivities:
//   dim 0: cell_index % 10            -> each value matches ~10% of cells
//   dim 1: 1 when cell_index % 10 == 0, else 0
//                                     -> value 0 ~90%, value 1 ~10%
//   dim 2: 0 when cell_index % 20 == 0, else 1
//                                     -> value 1 ~95%, value 0 ~5%
//   dim 3: cell_index                 -> one cell per value
CubeStore BuildMergePathStore(size_t num_cells, int k) {
  CubeStore store(4, k);
  Rng rng(421);
  for (size_t c = 0; c < num_cells; ++c) {
    const CubeCoords coords = {static_cast<uint32_t>(c % 10),
                               static_cast<uint32_t>(c % 10 == 0 ? 1 : 0),
                               static_cast<uint32_t>(c % 20 == 0 ? 0 : 1),
                               static_cast<uint32_t>(c)};
    store.Ingest(coords, rng.NextLognormal(0.0, 0.7));
    store.Ingest(coords, rng.NextLognormal(0.0, 0.7));
  }
  return store;
}

void RunMergePathSection(const Args& args) {
  const int k = 10;
  const size_t num_cells =
      static_cast<size_t>(args.GetU64("cells", 50'000) * args.Scale());
  const int reps = static_cast<int>(args.GetU64("reps", 15));
  PrintHeader("merge-path: filtered columnar merge at k = 10, " +
              std::to_string(num_cells) + " cells");
  CubeStore store = BuildMergePathStore(num_cells, k);
  JsonReport report("fig4");
  const double n = static_cast<double>(store.num_cells());

  // Full-cube merge: exact scalar kernel vs the SIMD column reduction.
  std::printf("%-28s %-12s %10s %10s %14s\n", "query", "plan", "med(ms)",
              "p95(ms)", "cells/s");
  auto add_row = [&](const std::string& section, const std::string& name,
                     const char* plan, double matching,
                     const std::vector<double>& ms,
                     std::vector<std::pair<std::string, double>> extra = {}) {
    const double med = MedianOf(ms);
    const double rate = med > 0.0 ? matching / (med * 1e-3) : 0.0;
    extra.emplace_back("cells_per_s", rate);
    extra.emplace_back("matching_cells", matching);
    report.Add(section, name, ms, extra);
    std::printf("%-28s %-12s %10.3f %10.3f %14.3e\n", name.c_str(), plan,
                med, PercentileOf(ms, 0.95), rate);
  };

  {
    MomentsSketch sink(k);
    auto scalar_ms = TimeReps(reps, [&] {
      MomentsSketch out(k);
      MSKETCH_CHECK(out.MergeFlatRange(store.Columns(), 0,
                                       store.num_cells()).ok());
      sink = std::move(out);
    });
    add_row("full-merge", "MergeFlatRange(scalar)", "-", n, scalar_ms);
    auto simd_ms = TimeReps(reps, [&] {
      MomentsSketch out(k);
      MSKETCH_CHECK(out.MergeFlatRangeFast(store.Columns(), 0,
                                           store.num_cells()).ok());
      sink = std::move(out);
    });
    add_row("full-merge", "MergeFlatRangeFast(simd)", "-", n, simd_ms);
  }

  // GROUP BY merge: every group's sketch over the whole cube, 10 groups
  // by dim 0 and 20 by dims 0 and 2 (the GroupByQuantiles merge step
  // off the rollup path; GroupByThreshold reduces only the groups its
  // range stage leaves open).
  {
    const std::vector<std::pair<std::string, std::vector<size_t>>> groupings =
        {{"ForEachGroup({0})", {0}}, {"ForEachGroup({0,2})", {0, 2}}};
    for (const auto& [name, dims] : groupings) {
      size_t groups = 0;
      auto group_ms = TimeReps(reps, [&] {
        groups = 0;
        store.ForEachGroup(
            dims, [&](const CubeCoords&, const MomentsSketch&) { ++groups; });
      });
      add_row("group", name, "-", n, group_ms,
              {{"groups", static_cast<double>(groups)}});
    }
  }

  // Filtered merges across selectivities; exact baseline vs planned
  // query without a rollup vs with a fresh rollup.
  struct FilterCase {
    const char* name;
    CubeFilter filter;
  };
  const std::vector<FilterCase> cases = {
      {"sel~10% (d0=3)", {3, kAnyValue, kAnyValue, kAnyValue}},
      {"sel~10% (d1=1)", {kAnyValue, 1, kAnyValue, kAnyValue}},
      {"sel~90% (d1=0)", {kAnyValue, 0, kAnyValue, kAnyValue}},
      {"sel~86% (d1=0,d2=1)", {kAnyValue, 0, 1, kAnyValue}},
      {"sel~9% (d0=3,d1=0)", {3, 0, kAnyValue, kAnyValue}},
  };
  MomentsSketch sink(k);
  for (const FilterCase& c : cases) {
    CubeStore::QueryStats stats;
    store.MergeWhereScan(c.filter, &stats);
    const double m = static_cast<double>(stats.merges);
    auto base_ms = TimeReps(
        reps, [&] { sink = store.MergeWhere(c.filter); });
    add_row(std::string("filtered/") + c.name, "MergeWhere(exact)",
            "intersect", m, base_ms);
    auto plan_ms = TimeReps(
        reps, [&] { sink = store.QueryWhere(c.filter, &stats); });
    add_row(std::string("filtered/") + c.name, "QueryWhere(no rollup)",
            QueryPlanName(stats.plan), m, plan_ms);
  }

  {
    Timer t;
    store.BuildRollup(RollupOptions{});
    const double build_ms = t.Millis();
    std::printf("rollup build: %.2f ms, %zu nodes, %.2f MB\n", build_ms,
                store.rollup()->num_nodes(),
                static_cast<double>(store.rollup()->SizeBytes()) / 1e6);
    report.Add("rollup-build", "BuildRollup", {build_ms},
               {{"nodes", static_cast<double>(store.rollup()->num_nodes())},
                {"bytes", static_cast<double>(store.rollup()->SizeBytes())}});
  }
  for (const FilterCase& c : cases) {
    CubeStore::QueryStats stats;
    store.QueryWhere(c.filter, &stats);
    const double m = static_cast<double>(stats.merges);
    auto rollup_ms = TimeReps(
        reps, [&] { sink = store.QueryWhere(c.filter, &stats); });
    add_row(std::string("filtered/") + c.name, "QueryWhere(rollup)",
            QueryPlanName(stats.plan), m, rollup_ms,
            {{"span_merges", static_cast<double>(stats.span_merges)},
             {"residual_merges", static_cast<double>(stats.residual_merges)},
             {"subtract_merges",
              static_cast<double>(stats.subtract_merges)}});
  }
  const PlanCounters& pc = store.plan_counters();
  std::printf(
      "plan counters: scan=%llu intersect=%llu rollup=%llu "
      "complement=%llu\n\n",
      static_cast<unsigned long long>(pc.scan.load()),
      static_cast<unsigned long long>(pc.intersect.load()),
      static_cast<unsigned long long>(pc.rollup.load()),
      static_cast<unsigned long long>(pc.complement.load()));
  (void)sink;
  report.Write();
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  RunMergePathSection(args);
  if (args.Has("merge-only")) return 0;
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  std::printf(
      "Figure 4: per-merge latency (paper: M-Sketch < 50ns across sizes;\n"
      "other summaries 16-50x slower at comparable accuracy)\n");
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
