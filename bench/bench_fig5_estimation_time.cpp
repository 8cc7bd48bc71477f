// Figure 5: quantile estimation time vs summary size (google-benchmark).
// The moments sketch pays a ~1ms maxent solve where comparison summaries
// read quantiles in microseconds — the flip side of its 50ns merges.
//
// Extended with the batched estimation pipeline: "M-Sketch" rows are the
// paper's cold solve (full pipeline, no caching); "M-Sketch-cached" rows
// go through EstimateQuantiles and hence the process-wide solver cache;
// "ingest" rows compare scalar Accumulate with the unrolled
// AccumulateBatch kernel; and a final section demonstrates warm-started
// batch estimation (GroupByQuantiles) against a cold per-group solve
// loop, with per-batch BatchStats.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <utility>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/cohorts.h"
#include "common/rng.h"
#include "core/maxent_solver.h"
#include "core/moments_sketch.h"
#include "cube/data_cube.h"
#include "datasets/datasets.h"

namespace {

using namespace msketch;
using namespace msketch::bench;

constexpr size_t kRows = 100'000;

void BM_EstimateBaseline(benchmark::State& state, const char* dataset,
                         const char* summary, double param) {
  auto id = DatasetFromName(dataset);
  MSKETCH_CHECK(id.ok());
  auto data = GenerateDataset(id.value(), kRows);
  auto built = MakeAnySummary(summary, param);
  MSKETCH_CHECK(built.ok());
  for (double x : data) built.value()->Accumulate(x);
  double phi = 0.5;
  for (auto _ : state) {
    auto q = built.value()->EstimateQuantile(phi);
    benchmark::DoNotOptimize(q);
    phi = (phi == 0.5) ? 0.9 : 0.5;  // defeat result caching
  }
  state.counters["bytes"] = static_cast<double>(built.value()->SizeBytes());
}

void BM_EstimateMSketch(benchmark::State& state, const char* dataset,
                        int k) {
  auto id = DatasetFromName(dataset);
  MSKETCH_CHECK(id.ok());
  auto data = GenerateDataset(id.value(), kRows);
  MomentsSketch sketch(k);
  for (double x : data) sketch.Accumulate(x);
  for (auto _ : state) {
    // Full cold pipeline: moment conversion + (k1,k2) selection + Newton
    // + CDF inversion, bypassing every cache tier.
    auto dist = SolveMaxEnt(sketch);
    benchmark::DoNotOptimize(dist);
    if (dist.ok()) {
      double q = dist->Quantile(0.5);
      benchmark::DoNotOptimize(q);
    }
  }
  state.counters["bytes"] = static_cast<double>(sketch.SizeBytes());
}

void BM_EstimateMSketchCached(benchmark::State& state, const char* dataset,
                              int k) {
  auto id = DatasetFromName(dataset);
  MSKETCH_CHECK(id.ok());
  auto data = GenerateDataset(id.value(), kRows);
  MomentsSketch sketch(k);
  for (double x : data) sketch.Accumulate(x);
  double phi = 0.5;
  for (auto _ : state) {
    // The convenience wrapper: first call solves, the rest hit the
    // process-wide solver cache (repeated-query workloads).
    auto q = EstimateQuantiles(sketch, {phi});
    benchmark::DoNotOptimize(q);
    phi = (phi == 0.5) ? 0.9 : 0.5;
  }
  state.counters["bytes"] = static_cast<double>(sketch.SizeBytes());
}

// ------------------------------------------------- ingestion kernels

void BM_IngestScalar(benchmark::State& state, int k) {
  auto data = GenerateDataset(DatasetId::kMilan, kRows);
  for (auto _ : state) {
    MomentsSketch sketch(k);
    for (double x : data) sketch.Accumulate(x);
    benchmark::DoNotOptimize(sketch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}

void BM_IngestBatch(benchmark::State& state, int k) {
  auto data = GenerateDataset(DatasetId::kMilan, kRows);
  for (auto _ : state) {
    MomentsSketch sketch(k);
    sketch.AccumulateBatch(data.data(), data.size());
    benchmark::DoNotOptimize(sketch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}

void RegisterAll() {
  struct Sweep {
    const char* summary;
    std::vector<double> params;
  };
  const std::vector<Sweep> sweeps = {
      {"Merge12", {16, 64, 256}}, {"RandomW", {16, 64, 256}},
      {"GK", {20, 60}},           {"T-Digest", {20, 100, 400}},
      {"Sampling", {250, 1000, 8000}}, {"S-Hist", {10, 100, 1000}},
      {"EW-Hist", {15, 100, 1000}},
  };
  for (const char* dataset : {"milan", "hepmass", "expon"}) {
    for (int k : {4, 10, 15}) {
      std::string name = std::string("estimate/") + dataset + "/M-Sketch/" +
                         std::to_string(k);
      benchmark::RegisterBenchmark(name.c_str(), BM_EstimateMSketch, dataset,
                                   k)
          ->MinTime(0.05);
      std::string cached_name = std::string("estimate/") + dataset +
                                "/M-Sketch-cached/" + std::to_string(k);
      benchmark::RegisterBenchmark(cached_name.c_str(),
                                   BM_EstimateMSketchCached, dataset, k)
          ->MinTime(0.05);
    }
    for (const auto& sweep : sweeps) {
      for (double param : sweep.params) {
        std::string name = std::string("estimate/") + dataset + "/" +
                           sweep.summary + "/" +
                           std::to_string(static_cast<int>(param));
        benchmark::RegisterBenchmark(name.c_str(), BM_EstimateBaseline,
                                     dataset, sweep.summary, param)
            ->MinTime(0.05);
      }
    }
  }
  for (int k : {10, 15}) {
    benchmark::RegisterBenchmark(
        (std::string("ingest/scalar/") + std::to_string(k)).c_str(),
        BM_IngestScalar, k)
        ->MinTime(0.05);
    benchmark::RegisterBenchmark(
        (std::string("ingest/batch/") + std::to_string(k)).c_str(),
        BM_IngestBatch, k)
        ->MinTime(0.05);
  }
}

// ----------------------------- batched estimation: warm chain vs cold
//
// The acceptance experiment for the estimation engine. Two workloads
// (drifting lognormal cohorts; uniform cells of near-identical shape),
// two paths each:
//
//   cold    per-group SolveMaxEnt loop
//   chain   GroupByQuantiles: similarity order, warm chains and cache
//
// Reports wall clock per group, groups/s, the BatchStats solve counters
// (warm/cold solves, cache hits), and the worst quantile deviation of
// the warm chain against the cold solves. Everything lands in
// BENCH_fig5.json.
struct BatchRunResult {
  std::vector<double> ms;  // per-rep wall clock
  BatchStats stats;
  std::vector<GroupQuantiles> results;
};

BatchRunResult RunBatch(const DataCube<MomentsSummary>& cube,
                        const std::vector<double>& phis, int threads,
                        int reps) {
  BatchRunResult out;
  BatchOptions options;
  options.threads = threads;
  for (int r = 0; r < reps; ++r) {
    BatchStats stats;
    Timer t;
    auto results = cube.GroupByQuantiles({0}, phis, options, &stats);
    out.ms.push_back(t.Millis());
    out.stats = stats;
    out.results = std::move(results);
  }
  return out;
}

void RunBatchSolverSection(JsonReport* report, const char* workload,
                           const DataCube<MomentsSummary>& cube,
                           size_t groups, int threads, int reps) {
  std::printf(
      "\n-------------------------------------------------------------\n"
      "batched estimation, %s workload (%zu groups, %d thread%s)\n",
      workload, groups, threads, threads == 1 ? "" : "s");
  const std::vector<double> phis = {0.5, 0.99};

  // Cold loop: one independent solve per group (single rep; it is the
  // slow baseline and the parity reference).
  uint64_t cold_newton = 0, cold_solved = 0;
  std::map<CubeCoords, MaxEntDistribution> cold;
  Timer tc;
  cube.store().ForEachGroup({0}, [&](const CubeCoords& key,
                                     const MomentsSketch& sketch) {
    auto dist = SolveMaxEnt(sketch);
    if (!dist.ok()) return;
    cold_newton +=
        static_cast<uint64_t>(dist->diagnostics().newton_iterations);
    ++cold_solved;
    cold.emplace(key, std::move(dist).value());
  });
  const double cold_ms = tc.Millis();

  BatchRunResult chain = RunBatch(cube, phis, threads, reps);

  // Chain-vs-cold parity: groups fitting the same moment subset must
  // agree to Newton tolerance (a warm seed converges to the same moment
  // match, not the same bits); subset changes (a warm seed converging
  // where the cold start drops a moment) are counted, not folded into
  // the deviation.
  double max_rel_dev = 0.0;
  size_t subset_diff = 0;
  for (const GroupQuantiles& rc : chain.results) {
    auto it = cold.find(rc.key);
    if (!rc.status.ok() || rc.used_atomic || it == cold.end()) continue;
    const MaxEntDiagnostics& diag = it->second.diagnostics();
    if (std::make_pair(rc.k1, rc.k2) != std::make_pair(diag.k1, diag.k2)) {
      ++subset_diff;
      continue;
    }
    for (size_t p = 0; p < phis.size(); ++p) {
      const double qc = it->second.Quantile(phis[p]);
      max_rel_dev = std::max(
          max_rel_dev,
          std::fabs(rc.quantiles[p] - qc) / std::max(1.0, std::fabs(qc)));
    }
  }

  const double g = static_cast<double>(groups);
  const double chain_ms = MedianOf(chain.ms);
  const double speedup = chain_ms > 0 ? cold_ms / chain_ms : 0.0;
  auto groups_per_s = [&](double ms) { return ms > 0 ? 1e3 * g / ms : 0.0; };
  std::printf(
      "  cold loop   : %9.1f ms  (%7.1f us/group, %8.0f groups/s)  "
      "iters %.2f\n",
      cold_ms, 1e3 * cold_ms / g, groups_per_s(cold_ms),
      cold_solved ? static_cast<double>(cold_newton) /
                        static_cast<double>(cold_solved)
                  : 0.0);
  std::printf(
      "  warm chain  : %9.1f ms  (%7.1f us/group, %8.0f groups/s)  "
      "iters %.2f  -> %.2fx cold loop\n",
      chain_ms, 1e3 * chain_ms / g, groups_per_s(chain_ms),
      chain.stats.solve.MeanNewtonIterations(), speedup);
  std::printf(
      "  chain stats : warm %llu | cold %llu | cold restarts %llu | "
      "cache hits %llu\n",
      static_cast<unsigned long long>(chain.stats.solve.warm_solves),
      static_cast<unsigned long long>(chain.stats.solve.cold_solves),
      static_cast<unsigned long long>(chain.stats.solve.cold_restarts),
      static_cast<unsigned long long>(chain.stats.cache_hits));
  std::printf(
      "  parity      : max relative quantile deviation vs cold %.3g "
      "(same subset); %zu group(s) fit a different subset\n",
      max_rel_dev, subset_diff);

  const std::string section = std::string("batch_") + workload;
  report->Add(section, "cold_loop", {cold_ms},
              {{"groups", g}, {"groups_per_s", groups_per_s(cold_ms)}});
  report->Add(
      section, "warm_chain", chain.ms,
      {{"groups", g},
       {"groups_per_s", groups_per_s(chain_ms)},
       {"speedup_vs_cold_loop", speedup},
       {"warm_solves", static_cast<double>(chain.stats.solve.warm_solves)},
       {"mean_newton_iters", chain.stats.solve.MeanNewtonIterations()},
       {"cache_hits", static_cast<double>(chain.stats.cache_hits)},
       {"max_rel_dev_vs_cold", max_rel_dev},
       {"subset_diffs", static_cast<double>(subset_diff)}});
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our custom flags before google-benchmark sees argv.
  size_t batch_groups = 10'000;
  int batch_threads = 1;
  int batch_reps = 3;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--batch-groups=", 15) == 0) {
      batch_groups = static_cast<size_t>(std::atoll(argv[i] + 15));
    } else if (std::strncmp(argv[i], "--batch-threads=", 16) == 0) {
      batch_threads = std::atoi(argv[i] + 16);
    } else if (std::strncmp(argv[i], "--batch-reps=", 13) == 0) {
      batch_reps = std::atoi(argv[i] + 13);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  RegisterAll();
  benchmark::Initialize(&pass_argc, passthrough.data());
  std::printf(
      "Figure 5: estimation time (paper: M-Sketch ~1-3ms via maxent solve;\n"
      "comparison summaries answer in microseconds). M-Sketch rows are\n"
      "cold solves; M-Sketch-cached rows hit the solver cache.\n");
  benchmark::RunSpecifiedBenchmarks();
  if (batch_groups > 0) {
    JsonReport report("fig5");
    const int threads = std::max(1, batch_threads);
    const int reps = std::max(1, batch_reps);
    {
      auto cube = BuildDriftingCohortCube(batch_groups, 200);
      RunBatchSolverSection(&report, "cohorts", cube, batch_groups, threads,
                            reps);
    }
    {
      auto cube = BuildUniformCellsCube(batch_groups, 200);
      RunBatchSolverSection(&report, "uniform_cells", cube, batch_groups,
                            threads, reps);
    }
  }
  return 0;
}
