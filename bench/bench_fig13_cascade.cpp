// Figure 13: cascade microbenchmarks on the MacroBase workload.
//   (a) threshold-check throughput as stages are added incrementally
//   (b) standalone throughput of each stage
//   (c) fraction of queries resolved by each stage
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/bounds.h"
#include "core/cascade.h"
#include "cube/data_cube.h"
#include "datasets/datasets.h"

int main(int argc, char** argv) {
  using namespace msketch;
  using namespace msketch::bench;
  Args args(argc, argv);
  const uint64_t rows =
      args.GetU64("rows", 1'000'000) * static_cast<uint64_t>(args.Scale());
  const uint64_t grids = args.GetU64("grids", 100);
  const uint64_t panes = args.GetU64("panes", 20);

  PrintHeader("Figure 13: cascade stage analysis");
  std::printf("paper: (a) QPS 259 -> 2.65k -> 28.3k -> 67.8k\n"
              "       (b) per-stage QPS: Simple 14.3M, Markov 494k, RTT "
              "36.5k, MaxEnt 501\n"
              "       (c) fraction hit: 1.0 / 0.140 / 0.019 / 0.007\n\n");

  // Build the grouped subpopulation sketches once (same workload shape as
  // Figure 12), then measure the threshold checks alone.
  auto values = GenerateDataset(DatasetId::kMilan, rows);
  DataCube<MomentsSummary> cube(3, MomentsSummary(10));
  {
    Rng rng(0x3ACB0);
    for (double v : values) {
      cube.Ingest({static_cast<uint32_t>(rng.NextBelow(grids)),
                   static_cast<uint32_t>(rng.NextBelow(10)),
                   static_cast<uint32_t>(rng.NextBelow(panes))},
                  v);
    }
  }
  MomentsSummary global = cube.MergeAll();
  auto t99r = global.EstimateQuantile(0.99);
  MSKETCH_CHECK(t99r.ok());
  const double t99 = t99r.value();

  std::vector<MomentsSketch> groups;
  for (size_t d = 0; d < 3; ++d) {
    cube.ForEachGroup({d}, [&](const CubeCoords&, const MomentsSummary& s) {
      groups.push_back(s.sketch());
    });
  }
  for (size_t a = 0; a < 3; ++a) {
    for (size_t b = a + 1; b < 3; ++b) {
      cube.ForEachGroup({a, b},
                        [&](const CubeCoords&, const MomentsSummary& s) {
                          groups.push_back(s.sketch());
                        });
    }
  }
  std::printf("workload: %zu subpopulation sketches, threshold t99=%.2f\n\n",
              groups.size(), t99);

  // (a) incremental cascade throughput.
  struct Variant {
    const char* name;
    bool simple, markov, rtt;
  };
  std::printf("(a) threshold query throughput (queries/s)\n");
  for (const Variant& v :
       {Variant{"Baseline", false, false, false},
        Variant{"+Simple", true, false, false},
        Variant{"+Markov", true, true, false},
        Variant{"+RTT", true, true, true}}) {
    CascadeOptions options;
    options.use_simple_check = v.simple;
    options.use_markov = v.markov;
    options.use_rtt = v.rtt;
    ThresholdCascade cascade(options);
    // Variants without the bound stages hit the maxent solver on every
    // group; measure those on a sample to keep the bench fast.
    const size_t n = v.markov ? groups.size()
                              : std::min<size_t>(groups.size(), 400);
    Timer t;
    size_t flagged = 0;
    for (size_t i = 0; i < n; ++i) {
      flagged += cascade.Threshold(groups[i], 0.7, t99) ? 1 : 0;
    }
    const double qps = static_cast<double>(n) / t.Seconds();
    std::printf("  %-10s %12.0f qps   (%zu flagged of %zu checked)\n",
                v.name, qps, flagged, n);
  }

  // (b) standalone stage throughput; (c) fraction resolved per stage.
  std::printf("\n(b) standalone stage throughput (checks/s)\n");
  {
    Timer t;
    size_t n = 0;
    // Repeat to get above timer resolution; report per single pass.
    const int reps = 200;
    for (int rep = 0; rep < reps; ++rep) {
      for (const auto& g : groups) {
        n += (t99 > g.max() || t99 < g.min()) ? 1 : 0;
      }
    }
    asm volatile("" : : "r"(n));
    std::printf("  %-10s %12.0f\n", "Simple",
                static_cast<double>(groups.size()) * reps / t.Seconds());
    t.Reset();
    for (const auto& g : groups) {
      RankBounds b = RankBoundOracle(g).MarkovBound(t99);
      (void)b;
    }
    std::printf("  %-10s %12.0f\n", "Markov",
                static_cast<double>(groups.size()) / t.Seconds());
    t.Reset();
    for (const auto& g : groups) {
      RankBounds b = RankBoundOracle(g).RttBound(t99);
      (void)b;
    }
    std::printf("  %-10s %12.0f\n", "RTT",
                static_cast<double>(groups.size()) / t.Seconds());
    t.Reset();
    size_t solved = 0;
    const size_t sample = std::min<size_t>(groups.size(), 400);
    for (size_t i = 0; i < sample; ++i) {
      auto dist = SolveMaxEnt(groups[i]);
      if (dist.ok()) ++solved;
    }
    std::printf("  %-10s %12.0f   (%zu/%zu converged; %zu-group sample)\n",
                "MaxEnt", static_cast<double>(sample) / t.Seconds(), solved,
                sample, sample);
    (void)n;
  }

  std::printf("\n(c) fraction of queries resolved per stage\n");
  {
    ThresholdCascade cascade;
    for (const auto& g : groups) cascade.Threshold(g, 0.7, t99);
    const auto& st = cascade.stats();
    const double total = static_cast<double>(st.total);
    std::printf("  reach Simple  %7.3f   resolve %7.3f\n", 1.0,
                st.resolved_simple / total);
    std::printf("  reach Markov  %7.3f   resolve %7.3f\n",
                1.0 - st.resolved_simple / total,
                st.resolved_markov / total);
    std::printf("  reach RTT     %7.3f   resolve %7.3f\n",
                1.0 - (st.resolved_simple + st.resolved_markov) / total,
                st.resolved_rtt / total);
    std::printf("  reach MaxEnt  %7.3f   resolve %7.3f\n",
                st.resolved_maxent / total, st.resolved_maxent / total);
  }

  // (d) cascade in batch: GroupByThreshold decides each group it can
  // from its range before merging any moments, routes the open groups
  // through the Markov/RTT bounds, and sends the rest through the batch
  // estimation tiers (warm chains + solver cache) instead of isolated
  // cold solves. The range-resolved share says how many groups were
  // never merged.
  std::printf("\n(d) batched threshold queries (GroupByThreshold)\n");
  const std::vector<std::vector<size_t>> groupings = {{0},    {1},    {2},
                                                      {0, 1}, {0, 2}, {1, 2}};
  for (const std::vector<size_t>& dims : groupings) {
    // Per-group cascade loop (the (a) +RTT configuration). Both columns
    // start from the cube, so "loop" times the group merge too, as
    // GroupByThreshold does.
    Timer tl;
    std::vector<MomentsSketch> dim_groups;
    cube.ForEachGroup(dims, [&](const CubeCoords&, const MomentsSummary& s) {
      dim_groups.push_back(s.sketch());
    });
    ThresholdCascade loop_cascade;
    size_t loop_flagged = 0;
    for (const auto& g : dim_groups) {
      loop_flagged += loop_cascade.Threshold(g, 0.7, t99) ? 1 : 0;
    }
    const double loop_ms = tl.Millis();

    BatchOptions options;
    BatchStats stats;
    Timer tb;
    auto batched = cube.GroupByThreshold(dims, 0.7, t99, options, &stats);
    const double batch_ms = tb.Millis();
    size_t batch_flagged = 0;
    for (const auto& r : batched) batch_flagged += r.exceeds ? 1 : 0;

    std::string name = "dims";
    for (size_t d : dims) name += " " + std::to_string(d);
    std::printf(
        "  %-10s %5zu groups  loop %8.2f ms (%zu flagged)  "
        "batch %8.2f ms (%zu flagged)\n"
        "             range-resolved %5.3f | pruned by bounds %llu | "
        "warm %llu | cold %llu | cache hits %llu | mean Newton %.2f\n",
        name.c_str(), dim_groups.size(), loop_ms, loop_flagged, batch_ms,
        batch_flagged,
        stats.cascade.total == 0
            ? 0.0
            : static_cast<double>(stats.cascade.resolved_simple) /
                  static_cast<double>(stats.cascade.total),
        static_cast<unsigned long long>(stats.CascadePruned()),
        static_cast<unsigned long long>(stats.solve.warm_solves),
        static_cast<unsigned long long>(stats.solve.cold_solves),
        static_cast<unsigned long long>(stats.cache_hits),
        stats.solve.MeanNewtonIterations());
  }
  return 0;
}
