// Summary-router bench: per-backend answer latency and certified
// interval width across a smooth + adversarial dataset suite, emitted to
// BENCH_router.json (bench_util JsonReport).
//
// Sections:
//   smooth       healthy cells (uniform / lognormal / gauss-like): the
//                maxent path, with and without a KLL alongside (the KLL
//                column buys certificate tightening; the row records how
//                much interval width it shaves).
//   adversarial  pathological cells (two-atom, discrete, heavy-tail
//                pareto, near-singular, clustered, single-atom): the
//                degradation chain. Every row carries `certified` and
//                `contains_truth` flags — the CI gate
//                (tools/check_router_gate.py) fails if any adversarial
//                answer is uncertified or its certificate misses the
//                true quantile. `backend` is the QuantileBackend enum
//                value of the phi=0.5 answer.
//   groupby      the same datasets as groups of one cube (four cells
//                each, KLL side column on), answered by one certified
//                GROUP BY (GroupByQuantilesCertified: the warm-chain
//                pipeline with the router's chain around its solves).
//                Rows carry the same `certified` / `contains_truth`
//                flags; the samples time the whole GROUP BY call.
//   small        pinned 150–1200-row milan / retail selections
//                (GenerateDataset seeds) where the conditioning
//                pre-screen rejects the moments and the moment interval,
//                trusted, excluded every exact quantile. One row per
//                selection over its pinned phis; `contains_truth` means
//                the certificate holds an exact quantile: some row q
//                with #{x < q} <= phi*n <= #{x <= q}, within
//                1e-5 * (|min| + |max| + 1).
//   exact        selections an uncompacted KLL holds whole: 1/2/17/63-row
//                milan / retail cells, and two selections of small cells
//                of a CubeStore merged by MergeKllWhere (the lossless
//                union): 300 rows over 20 cells, and 2048 one-row cells
//                (the union's cap of 32 * kll_k rows). The router answers each phi from the
//                KLL's point certificate. Rows carry `certified`,
//                `contains_truth` (as in `small`), `width` (the widest
//                certificate, upper - lower) and `solves` (maxent solves
//                recorded); the gate fails any nonzero width or solve.
//   solver       pinned small milan / retail selections (GenerateDataset
//                seeds) whose cold SolveMaxEnt has Newton runs that end
//                at the iteration cap, most of them at a fixed point
//                (theta stops moving) long before it. One row per
//                selection with `objective_evals` (function + Hessian
//                evaluations over every Newton run, failed ones
//                included), `iteration_capped`, `backoff_drops` and a
//                `solved` flag; the samples time the solve. The counts
//                are deterministic; the gate fails a row that no longer
//                reaches the cap or that spends more evaluations than
//                its ceiling.
//   cache        one smooth selection (lognormal, KLL alongside) queried
//                reps + 1 times by a router on the process-wide solver
//                cache. The first query solves; the samples time the
//                reps after it. The row carries `cache_hits` and
//                `solves` recorded by those reps and `cold_ms`, the
//                first query's time, plus an `identical` flag: every
//                rep's answers match, bit for bit, the ones the suite's
//                always-solving router gives. The gate fails a row whose
//                reps solve, miss the cache, or change an answer.
//   counters     one row of cumulative RouterStats over the whole run
//                (solver failures absorbed, conditioning rejects,
//                fallback depths) so a latency regression can be read
//                together with a routing change. That router runs with
//                the solver cache off (MaxEntOptions::use_solver_cache),
//                so the smooth, adversarial and small rows time a solve
//                in every rep, not a cache hit after the first.
//
// Interval widths are reported relative to the cell's value range
// (width / (max - min)); 0 means exact, 1 means the trivial certificate.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/macros.h"
#include "core/maxent_solver.h"
#include "core/moments_sketch.h"
#include "cube/batch_query.h"
#include "cube/cube_store.h"
#include "cube/summary_router.h"
#include "datasets/datasets.h"
#include "numerics/stats.h"
#include "sketches/kll_sketch.h"

namespace {

using namespace msketch;
using namespace msketch::bench;

const double kPhiGrid[] = {0.01, 0.1, 0.5, 0.9, 0.99};

std::vector<double> NamedData(const std::string& name, size_t n) {
  Rng rng(0xb0a7ULL + std::hash<std::string>{}(name));
  std::vector<double> out;
  out.reserve(n);
  if (name == "uniform") {
    for (size_t i = 0; i < n; ++i) out.push_back(rng.NextDouble());
  } else if (name == "lognormal") {
    for (size_t i = 0; i < n; ++i) out.push_back(rng.NextLognormal(0.0, 1.0));
  } else if (name == "gauss_mix") {
    for (size_t i = 0; i < n; ++i) {
      out.push_back(rng.NextGaussian() + (i % 2 ? 4.0 : 0.0));
    }
  } else if (name == "two_atom") {
    for (size_t i = 0; i < n; ++i) {
      out.push_back(rng.NextDouble() < 0.6 ? 1.0 : 5.0);
    }
  } else if (name == "discrete") {
    const double levels[] = {1.0, 2.0, 4.0, 8.0, 16.0};
    for (size_t i = 0; i < n; ++i) out.push_back(levels[rng.NextBelow(5)]);
  } else if (name == "pareto_heavy") {
    for (size_t i = 0; i < n; ++i) {
      out.push_back(std::pow(1.0 - rng.NextDouble(), -1.0 / 1.1));
    }
  } else if (name == "near_singular") {
    for (size_t i = 0; i < n; ++i) {
      out.push_back(1.0 + 1e-9 * rng.NextDouble());
    }
  } else if (name == "clustered") {
    for (size_t i = 0; i < n; ++i) {
      const double base = (i % 3 == 0) ? 1e-6 : 1e3;
      out.push_back(base * (1.0 + 1e-7 * rng.NextDouble()));
    }
  } else if (name == "single_atom") {
    for (size_t i = 0; i < n; ++i) out.push_back(42.0);
  }
  return out;
}

struct CellRun {
  std::vector<double> samples_ms;
  std::vector<CertifiedQuantile> answers;  // from the last rep
};

CellRun RunCell(SummaryRouter* router, const MomentsSketch& s,
                const KllSketch* kll, int reps) {
  const std::vector<double> phis(kPhiGrid, kPhiGrid + 5);
  CellRun run;
  run.samples_ms = TimeReps(reps, [&] {
    run.answers = router->QueryMany(s, kll, phis);
  });
  return run;
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
         a.backend == b.backend;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const size_t rows =
      static_cast<size_t>(args.GetU64("rows", 100'000) * args.Scale());
  const int reps = static_cast<int>(args.GetU64("reps", 21));

  JsonReport report("router");
  // Cumulative counters across the whole suite. The solver cache is off
  // so every rep of a row solves again.
  RouterOptions solve_each;
  solve_each.maxent.use_solver_cache = false;
  SummaryRouter router(solve_each);

  struct Suite {
    const char* section;
    std::vector<const char*> datasets;
  };
  const Suite suites[] = {
      {"smooth", {"uniform", "lognormal", "gauss_mix"}},
      {"adversarial",
       {"two_atom", "discrete", "pareto_heavy", "near_singular", "clustered",
        "single_atom"}},
  };

  for (const Suite& suite : suites) {
    for (const char* name : suite.datasets) {
      std::vector<double> data = NamedData(name, rows);
      MomentsSketch s(10);
      KllSketch kll(64);
      for (double v : data) {
        s.Accumulate(v);
        kll.Accumulate(v);
      }
      std::vector<double> sorted = std::move(data);
      std::sort(sorted.begin(), sorted.end());
      const double range = std::max(s.max() - s.min(), 1e-300);
      const double slack =
          1e-6 * (std::abs(s.max()) + std::abs(s.min()) + 1.0);

      // Two variants per dataset: moments-only and dual-summary.
      const std::pair<const char*, const KllSketch*> variants[] = {
          {"", nullptr}, {"+kll", &kll}};
      for (const auto& [suffix, side] : variants) {
        CellRun run = RunCell(&router, s, side, reps);
        bool certified = !run.answers.empty();
        bool contains_truth = !run.answers.empty();
        double median_width = 0.0;
        std::vector<double> widths;
        for (size_t i = 0; i < run.answers.size(); ++i) {
          const CertifiedQuantile& a = run.answers[i];
          certified = certified && a.status.ok() && a.certified;
          const double truth = QuantileOfSorted(sorted, kPhiGrid[i]);
          contains_truth = contains_truth && a.interval.lower <= truth + slack &&
                           a.interval.upper >= truth - slack;
          widths.push_back(a.interval.width() / range);
        }
        if (!widths.empty()) median_width = MedianOf(widths);
        const double backend =
            run.answers.empty()
                ? -1.0
                : static_cast<double>(run.answers[2].backend);  // phi = 0.5
        report.Add(suite.section, std::string(name) + suffix, run.samples_ms,
                   {{"rows", static_cast<double>(rows)},
                    {"rel_interval_width_p50", median_width},
                    {"backend", backend}},
                   {{"certified", certified},
                    {"contains_truth", contains_truth}});
      }
    }
  }

  // Certified GROUP BY over every dataset at once: one group each,
  // split over four cells so the group merge runs too.
  {
    std::vector<const char*> names;
    for (const Suite& suite : suites) {
      names.insert(names.end(), suite.datasets.begin(), suite.datasets.end());
    }
    constexpr uint32_t kCellsPerGroup = 4;
    CubeStore store(2, 10);
    store.EnableKll(64);
    std::vector<std::vector<double>> sorted(names.size());
    for (uint32_t g = 0; g < names.size(); ++g) {
      sorted[g] = NamedData(names[g], rows);
      const size_t per = (rows + kCellsPerGroup - 1) / kCellsPerGroup;
      for (uint32_t c = 0; c < kCellsPerGroup; ++c) {
        const size_t begin = std::min(rows, c * per);
        const size_t end = std::min(rows, begin + per);
        if (begin == end) continue;
        MomentsSketch s(10);
        KllSketch kll(64);
        for (size_t i = begin; i < end; ++i) {
          s.Accumulate(sorted[g][i]);
          kll.Accumulate(sorted[g][i]);
        }
        MSKETCH_CHECK(store.ApplyDelta({g, c}, s).ok());
        MSKETCH_CHECK(store.ApplyKllDelta({g, c}, kll).ok());
      }
      std::sort(sorted[g].begin(), sorted[g].end());
    }
    const std::vector<double> phis(kPhiGrid, kPhiGrid + 5);
    std::vector<GroupQuantilesCertified> groups;
    const std::vector<double> call_ms = TimeReps(reps, [&] {
      groups = GroupByQuantilesCertified(store, {0}, phis);
    });
    MSKETCH_CHECK(groups.size() == names.size());
    for (const GroupQuantilesCertified& grp : groups) {
      const std::vector<double>& rows_sorted = sorted[grp.key[0]];
      const double lo = rows_sorted.front(), hi = rows_sorted.back();
      const double range = std::max(hi - lo, 1e-300);
      const double slack = 1e-6 * (std::abs(hi) + std::abs(lo) + 1.0);
      bool certified = grp.answers.size() == phis.size() &&
                       grp.count == rows_sorted.size();
      bool contains_truth = certified;
      std::vector<double> widths;
      for (size_t i = 0; i < grp.answers.size(); ++i) {
        const CertifiedQuantile& a = grp.answers[i];
        certified = certified && a.status.ok() && a.certified;
        const double truth = QuantileOfSorted(rows_sorted, phis[i]);
        contains_truth = contains_truth &&
                         a.interval.lower <= truth + slack &&
                         a.interval.upper >= truth - slack;
        widths.push_back(a.interval.width() / range);
      }
      report.Add("groupby", names[grp.key[0]], call_ms,
                 {{"rows", static_cast<double>(grp.count)},
                  {"rel_interval_width_p50",
                   widths.empty() ? 0.0 : MedianOf(widths)},
                  {"backend", grp.answers.empty()
                                  ? -1.0
                                  : static_cast<double>(
                                        grp.answers[2].backend)}},
                 {{"certified", certified},
                  {"contains_truth", contains_truth}});
    }
  }

  // Pinned small heavy-tailed selections (see the header comment).
  {
    struct SmallCase {
      DatasetId data;
      uint64_t n;
      uint64_t seed;
      std::vector<double> phis;
    };
    const SmallCase cases[] = {
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
    for (const SmallCase& c : cases) {
      std::vector<double> sorted = GenerateDataset(c.data, c.n, c.seed);
      MomentsSketch s(10);
      KllSketch kll(64);
      for (double v : sorted) {
        s.Accumulate(v);
        kll.Accumulate(v);
      }
      std::sort(sorted.begin(), sorted.end());
      const double slack =
          1e-5 * (std::abs(s.min()) + std::abs(s.max()) + 1.0);
      std::vector<CertifiedQuantile> answers;
      const std::vector<double> samples_ms = TimeReps(reps, [&] {
        answers = router.QueryMany(s, &kll, c.phis);
      });
      bool certified = answers.size() == c.phis.size();
      bool contains_truth = certified;
      for (size_t i = 0; i < answers.size(); ++i) {
        certified = certified && answers[i].status.ok() && answers[i].certified;
        contains_truth = contains_truth &&
                         HoldsExactQuantile(answers[i].interval, sorted,
                                            c.phis[i], slack);
      }
      report.Add("small",
                 DatasetName(c.data) + "_n" + std::to_string(c.n) + "_s" +
                     std::to_string(c.seed),
                 samples_ms,
                 {{"rows", static_cast<double>(c.n)},
                  {"backend", answers.empty()
                                  ? -1.0
                                  : static_cast<double>(answers[0].backend)}},
                 {{"certified", certified},
                  {"contains_truth", contains_truth}});
    }
  }

  // Exact selections (see the header comment).
  {
    const std::vector<double> phis(kPhiGrid, kPhiGrid + 5);
    auto add_exact = [&](const std::string& name, const MomentsSketch& s,
                         const KllSketch& kll, std::vector<double> sorted) {
      std::sort(sorted.begin(), sorted.end());
      const double slack =
          1e-5 * (std::abs(sorted.front()) + std::abs(sorted.back()) + 1.0);
      auto solves = [&] {
        return router.stats().solve.warm_solves +
               router.stats().solve.cold_solves;
      };
      const uint64_t solves_before = solves();
      std::vector<CertifiedQuantile> answers;
      const std::vector<double> samples_ms = TimeReps(reps, [&] {
        answers = router.QueryMany(s, &kll, phis);
      });
      bool certified = answers.size() == phis.size();
      bool contains_truth = certified;
      double width = 0.0;
      for (size_t i = 0; i < answers.size(); ++i) {
        certified = certified && answers[i].status.ok() && answers[i].certified;
        contains_truth = contains_truth &&
                         HoldsExactQuantile(answers[i].interval, sorted,
                                            phis[i], slack);
        width = std::max(width, answers[i].interval.width());
      }
      report.Add("exact", name, samples_ms,
                 {{"rows", static_cast<double>(sorted.size())},
                  {"width", width},
                  {"solves", static_cast<double>(solves() - solves_before)}},
                 {{"certified", certified},
                  {"contains_truth", contains_truth}});
    };
    for (DatasetId data : {DatasetId::kMilan, DatasetId::kRetail}) {
      for (uint64_t n : {1, 2, 17, 63}) {
        const std::vector<double> rows = GenerateDataset(data, n, 7000 + n);
        MomentsSketch s(10);
        KllSketch kll(64);
        for (double v : rows) {
          s.Accumulate(v);
          kll.Accumulate(v);
        }
        add_exact(DatasetName(data) + "_n" + std::to_string(n), s, kll, rows);
      }
    }
    // 300 rows over 20 cells, and 2048 one-row cells: the lossless
    // union's cap of 32 * kll_k rows.
    for (auto [n, cells] : {std::pair<uint64_t, uint32_t>{300, 20},
                            std::pair<uint64_t, uint32_t>{2048, 2048}}) {
      const std::vector<double> rows =
          GenerateDataset(DatasetId::kMilan, n, 7000 + n);
      CubeStore store(2, 10);
      store.EnableKll(64);
      for (size_t i = 0; i < rows.size(); ++i) {
        store.Ingest({0, static_cast<uint32_t>(i % cells)}, rows[i]);
      }
      const CubeFilter all = {0, kAnyValue};
      Result<KllSketch> kll = store.MergeKllWhere(all);
      MSKETCH_CHECK(kll.ok());
      add_exact("store_milan_n" + std::to_string(n), store.QueryWhere(all),
                kll.value(), rows);
    }
  }

  // Capped-solve selections (see the header comment).
  {
    struct SolverCase {
      DatasetId data;
      uint64_t n;
      uint64_t seed;
    };
    const SolverCase cases[] = {
        {DatasetId::kMilan, 300, 27},
        {DatasetId::kMilan, 150, 37},
        {DatasetId::kMilan, 50, 30},
        {DatasetId::kRetail, 100, 41},
    };
    MaxEntOptions cold;
    cold.use_solver_cache = false;
    for (const SolverCase& c : cases) {
      MomentsSketch s(10);
      for (double v : GenerateDataset(c.data, c.n, c.seed)) s.Accumulate(v);
      Result<MaxEntDistribution> dist = Status::Internal("not run");
      const std::vector<double> samples_ms =
          TimeReps(reps, [&] { dist = SolveMaxEnt(s, cold); });
      MaxEntDiagnostics diag;
      if (dist.ok()) diag = dist->diagnostics();
      report.Add("solver",
                 DatasetName(c.data) + "_n" + std::to_string(c.n) + "_s" +
                     std::to_string(c.seed),
                 samples_ms,
                 {{"rows", static_cast<double>(c.n)},
                  {"objective_evals",
                   static_cast<double>(diag.function_evals +
                                       diag.hessian_evals)},
                  {"iteration_capped",
                   static_cast<double>(diag.iteration_capped)},
                  {"backoff_drops", static_cast<double>(diag.backoff_drops)}},
                 {{"solved", dist.ok()}});
    }
  }

  // Repeated selection through the solver cache (see the header comment).
  {
    std::vector<double> data = NamedData("lognormal", rows);
    MomentsSketch s(10);
    KllSketch kll(64);
    for (double v : data) {
      s.Accumulate(v);
      kll.Accumulate(v);
    }
    std::vector<double> sorted = std::move(data);
    std::sort(sorted.begin(), sorted.end());
    const double slack = 1e-6 * (std::abs(s.max()) + std::abs(s.min()) + 1.0);
    const std::vector<double> phis(kPhiGrid, kPhiGrid + 5);
    const std::vector<CertifiedQuantile> ref = router.QueryMany(s, &kll, phis);
    SummaryRouter cached;  // MaxEntOptions::use_solver_cache defaults on
    std::vector<CertifiedQuantile> answers;
    const std::vector<double> cold_ms =
        TimeReps(1, [&] { answers = cached.QueryMany(s, &kll, phis); });
    bool identical = answers.size() == ref.size();
    const RouterStats first = cached.stats();
    const std::vector<double> samples_ms = TimeReps(reps, [&] {
      answers = cached.QueryMany(s, &kll, phis);
      identical = identical && answers.size() == ref.size();
      for (size_t i = 0; identical && i < answers.size(); ++i) {
        identical = SameAnswer(answers[i], ref[i]);
      }
    });
    const RouterStats& after = cached.stats();
    bool certified = answers.size() == phis.size();
    bool contains_truth = certified;
    for (size_t i = 0; i < answers.size(); ++i) {
      certified = certified && answers[i].status.ok() && answers[i].certified;
      const double truth = QuantileOfSorted(sorted, phis[i]);
      contains_truth = contains_truth &&
                       answers[i].interval.lower <= truth + slack &&
                       answers[i].interval.upper >= truth - slack;
    }
    const uint64_t solves =
        after.solve.cold_solves + after.solve.warm_solves -
        (first.solve.cold_solves + first.solve.warm_solves);
    report.Add("cache", "lognormal+kll", samples_ms,
               {{"rows", static_cast<double>(rows)},
                {"reps", static_cast<double>(reps)},
                {"cold_ms", cold_ms.front()},
                {"cache_hits",
                 static_cast<double>(after.cache_hits - first.cache_hits)},
                {"solves", static_cast<double>(solves)},
                {"backend", answers.empty()
                                ? -1.0
                                : static_cast<double>(answers[2].backend)}},
               {{"certified", certified},
                {"contains_truth", contains_truth},
                {"identical", identical}});
  }

  const RouterStats& st = router.stats();
  report.Add("counters", "totals", {0.0},
             {{"queries", static_cast<double>(st.queries)},
              {"moments_answers", static_cast<double>(st.moments_answers)},
              {"kll_answers", static_cast<double>(st.kll_answers)},
              {"atomic_answers", static_cast<double>(st.atomic_answers)},
              {"bounds_fallbacks", static_cast<double>(st.bounds_fallbacks)},
              {"degenerate_answers",
               static_cast<double>(st.degenerate_answers)},
              {"exact_answers", static_cast<double>(st.exact_answers)},
              {"intersected_certificates",
               static_cast<double>(st.intersected_certificates)},
              {"conditioning_rejects",
               static_cast<double>(st.conditioning_rejects)},
              {"solver_failures", static_cast<double>(st.solver_failures)},
              {"warm_solves", static_cast<double>(st.solve.warm_solves)},
              {"cold_solves", static_cast<double>(st.solve.cold_solves)},
              {"iteration_capped", static_cast<double>(st.solve.iteration_capped)},
              {"atomic_screen_hits",
               static_cast<double>(st.solve.atomic_screen_hits)}});
  report.Write();
  return 0;
}
