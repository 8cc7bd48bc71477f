// Figure 10: quantile-estimator lesion study. Eight estimators consume
// identical k=10 moments sketches — log moments only on milan, standard
// moments only on hepmass, as in the paper — and are scored on mean error
// and estimation time. Maxent-based estimators should be >= 5x more
// accurate; "opt" should be orders of magnitude faster than the
// discretized/generic solvers. "newton" evaluates its line-search trials
// for the value alone (NewtonMinimize asks for EvalLevel::kValue): a
// trial costs one Romberg integral, and only accepted points pay for the
// k+1 gradient and (k+1)(k+2)/2 Hessian integrals.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/estimators/estimators.h"
#include "core/moments_sketch.h"
#include "datasets/datasets.h"

int main(int argc, char** argv) {
  using namespace msketch;
  using namespace msketch::bench;
  Args args(argc, argv);
  const uint64_t rows = args.GetU64("rows", 300'000);

  PrintHeader("Figure 10: estimator lesion study (k = 10)");
  std::printf(
      "paper (milan):   err%%: gaussian 5.02 mnat 5.88 svd 3.51 cvx-min 2.69"
      " cvx-maxent 1.73\n                 newton/bfgs/opt 0.40 | t_est ms:"
      " opt 1.62, cvx-maxent 301, newton 83\n\n");
  std::printf("%-9s %-11s %10s %12s\n", "dataset", "estimator", "err(%)",
              "t_est(ms)");

  struct Case {
    const char* dataset;
    bool log_domain;
  };
  for (const Case& c : {Case{"milan", true}, Case{"hepmass", false}}) {
    auto id = DatasetFromName(c.dataset);
    MSKETCH_CHECK(id.ok());
    auto data = GenerateDataset(id.value(), rows);
    auto sorted = data;
    std::sort(sorted.begin(), sorted.end());
    MomentsSketch sketch(10);
    for (double x : data) sketch.Accumulate(x);
    auto phis = DefaultPhiGrid();

    LesionOptions options;
    options.use_log_domain = c.log_domain;
    options.grid_points = static_cast<int>(args.GetU64("grid", 1000));
    options.lp_grid_points = static_cast<int>(args.GetU64("lp-grid", 256));

    for (const auto& name : LesionEstimatorNames()) {
      auto est = MakeLesionEstimator(name, options);
      MSKETCH_CHECK(est.ok());
      // Warm once (validates), then time a few repetitions.
      auto q = est.value()->EstimateQuantiles(sketch, phis);
      if (!q.ok()) {
        std::printf("%-9s %-11s %10s   %s\n", c.dataset, name.c_str(), "-",
                    q.status().ToString().c_str());
        continue;
      }
      const int reps = (name == "cvx-maxent" || name == "cvx-min") ? 2 : 5;
      Timer t;
      for (int r = 0; r < reps; ++r) {
        auto qq = est.value()->EstimateQuantiles(sketch, phis);
        MSKETCH_CHECK(qq.ok());
      }
      const double ms = t.Millis() / reps;
      const double err =
          MeanQuantileError(sorted, q.value(), phis) * 100.0;
      std::printf("%-9s %-11s %10.3f %12.3f\n", c.dataset, name.c_str(),
                  err, ms);
    }
    std::printf("\n");
  }
  return 0;
}
