// perfbench: one workload per run, result as the last stdout line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Exit code 0 only when every answer passed the correctness gate.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunOptions;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <ingest_replicated|"
               "point_certified|groupby_certified|threshold_cascade> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") o.seconds = std::atof(value.c_str());
    else if (flag == "--trace") o.trace = value == "1";
    else if (flag == "--work-dir") o.work_dir = value;
    else return Usage();
  }
  if (argc % 2 != 1 || o.seconds <= 0) return Usage();

  static const std::map<std::string, Report (*)(const RunOptions&)> kRun = {
      {"ingest_replicated", perfbench::RunIngestReplicated},
      {"point_certified", perfbench::RunPointCertified},
      {"groupby_certified", perfbench::RunGroupByCertified},
      {"threshold_cascade", perfbench::RunThresholdCascade},
  };
  auto it = kRun.find(o.workload);
  if (it == kRun.end()) return Usage();
  Report r = it->second(o);

  // The result line carries exactly the mode's metric list; everything
  // else a workload measured is printed as an extra.
  std::set<std::string> wanted;
  for (const auto& m : o.trace ? perfbench::PerLayerMetrics()
                               : perfbench::EndToEndMetrics()) {
    wanted.insert(m.first);
    if (r.metrics.count(m.first) == 0) {
      r.violations.push_back("metric not measured: " + m.first);
      r.correct = false;
    }
  }
  for (auto m = r.metrics.begin(); m != r.metrics.end();) {
    if (wanted.count(m->first) == 0) {
      r.extra[m->first] = m->second;
      m = r.metrics.erase(m);
    } else {
      ++m;
    }
  }
  if (r.attempted == 0) {
    r.violations.push_back("no op completed");
    r.correct = false;
  }
  r.Print();
  return r.correct ? 0 : 1;
}
