// The perfbench workloads (see perfbench/README.md for why each exists).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {

/// Row path: encode -> append -> Flush (drain, publish + rollup
/// refresh, WAL) -> follower sync -> one certified point query.
Report RunIngestReplicated(const RunOptions& o);
/// Certified point queries over a fixed snapshot with KLL.
Report RunPointCertified(const RunOptions& o);
/// Certified GROUP BY with a small untimed epoch between calls.
Report RunGroupByCertified(const RunOptions& o);
/// GroupByThreshold at the alerting end over a fixed snapshot.
Report RunThresholdCascade(const RunOptions& o);

/// The end-to-end metrics every workload reports with --trace 0. Each
/// run also prints latency_p90_ms, rank_error, failure_rate and the
/// tolerated certificate misses (and latency_p99_ms from 1000 ops) as
/// extras.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
/// The per-layer metrics every workload reports with --trace 1 (0 for a
/// layer the workload's op does not run).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
