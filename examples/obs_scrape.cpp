// One scrape over every subsystem: drives the full engine — sharded
// ingest with the background publisher, a durable WAL + checkpoint,
// certified point and GROUP BY queries through the summary router, the
// warm-chain GROUP BY solver and its cache — then prints the
// structured JSON export on stdout. Human-readable progress goes to
// stderr so the output pipes cleanly:
//
//   $ ./obs_scrape | python3 tools/metrics_dump.py \
//         --require=msk_ingest_rows_appended_total \
//         --require=msk_publisher_drain_seconds \
//         --require=msk_query_seconds \
//         --require=msk_router_interval_width \
//         --require=msk_solver_cache_hits_total \
//         --require=msk_wal_append_seconds
//
// CI runs exactly that pipe: the acceptance bar for the telemetry
// layer is that a single scrape covers ingest, publisher, solver,
// router, and the WAL at once.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/rng.h"
#include "ingest/streaming_cube.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"

int main() {
  using namespace msketch;

  char dir_template[] = "/tmp/obs_scrape_XXXXXX";
  const char* dir = mkdtemp(dir_template);
  if (dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed; running without durability\n");
  }

  // dims: region x endpoint; metric: request latency (ms). KLL dual-write
  // on so the router exercises certificate intersection.
  IngestOptions options;
  options.num_shards = 2;
  options.epoch_interval = std::chrono::milliseconds(5);
  options.enable_kll = true;
  StreamingCube cube(/*num_dims=*/2, MomentsSummary(10), options);
  if (dir != nullptr) {
    DurabilityOptions durability;
    durability.dir = std::string(dir);
    durability.checkpoint_every_epochs = 4;  // force a checkpoint too
    MSKETCH_CHECK(cube.EnableDurability(durability).ok());
  }
  cube.StartPublisher();

  const char* regions[] = {"us-east", "us-west", "eu-west"};
  const char* endpoints[] = {"search", "checkout", "browse"};
  RunWorkers(2, [&](int w) {
    Rng rng(40 + w);
    for (int i = 0; i < 50000; ++i) {
      MSKETCH_CHECK(cube.AppendRow({regions[rng.NextBelow(3)],
                                    endpoints[rng.NextBelow(3)]},
                                   rng.NextLognormal(3.0, 0.7))
                        .ok());
    }
  });
  auto snap = cube.Flush();
  std::fprintf(stderr, "ingested %llu rows into %zu cells over %llu epochs\n",
               static_cast<unsigned long long>(snap->rows()),
               snap->store.num_cells(),
               static_cast<unsigned long long>(snap->epoch));

  // Queries: plain merge, certified point, certified GROUP BY (router +
  // warm chain + solver cache), plus a threshold scan.
  (void)cube.QueryWhere(CubeFilter(2, kAnyValue));
  auto filter = cube.EncodeFilter({"eu-west", "checkout"});
  MSKETCH_CHECK(filter.ok());
  const CertifiedQuantile p99 =
      cube.QueryQuantileCertified(filter.value(), 0.99);
  std::fprintf(stderr, "eu-west checkout p99 = %.1f ms in [%.1f, %.1f]\n",
               p99.estimate, p99.interval.lower, p99.interval.upper);
  (void)cube.GroupByQuantilesCertified({0}, {0.5, 0.99});
  (void)cube.GroupByQuantilesCertified({0, 1}, {0.5, 0.9, 0.99});
  (void)cube.GroupByThreshold({1}, 0.99, 100.0);

  cube.StopPublisher();

  // The scrape. Everything above fed the one global registry; stdout
  // carries the JSON export and nothing else.
  const obs::MetricsSnapshot scrape = obs::GlobalRegistry().Scrape();
  const std::vector<obs::SpanRecord> spans = obs::GlobalTracer().Snapshot();
  std::fprintf(stderr, "scrape: %zu samples, %zu spans captured\n",
               scrape.samples.size(), spans.size());
  const std::string json = obs::ExportJson(scrape, &spans);
  std::fwrite(json.data(), 1, json.size(), stdout);
  std::fputc('\n', stdout);
  return 0;
}
