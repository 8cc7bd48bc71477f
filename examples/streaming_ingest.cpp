// Query-while-ingest: writer threads stream telemetry rows into a
// StreamingCube while the main thread watches live quantiles on the
// published snapshots — no locks in the query path, bounded staleness.
//
//   $ ./streaming_ingest
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/rng.h"
#include "ingest/streaming_cube.h"
#include "parallel/parallel_for.h"

int main() {
  using namespace msketch;

  // dims: region x endpoint; metric: request latency (ms).
  IngestOptions options;
  options.num_shards = 4;
  options.epoch_interval = std::chrono::milliseconds(10);
  StreamingCube cube(/*num_dims=*/2, MomentsSummary(10), options);
  cube.StartPublisher();

  const char* regions[] = {"us-east", "us-west", "eu-west"};
  const char* endpoints[] = {"search", "checkout", "browse"};

  std::atomic<bool> done{false};
  std::thread writers([&] {
    RunWorkers(4, [&](int w) {
      Rng rng(40 + w);
      while (!done.load(std::memory_order_acquire)) {
        const char* region = regions[rng.NextBelow(3)];
        const char* endpoint = endpoints[rng.NextBelow(3)];
        // checkout in eu-west degrades: the live p99 should show it.
        const double slow =
            (region == regions[2] && endpoint == endpoints[1]) ? 4.0 : 1.0;
        MSKETCH_CHECK(
            cube.AppendRow({region, endpoint},
                           slow * rng.NextLognormal(3.0, 0.7))
                .ok());
      }
    });
  });

  for (int tick = 0; tick < 5; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    auto snap = cube.Snapshot();  // one consistent state for all queries
    std::printf("epoch %llu: %llu rows published, %llu in flight\n",
                static_cast<unsigned long long>(snap->epoch),
                static_cast<unsigned long long>(snap->rows()),
                static_cast<unsigned long long>(cube.staleness_rows()));
    for (const char* region : regions) {
      auto filter = cube.EncodeFilter({region, "checkout"});
      if (!filter.ok()) continue;  // dictionary may not have seen it yet
      const CertifiedQuantile p99 =
          cube.QueryQuantileCertified(filter.value(), 0.99);
      if (p99.status.ok()) {
        std::printf("  p99 latency, %s checkout : %7.1f ms in [%.1f, %.1f]\n",
                    region, p99.estimate, p99.interval.lower,
                    p99.interval.upper);
      }
    }
  }

  done.store(true, std::memory_order_release);
  writers.join();
  auto final_snap = cube.Flush();  // read-your-writes for the epilogue
  std::printf("final: %llu rows, %zu cells, staleness %llu\n",
              static_cast<unsigned long long>(final_snap->rows()),
              final_snap->store.num_cells(),
              static_cast<unsigned long long>(cube.staleness_rows()));
  cube.StopPublisher();
  return 0;
}
