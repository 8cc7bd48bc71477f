// Telemetry layer tests: histogram bucket determinism and bit-identical
// mergeability across shard counts and merge orders, concurrent
// increment stress (the TSan target), registry idempotence, exporter
// golden output, span nesting, and the end-to-end contract that one
// scrape covers every subsystem of a running StreamingCube.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "cube/batch_query.h"
#include "cube/cube_store.h"
#include "cube/summary_router.h"
#include "ingest/streaming_cube.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "persist/durable_log.h"
#include "sketches/kll_sketch.h"

namespace msketch {
namespace obs {
namespace {

// Re-enables metrics even when an assertion bails out of the test.
struct MetricsEnabledGuard {
  ~MetricsEnabledGuard() { SetMetricsEnabled(true); }
};

// Under -DMSKETCH_OBS=0 the instrument bodies compile to nothing, so
// every test asserting that observations were recorded must skip; the
// pure-arithmetic tests (tick conversion, bucket math) still run.
#if MSKETCH_OBS
#define MSKETCH_REQUIRE_OBS() (void)0
#else
#define MSKETCH_REQUIRE_OBS() \
  GTEST_SKIP() << "instrumentation compiled out (MSKETCH_OBS=0)"
#endif

bool SameSnapshot(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  return a.unit == b.unit && a.count == b.count &&
         a.sum_ticks == b.sum_ticks && a.buckets == b.buckets;
}

TEST(HistogramTest, TickConversionEdges) {
  EXPECT_EQ(Histogram::TicksOf(-1.0, HistogramUnit::kSeconds), 0u);
  EXPECT_EQ(Histogram::TicksOf(0.0, HistogramUnit::kSeconds), 0u);
  EXPECT_EQ(Histogram::TicksOf(std::nan(""), HistogramUnit::kSeconds), 0u);
  // 1 second = exactly kTickScale ticks (the +0.5 rounding is exact on
  // powers of two).
  EXPECT_EQ(Histogram::TicksOf(1.0, HistogramUnit::kSeconds), kTickScale);
  EXPECT_EQ(Histogram::TicksOf(3.0, HistogramUnit::kCount), 3u);
  // Huge observations clamp instead of overflowing the cast.
  EXPECT_EQ(Histogram::TicksOf(1e30, HistogramUnit::kSeconds), ~uint64_t{0});
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 is exactly tick 0; bucket i >= 1 covers [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf((uint64_t{1} << 62) - 1), 62);
  EXPECT_EQ(Histogram::BucketOf(uint64_t{1} << 62), 63);
  EXPECT_EQ(Histogram::BucketOf(~uint64_t{0}), 63);
}

TEST(HistogramTest, SnapshotIdenticalAcrossThreadCounts) {
  MSKETCH_REQUIRE_OBS();
  // The merged result must be a function of the observation multiset
  // only — never of which thread (and so which shard) observed what.
  Rng rng(99);
  std::vector<uint64_t> ticks(20000);
  for (uint64_t& t : ticks) t = rng.NextBelow(1u << 20);

  auto observe_with = [&](int threads) {
    Histogram h(HistogramUnit::kCount);
    RunWorkers(threads, [&](int w) {
      for (size_t i = static_cast<size_t>(w); i < ticks.size();
           i += static_cast<size_t>(threads)) {
        h.ObserveTicks(ticks[i]);
      }
    });
    return h.Snapshot();
  };

  const HistogramSnapshot one = observe_with(1);
  EXPECT_EQ(one.count, ticks.size());
  EXPECT_TRUE(SameSnapshot(one, observe_with(2)));
  EXPECT_TRUE(SameSnapshot(one, observe_with(7)));
  EXPECT_TRUE(SameSnapshot(one, observe_with(16)));
}

TEST(HistogramTest, MergeIsOrderIndependent) {
  MSKETCH_REQUIRE_OBS();
  Rng rng(7);
  std::vector<HistogramSnapshot> parts(5);
  for (size_t p = 0; p < parts.size(); ++p) {
    Histogram h(HistogramUnit::kSeconds);
    for (int i = 0; i < 1000; ++i) {
      h.Observe(static_cast<double>(rng.NextBelow(1000)) * 1e-6);
    }
    parts[p] = h.Snapshot();
  }
  HistogramSnapshot forward = parts[0];
  for (size_t p = 1; p < parts.size(); ++p) forward.MergeFrom(parts[p]);
  HistogramSnapshot backward = parts.back();
  for (size_t p = parts.size() - 1; p-- > 0;) backward.MergeFrom(parts[p]);
  // Left fold == right fold, bit for bit: integer adds commute.
  EXPECT_TRUE(SameSnapshot(forward, backward));
  EXPECT_EQ(forward.count, 5000u);
}

TEST(HistogramTest, QuantileIsDeterministic) {
  MSKETCH_REQUIRE_OBS();
  Histogram h(HistogramUnit::kCount);
  for (uint64_t t = 1; t <= 8; ++t) h.ObserveTicks(t);
  const HistogramSnapshot s = h.Snapshot();
  // Buckets: {1}->b1, {2,3}->b2, {4..7}->b3, {8}->b4. The 4th of 8
  // observations lands in b3, whose upper bound is 8.
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 8.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 16.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 2.0);  // first observation's bucket
  EXPECT_DOUBLE_EQ(HistogramSnapshot().Quantile(0.5), 0.0);
}

TEST(CounterTest, ConcurrentIncrementsLoseNothing) {
  MSKETCH_REQUIRE_OBS();
  // TSan target: writers hammer a counter and a histogram while a
  // scraper reads snapshots mid-flight.
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("stress_total");
  Histogram* h =
      reg.GetHistogram("stress_hist", {}, "", HistogramUnit::kCount);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::thread scraper([&] {
    for (int i = 0; i < 50; ++i) {
      (void)reg.Scrape();
      std::this_thread::yield();
    }
  });
  RunWorkers(kThreads, [&](int w) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      c->Add(1);
      h->ObserveTicks(static_cast<uint64_t>(w));
    }
  });
  scraper.join();
  EXPECT_EQ(c->Value(), kThreads * kPerThread);
  const HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
}

TEST(RegistryTest, GetIsIdempotentOnFamilyAndLabels) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x_total", {{"k", "1"}}, "help");
  Counter* b = reg.GetCounter("x_total", {{"k", "1"}});
  Counter* c = reg.GetCounter("x_total", {{"k", "2"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  Histogram* h =
      reg.GetHistogram("y_seconds", {}, "", HistogramUnit::kValue);
  EXPECT_EQ(h, reg.GetHistogram("y_seconds"));
  EXPECT_EQ(h->unit(), HistogramUnit::kValue);
}

TEST(RegistryTest, CollectorsEmitAndRemove) {
  MSKETCH_REQUIRE_OBS();
  MetricsRegistry reg;
  const int id = reg.AddCollector([](MetricsEmitter& em) {
    em.EmitCounter("collected_total", {}, "from a collector", 42);
  });
  const MetricsSnapshot with = reg.Scrape();
  const Sample* s = with.Find("collected_total");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->counter_value, 42u);
  reg.RemoveCollector(id);
  EXPECT_EQ(reg.Scrape().Find("collected_total"), nullptr);
}

TEST(SnapshotTest, NormalizeFoldsAndMergeAddsCounters) {
  MetricsSnapshot snap;
  Sample a;
  a.family = "dup_total";
  a.type = Sample::Type::kCounter;
  a.counter_value = 2;
  Sample b = a;
  b.counter_value = 3;
  snap.samples = {a, b};
  snap.Normalize();
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_EQ(snap.samples[0].counter_value, 5u);

  MetricsSnapshot other;
  other.samples = {a};  // counter 2
  Sample g;
  g.family = "g";
  g.type = Sample::Type::kGauge;
  g.gauge_value = 1.0;
  snap.samples.push_back(g);
  snap.Normalize();
  Sample g2 = g;
  g2.gauge_value = 9.0;
  other.samples.push_back(g2);
  snap.MergeFrom(other);
  // Counters add; gauges take the merged-in (most recent) value.
  EXPECT_EQ(snap.Find("dup_total")->counter_value, 7u);
  EXPECT_DOUBLE_EQ(snap.Find("g")->gauge_value, 9.0);
}

TEST(ExportTest, PrometheusGolden) {
  MSKETCH_REQUIRE_OBS();
  MetricsRegistry reg;
  reg.GetGauge("test_depth", {}, "Depth")->Set(2.5);
  reg.GetCounter("test_events_total", {{"kind", "a"}}, "Test events")
      ->Add(3);
  Histogram* h =
      reg.GetHistogram("test_steps", {}, "Steps", HistogramUnit::kCount);
  h->ObserveTicks(0);
  h->ObserveTicks(1);
  h->ObserveTicks(3);
  const std::string expected =
      "# HELP test_depth Depth\n"
      "# TYPE test_depth gauge\n"
      "test_depth 2.5\n"
      "# HELP test_events_total Test events\n"
      "# TYPE test_events_total counter\n"
      "test_events_total{kind=\"a\"} 3\n"
      "# HELP test_steps Steps\n"
      "# TYPE test_steps histogram\n"
      "test_steps_bucket{le=\"0\"} 1\n"
      "test_steps_bucket{le=\"2\"} 2\n"
      "test_steps_bucket{le=\"4\"} 3\n"
      "test_steps_bucket{le=\"+Inf\"} 3\n"
      "test_steps_sum 4\n"
      "test_steps_count 3\n";
  EXPECT_EQ(ExportPrometheus(reg.Scrape()), expected);
}

TEST(ExportTest, JsonGolden) {
  MSKETCH_REQUIRE_OBS();
  MetricsRegistry reg;
  reg.GetGauge("test_depth", {}, "Depth")->Set(2.5);
  reg.GetCounter("test_events_total", {{"kind", "a"}}, "Test events")
      ->Add(3);
  Histogram* h =
      reg.GetHistogram("test_steps", {}, "Steps", HistogramUnit::kCount);
  h->ObserveTicks(0);
  h->ObserveTicks(1);
  h->ObserveTicks(3);
  std::vector<SpanRecord> spans(1);
  spans[0].name = "query.test";
  spans[0].trace_id = 7;
  spans[0].depth = 0;
  spans[0].start_ns = 100;
  spans[0].duration_ns = 50;
  const std::string expected =
      "{\"version\":1,\"metrics\":["
      "{\"name\":\"test_depth\",\"labels\":{},\"type\":\"gauge\","
      "\"value\":2.5},"
      "{\"name\":\"test_events_total\",\"labels\":{\"kind\":\"a\"},"
      "\"type\":\"counter\",\"value\":3},"
      "{\"name\":\"test_steps\",\"labels\":{},\"type\":\"histogram\","
      "\"unit\":\"count\",\"count\":3,\"sum\":4,"
      "\"buckets\":[[0,1],[1,1],[2,1]]}"
      "],\"spans\":["
      "{\"name\":\"query.test\",\"trace_id\":7,\"depth\":0,"
      "\"start_ns\":100,\"duration_ns\":50}"
      "]}";
  EXPECT_EQ(ExportJson(reg.Scrape(), &spans), expected);
}

TEST(TracerTest, NestedSpansShareTraceIdAndStackDepths) {
  MSKETCH_REQUIRE_OBS();
  MetricsRegistry reg;
  Tracer tracer(16, &reg);
  {
    Span root("unit.root", &tracer);
    ASSERT_TRUE(root.active());
    Span child("unit.child", &tracer);
    ASSERT_TRUE(child.active());
  }
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Children finish (and record) before their parent.
  EXPECT_STREQ(spans[0].name, "unit.child");
  EXPECT_STREQ(spans[1].name, "unit.root");
  EXPECT_NE(spans[0].trace_id, 0u);
  EXPECT_EQ(spans[0].trace_id, spans[1].trace_id);
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_EQ(spans[1].depth, 0);
  EXPECT_LE(spans[0].duration_ns, spans[1].duration_ns);
  // Each span name observed into its own latency histogram.
  const MetricsSnapshot snap = reg.Scrape();
  const Sample* s = snap.Find("msk_span_seconds", {{"span", "unit.root"}});
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->hist.count, 1u);

  // A second root gets a fresh trace id.
  { Span again("unit.root", &tracer); }
  EXPECT_NE(tracer.Snapshot().back().trace_id, spans[0].trace_id);
}

TEST(TracerTest, RingKeepsNewestOldestFirst) {
  MetricsRegistry reg;
  Tracer tracer(4, &reg);
  const char* names[] = {"s.a", "s.b", "s.c", "s.d", "s.e", "s.f"};
  for (const char* n : names) {
    SpanRecord r;
    r.name = n;
    tracer.Record(r);
  }
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_STREQ(spans[0].name, "s.c");
  EXPECT_STREQ(spans[3].name, "s.f");
}

TEST(TracerTest, DisabledSpansAndTimersAreNoOps) {
  MSKETCH_REQUIRE_OBS();
  MetricsEnabledGuard guard;
  MetricsRegistry reg;
  Tracer tracer(8, &reg);
  Histogram* h = reg.GetHistogram("off_seconds");
  SetMetricsEnabled(false);
  {
    Span span("unit.off", &tracer);
    EXPECT_FALSE(span.active());
    ScopedLatencyTimer timer(h);
  }
  SetMetricsEnabled(true);
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(h->Snapshot().count, 0u);
  {
    ScopedLatencyTimer timer(h);
  }
  EXPECT_EQ(h->Snapshot().count, 1u);
}

TEST(SnapshotWriterTest, WriteOnceProducesParseableExport) {
  MSKETCH_REQUIRE_OBS();
  MetricsRegistry reg;
  Tracer tracer(8, &reg);
  reg.GetCounter("writer_total")->Add(1);
  char dir_template[] = "/tmp/msketch_obs_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string path = std::string(dir_template) + "/metrics.json";
  SnapshotWriter writer(path, std::chrono::hours(1), &reg, &tracer);
  ASSERT_TRUE(writer.WriteOnce());
  writer.Stop();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  const std::string text(buf, n);
  EXPECT_EQ(text.rfind("{\"version\":1,", 0), 0u);
  EXPECT_NE(text.find("\"writer_total\""), std::string::npos);
  EXPECT_EQ(text.back(), '}');
}

TEST(SnapshotWriterTest, FailedWritesCountInSnapshotErrorsCounter) {
  MSKETCH_REQUIRE_OBS();
  MetricsRegistry reg;
  Tracer tracer(8, &reg);
  // A path inside a directory that does not exist: every WriteOnce
  // fails at open. The failure must land in msk_obs_snapshot_errors so
  // a scrape through any other channel reveals the exporter is losing
  // snapshots.
  SnapshotWriter writer("/nonexistent_msketch_dir/metrics.json",
                        std::chrono::hours(1), &reg, &tracer);
  Counter* errors = reg.GetCounter("msk_obs_snapshot_errors");
  EXPECT_EQ(errors->Value(), 0u);
  EXPECT_FALSE(writer.WriteOnce());
  EXPECT_EQ(errors->Value(), 1u);
  EXPECT_FALSE(writer.WriteOnce());
  EXPECT_EQ(errors->Value(), 2u);
  writer.Stop();
}

// End-to-end: drive every subsystem of a durable StreamingCube and
// assert ONE scrape of the global registry exposes families from the
// ingest shards, the publisher, the solver cache, the batched GROUP BY
// pipeline, the summary router, and the WAL — with latency histograms,
// not just sums.
TEST(ObsIntegrationTest, OneScrapeCoversEverySubsystem) {
  MSKETCH_REQUIRE_OBS();
  char dir_template[] = "/tmp/msketch_obs_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  {
    IngestOptions options;
    options.num_shards = 2;
    options.epoch_interval = std::chrono::milliseconds(5);
    options.enable_kll = true;
    StreamingCube cube(/*num_dims=*/2, MomentsSummary(10), options);
    DurabilityOptions durability;
    durability.dir = dir_template;
    ASSERT_TRUE(cube.EnableDurability(durability).ok());
    cube.StartPublisher();
    Rng rng(11);
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(cube.Append({static_cast<uint32_t>(rng.NextBelow(3)),
                               static_cast<uint32_t>(rng.NextBelow(3))},
                              rng.NextLognormal(3.0, 0.7))
                      .ok());
    }
    auto snap = cube.Flush();
    ASSERT_EQ(snap->rows(), 5000u);
    (void)cube.QueryQuantileCertified(CubeFilter(2, kAnyValue), 0.99);
    (void)cube.GroupByQuantilesCertified({0, 1}, {0.5, 0.99});
    (void)cube.GroupByThreshold({1}, 0.99, 100.0);

    // Publisher latency distributions: the publish histogram counts
    // exactly the published epochs (drain also sweeps empty intervals).
    const IngestStats stats = cube.stats();
    EXPECT_EQ(stats.publisher.publish_hist.count,
              stats.publisher.epochs_published);
    EXPECT_GE(stats.publisher.drain_hist.count,
              stats.publisher.epochs_published);
    // Apply and refresh are observed once per published epoch, and each
    // lies inside its publish.
    EXPECT_EQ(stats.publisher.apply_hist.count,
              stats.publisher.epochs_published);
    EXPECT_EQ(stats.publisher.refresh_hist.count,
              stats.publisher.epochs_published);
    EXPECT_LE(stats.publisher.last_apply_ms + stats.publisher.last_refresh_ms,
              stats.publisher.last_publish_ms);

    const MetricsSnapshot scrape = GlobalRegistry().Scrape();
    for (const char* family :
         {"msk_ingest_rows_appended_total", "msk_ingest_staleness_rows",
          "msk_publisher_epochs_published_total",
          "msk_solver_cache_hits_total", "msk_batch_groups_total",
          "msk_wal_epochs_logged_total"}) {
      EXPECT_NE(scrape.Find(family), nullptr) << family;
    }
    for (const char* stage : {"range", "markov", "rtt", "maxent"}) {
      EXPECT_NE(scrape.Find("msk_cascade_resolved_total", {{"stage", stage}}),
                nullptr)
          << stage;
    }
    for (const char* shard : {"0", "1"}) {
      EXPECT_NE(scrape.Find("msk_ingest_shard_rows_appended_total",
                            {{"shard", shard}}),
                nullptr);
    }
    // Latency histograms (not sums) on the acceptance-listed paths.
    for (const char* family :
         {"msk_publisher_drain_seconds", "msk_publisher_publish_seconds",
          "msk_publisher_apply_seconds", "msk_publisher_refresh_seconds",
          "msk_wal_append_seconds", "msk_wal_fsync_seconds"}) {
      const Sample* s = scrape.Find(family);
      ASSERT_NE(s, nullptr) << family;
      EXPECT_EQ(s->type, Sample::Type::kHistogram) << family;
      EXPECT_GE(s->hist.count, 1u) << family;
    }
    for (const char* kind :
         {"quantile_certified", "groupby_certified", "groupby_threshold"}) {
      const Sample* s = scrape.Find("msk_query_seconds", {{"kind", kind}});
      ASSERT_NE(s, nullptr) << kind;
      EXPECT_GE(s->hist.count, 1u) << kind;
    }
    cube.StopPublisher();
  }
  // The queries above ran the router at least once each.
  const MetricsSnapshot after = GlobalRegistry().Scrape();
  const Sample* routed = after.Find("msk_router_queries_total");
  ASSERT_NE(routed, nullptr);
  EXPECT_GE(routed->counter_value, 1u);
  const Sample* width = after.Find("msk_router_interval_width");
  ASSERT_NE(width, nullptr);
  EXPECT_GE(width->hist.count, 1u);
}

// One threshold GROUP BY adds its cascade's stage counters to
// msk_cascade_resolved_total, once per call: the per-stage deltas equal
// the call's CascadeStats and add up to its groups.
TEST(ObsIntegrationTest, CascadeStageCountersPublishOncePerCall) {
  MSKETCH_REQUIRE_OBS();
  CubeStore store(2, 10);
  Rng rng(13);
  for (int i = 0; i < 6000; ++i) {
    store.Ingest({static_cast<uint32_t>(rng.NextBelow(40)),
                  static_cast<uint32_t>(rng.NextBelow(3))},
                 rng.NextLognormal(3.0, 0.7));
  }
  const char* const stages[] = {"range", "markov", "rtt", "maxent"};
  auto read = [&] {
    const MetricsSnapshot scrape = GlobalRegistry().Scrape();
    std::vector<uint64_t> values;
    for (const char* stage : stages) {
      const Sample* s =
          scrape.Find("msk_cascade_resolved_total", {{"stage", stage}});
      values.push_back(s == nullptr ? 0 : s->counter_value);
    }
    return values;
  };
  const std::vector<uint64_t> before = read();
  BatchStats stats;
  (void)GroupByThreshold(store, {0, 1}, 0.9, 120.0, BatchOptions{}, &stats);
  const std::vector<uint64_t> after = read();
  ASSERT_EQ(stats.groups, 120u);
  const uint64_t want[] = {stats.cascade.resolved_simple,
                           stats.cascade.resolved_markov,
                           stats.cascade.resolved_rtt,
                           stats.cascade.resolved_maxent};
  uint64_t sum = 0;
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(after[i] - before[i], want[i]) << stages[i];
    sum += after[i] - before[i];
  }
  EXPECT_EQ(sum, stats.groups);
  EXPECT_GT(want[0], 0u);
  EXPECT_LT(want[0], stats.groups);
}

// A GROUP BY's group-merge step is its own span, one level below the
// query span and in the query's trace, on both collection paths: the
// rollup-backed single-dimension path and ForEachGroup.
TEST(ObsIntegrationTest, GroupMergeSpanSharesItsQueryTrace) {
  MSKETCH_REQUIRE_OBS();
  StreamingCube cube(/*num_dims=*/2, MomentsSummary(10));
  Rng rng(12);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(cube.Append({static_cast<uint32_t>(rng.NextBelow(4)),
                             static_cast<uint32_t>(rng.NextBelow(3))},
                            rng.NextLognormal(3.0, 0.7))
                    .ok());
  }
  ASSERT_TRUE(cube.Flush()->store.HasFreshRollup());
  (void)cube.GroupByThreshold({1}, 0.99, 100.0);
  (void)cube.GroupByQuantilesCertified({0, 1}, {0.5, 0.99});
  const std::vector<SpanRecord> spans = GlobalTracer().Snapshot();
  for (const char* query : {"query.threshold", "query.certified_groupby"}) {
    SCOPED_TRACE(query);
    const SpanRecord* parent = nullptr;
    for (const SpanRecord& r : spans) {
      if (std::strcmp(r.name, query) == 0) parent = &r;
    }
    ASSERT_NE(parent, nullptr);
    size_t merges = 0;
    for (const SpanRecord& r : spans) {
      if (std::strcmp(r.name, "query.group_merge") != 0 ||
          r.trace_id != parent->trace_id) {
        continue;
      }
      ++merges;
      EXPECT_EQ(r.depth, parent->depth + 1);
      EXPECT_GE(r.start_ns, parent->start_ns);
      EXPECT_LE(r.start_ns + r.duration_ns,
                parent->start_ns + parent->duration_ns);
    }
    EXPECT_EQ(merges, 1u);
  }
}

// A long-lived router (a follower's ReplicaApplier holds one for its
// whole life) must reach the registry as it answers, not when it dies.
TEST(ObsIntegrationTest, LongLivedRouterPublishesWhileAlive) {
  MSKETCH_REQUIRE_OBS();
  auto routed = [] {
    const MetricsSnapshot scrape = GlobalRegistry().Scrape();
    const Sample* s = scrape.Find("msk_router_queries_total");
    return s == nullptr ? uint64_t{0} : s->counter_value;
  };
  MomentsSketch cell(10);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) cell.Accumulate(rng.NextLognormal(1.0, 0.5));
  SummaryRouter router;
  const uint64_t before = routed();
  constexpr uint64_t kQueries = 7;
  for (uint64_t i = 0; i < kQueries; ++i) {
    (void)router.Query(cell, nullptr, 0.5);
  }
  EXPECT_EQ(routed() - before, kQueries);
  EXPECT_EQ(router.stats().queries, kQueries);
}

// An answer from an uncompacted KLL reaches the exact-answer counter.
TEST(ObsIntegrationTest, ExactAnswersArePublished) {
  MSKETCH_REQUIRE_OBS();
  auto exact = [] {
    const MetricsSnapshot scrape = GlobalRegistry().Scrape();
    const Sample* s = scrape.Find("msk_router_exact_answers_total");
    return s == nullptr ? uint64_t{0} : s->counter_value;
  };
  MomentsSketch cell(10);
  KllSketch kll(64);
  for (int i = 1; i <= 40; ++i) {
    cell.Accumulate(i);
    kll.Accumulate(i);
  }
  const uint64_t before = exact();
  SummaryRouter router;
  (void)router.QueryMany(cell, &kll, {0.1, 0.5, 0.9});
  EXPECT_EQ(exact() - before, 3u);
}

// A repeated point query answered from the solver cache reaches the
// cache-hit counter.
TEST(ObsIntegrationTest, RouterCacheHitsArePublished) {
  MSKETCH_REQUIRE_OBS();
  auto hits = [] {
    const MetricsSnapshot scrape = GlobalRegistry().Scrape();
    const Sample* s = scrape.Find("msk_router_cache_hits_total");
    return s == nullptr ? uint64_t{0} : s->counter_value;
  };
  MomentsSketch cell(10);
  Rng rng(17);
  for (int i = 0; i < 3000; ++i) cell.Accumulate(rng.NextLognormal(0.5, 0.8));
  SummaryRouter router;
  (void)router.Query(cell, nullptr, 0.5);
  const uint64_t before = hits();
  (void)router.Query(cell, nullptr, 0.9);
  EXPECT_EQ(hits() - before, 1u);
  EXPECT_GE(router.stats().cache_hits, 1u);
}

}  // namespace
}  // namespace obs
}  // namespace msketch
