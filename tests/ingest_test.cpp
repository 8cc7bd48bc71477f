// Concurrent streaming ingest engine tests: shard drain determinism,
// snapshot bit-identity against a single-writer cube, query-while-ingest
// invariants under multi-threaded stress (the TSan target), epoch
// reclamation, dictionary-encoded appends, and the epoch pane feed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/moments_summary.h"
#include "cube/cube_store.h"
#include "cube/data_cube.h"
#include "ingest/epoch_publisher.h"
#include "ingest/ingest_shard.h"
#include "ingest/streaming_cube.h"
#include "parallel/parallel_for.h"

namespace msketch {
namespace {

constexpr size_t kDims = 3;

struct Row {
  CubeCoords coords;
  double value;
};

CubeCoords RandomCoords(Rng* rng) {
  return {static_cast<uint32_t>(rng->NextBelow(5)),
          static_cast<uint32_t>(rng->NextBelow(4)),
          static_cast<uint32_t>(rng->NextBelow(3))};
}

/// Arbitrary continuous values: exercises the FP-sensitive paths.
std::vector<Row> MakeLognormalRows(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Row{RandomCoords(&rng), rng.NextLognormal(0.5, 0.6)});
  }
  return rows;
}

/// Exact-arithmetic values: small mixed-sign integers whose only
/// positive member is 1.0 (log sums stay exactly zero), so every
/// floating-point addition in the pipeline is exact and the final state
/// is bit-identical under ANY accumulation or merge order — the
/// property the concurrent stress test relies on.
std::vector<Row> MakeExactRows(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double v = static_cast<double>(1 + rng.NextBelow(8));  // 1..8
    if (rng.NextBelow(3) != 0) v = -v;  // negatives keep log sums at 0
    if (v > 1.0) v = 1.0;               // sole positive value is 1.0
    rows.push_back(Row{RandomCoords(&rng), v});
  }
  return rows;
}

/// Reference: single-writer columnar cube fed `rows` in order.
DataCube<MomentsSummary> BuildReference(const std::vector<Row>& rows) {
  DataCube<MomentsSummary> cube(kDims, MomentsSummary(10));
  for (const Row& r : rows) cube.Ingest(r.coords, r.value);
  return cube;
}

/// Per-cell state keyed by coordinates (cell ids differ between a
/// streaming snapshot and the reference cube, coordinates do not).
std::unordered_map<CubeCoords, MomentsSketch, CubeCoordsHash> CellsByCoords(
    const CubeStore& store) {
  std::unordered_map<CubeCoords, MomentsSketch, CubeCoordsHash> out;
  out.reserve(store.num_cells());
  for (uint32_t id = 0; id < store.num_cells(); ++id) {
    out.emplace(store.CoordsOf(id), store.CellSketch(id));
  }
  return out;
}

void ExpectCellsIdentical(const CubeStore& got, const CubeStore& want) {
  ASSERT_EQ(got.num_cells(), want.num_cells());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  auto got_cells = CellsByCoords(got);
  auto want_cells = CellsByCoords(want);
  for (const auto& [coords, sketch] : want_cells) {
    auto it = got_cells.find(coords);
    ASSERT_NE(it, got_cells.end());
    EXPECT_TRUE(it->second.IdenticalTo(sketch));
  }
}

// ---------------------------------------------------------- IngestShard

// A drained delta is bit-identical to accumulating the same per-cell
// value sequence in order (AccumulateBatch's bit-identity, preserved
// through the pending-buffer chunking).
TEST(IngestShardTest, DrainMatchesInOrderAccumulate) {
  IngestShard shard(kDims, 10, /*batch_size=*/7);
  auto rows = MakeLognormalRows(5000, 11);
  std::unordered_map<CubeCoords, MomentsSketch, CubeCoordsHash> direct;
  for (const Row& r : rows) {
    shard.Append(r.coords, r.value);
    auto it = direct.find(r.coords);
    if (it == direct.end()) {
      it = direct.emplace(r.coords, MomentsSketch(10)).first;
    }
    it->second.Accumulate(r.value);
  }
  EXPECT_EQ(shard.rows_appended(), rows.size());
  EpochDelta drained(kDims, 10);
  shard.Drain(&drained);
  ASSERT_EQ(drained.size(), direct.size());
  for (size_t i = 0; i < drained.size(); ++i) {
    EXPECT_TRUE(
        drained.CellSketch(i).IdenticalTo(direct.at(drained.CellCoords(i))));
  }
  // The shard is empty after a drain.
  EpochDelta again(kDims, 10);
  shard.Drain(&again);
  EXPECT_TRUE(again.empty());
}

// AppendBatch == the equivalent Append loop, including the buffer
// top-up and tail paths around the batch_size boundary.
TEST(IngestShardTest, AppendBatchBitIdenticalToAppendLoop) {
  auto rows = MakeLognormalRows(1, 17);
  const CubeCoords coords = rows[0].coords;
  Rng rng(19);
  std::vector<double> values;
  for (int i = 0; i < 331; ++i) values.push_back(rng.NextLognormal(0.0, 1.0));

  IngestShard batched(kDims, 10, 64), looped(kDims, 10, 64);
  // Pre-load three values so AppendBatch starts from a partial buffer.
  for (int i = 0; i < 3; ++i) {
    batched.Append(coords, values[i]);
    looped.Append(coords, values[i]);
  }
  batched.AppendBatch(coords, values.data() + 3, values.size() - 3);
  for (size_t i = 3; i < values.size(); ++i) looped.Append(coords, values[i]);

  EpochDelta a(kDims, 10), b(kDims, 10);
  batched.Drain(&a);
  looped.Drain(&b);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_TRUE(a.CellSketch(0).IdenticalTo(b.CellSketch(0)));
}

// AppendRows (the one-lock batched mixed-cell path) == the equivalent
// Append loop, bit for bit, including the last-cell memo around cell
// switches and the pending-buffer flush boundary.
TEST(IngestShardTest, AppendRowsBitIdenticalToAppendLoop) {
  auto rows = MakeLognormalRows(5000, 29);
  std::vector<IngestRow> batch;
  batch.reserve(rows.size());
  for (const Row& r : rows) batch.push_back(IngestRow{r.coords, r.value});

  IngestShard batched(kDims, 10, /*batch_size=*/7);
  IngestShard looped(kDims, 10, /*batch_size=*/7);
  batched.AppendRows(batch.data(), batch.size());
  for (const Row& r : rows) looped.Append(r.coords, r.value);
  EXPECT_EQ(batched.rows_appended(), looped.rows_appended());

  EpochDelta a(kDims, 10), b(kDims, 10);
  batched.Drain(&a);
  looped.Drain(&b);
  ASSERT_EQ(a.size(), b.size());
  std::unordered_map<CubeCoords, MomentsSketch, CubeCoordsHash> ref;
  for (size_t i = 0; i < b.size(); ++i) {
    ref.emplace(b.CellCoords(i), b.CellSketch(i));
  }
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a.CellSketch(i).IdenticalTo(ref.at(a.CellCoords(i))));
  }
}

// -------------------------------------------------- drained bit-identity

// Concurrent writers with coordinate-hash routing, one final flush:
// every cell is written by exactly one shard, so the drained snapshot is
// bit-identical to a single-writer cube fed the same rows shard-major —
// for arbitrary (not just exact-arithmetic) values.
TEST(StreamingCubeTest, SingleFlushBitIdenticalToShardMajorReference) {
  const size_t kShards = 4;
  auto rows = MakeLognormalRows(60000, 23);

  // Partition rows by the cube's own routing (coordinate hash).
  std::vector<std::vector<Row>> per_shard(kShards);
  for (const Row& r : rows) {
    per_shard[CubeCoordsHash()(r.coords) % kShards].push_back(r);
  }

  IngestOptions options;
  options.num_shards = kShards;
  StreamingCube cube(kDims, MomentsSummary(10), options);
  RunWorkers(static_cast<int>(kShards), [&](int w) {
    for (const Row& r : per_shard[w]) cube.Append(r.coords, r.value);
  });
  auto snap = cube.Flush();
  ASSERT_EQ(snap->rows(), rows.size());
  EXPECT_EQ(cube.staleness_rows(), 0u);

  std::vector<Row> shard_major;
  shard_major.reserve(rows.size());
  for (const auto& part : per_shard) {
    shard_major.insert(shard_major.end(), part.begin(), part.end());
  }
  DataCube<MomentsSummary> reference = BuildReference(shard_major);
  ExpectCellsIdentical(snap->store, reference.store());
}

// Epoch boundaries split each cell's value stream into several deltas;
// totals and cells must still agree with the reference to FP
// re-association (exactly on counts, min, max).
TEST(StreamingCubeTest, MultiEpochConsistencyArbitraryValues) {
  auto rows = MakeLognormalRows(30000, 31);
  IngestOptions options;
  options.num_shards = 2;
  StreamingCube cube(kDims, MomentsSummary(10), options);
  uint64_t epochs = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    cube.Append(rows[i].coords, rows[i].value);
    if (i % 7000 == 6999) {
      cube.Flush();
      ++epochs;
    }
  }
  auto snap = cube.Flush();
  EXPECT_GE(snap->epoch, epochs);
  ASSERT_EQ(snap->rows(), rows.size());

  DataCube<MomentsSummary> reference = BuildReference(rows);
  MomentsSketch got = snap->store.MergeAll();
  MomentsSketch want = reference.store().MergeAll();
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.log_count(), want.log_count());
  EXPECT_DOUBLE_EQ(got.min(), want.min());
  EXPECT_DOUBLE_EQ(got.max(), want.max());
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(got.power_sums()[i], want.power_sums()[i],
                1e-9 * std::fabs(want.power_sums()[i]));
    EXPECT_NEAR(got.log_sums()[i], want.log_sums()[i],
                1e-9 * std::max(1.0, std::fabs(want.log_sums()[i])));
  }
}

// ------------------------------------------------- concurrent stress

// The TSan target: 4 writers, a background publisher on a 1 ms cadence,
// and 2 readers querying published snapshots while ingest runs. With
// exact-arithmetic values the fully drained cube must be bit-identical
// to the single-writer reference REGARDLESS of how appends, epoch
// drains, and queries interleave.
TEST(StreamingCubeTest, ConcurrentQueryWhileIngestStress) {
  const size_t kShards = 4;
  const size_t kRowsPerWriter = 30000;
  std::vector<std::vector<Row>> per_writer;
  std::vector<Row> all;
  for (size_t w = 0; w < kShards; ++w) {
    per_writer.push_back(
        MakeExactRows(kRowsPerWriter, /*seed=*/100 + w));
    all.insert(all.end(), per_writer[w].begin(), per_writer[w].end());
  }

  IngestOptions options;
  options.num_shards = kShards;
  options.epoch_interval = std::chrono::milliseconds(1);
  StreamingCube cube(kDims, MomentsSummary(10), options);
  cube.StartPublisher();

  std::atomic<bool> writers_done{false};
  std::atomic<uint64_t> reader_checks{0};
  std::thread readers[2];
  for (int r = 0; r < 2; ++r) {
    readers[r] = std::thread([&, r] {
      Rng rng(900 + r);
      CubeFilter all_filter(kDims, kAnyValue);
      uint64_t last_epoch = 0;
      while (!writers_done.load(std::memory_order_acquire)) {
        auto snap = cube.Snapshot();
        // Epochs only move forward for any single reader.
        ASSERT_GE(snap->epoch, last_epoch);
        last_epoch = snap->epoch;
        // A snapshot is internally consistent: the unconstrained query
        // covers exactly the published rows, and published rows never
        // exceed appended rows.
        CubeStore::QueryStats stats;
        MomentsSketch total = snap->store.QueryWhere(all_filter, &stats);
        ASSERT_EQ(total.count(), snap->rows());
        ASSERT_LE(snap->rows(), cube.rows_appended());
        // Filtered query against the same pinned snapshot agrees with
        // the exact reference path.
        CubeFilter f(kDims, kAnyValue);
        f[0] = static_cast<int64_t>(rng.NextBelow(5));
        MomentsSketch planned = snap->store.QueryWhere(f);
        MomentsSketch exact = snap->store.MergeWhere(f);
        ASSERT_EQ(planned.count(), exact.count());
        reader_checks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  RunWorkers(static_cast<int>(kShards), [&](int w) {
    for (const Row& r : per_writer[w]) {
      // Hash routing: cells are shard-affine no matter which writer
      // thread appends them.
      cube.Append(r.coords, r.value);
    }
  });
  writers_done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  cube.StopPublisher();
  EXPECT_GT(reader_checks.load(), 0u);

  auto snap = cube.Flush();
  ASSERT_EQ(snap->rows(), all.size());
  DataCube<MomentsSummary> reference = BuildReference(all);
  ExpectCellsIdentical(snap->store, reference.store());
  // Exact arithmetic: the merged totals are bit-identical too, in any
  // interleaving — and the native-sum column agrees with the reference.
  EXPECT_TRUE(snap->store.MergeAll().IdenticalTo(reference.MergeAll().sketch()));
  const CubeFilter unfiltered(kDims, kAnyValue);
  EXPECT_DOUBLE_EQ(snap->store.SumWhere(unfiltered),
                   reference.SumWhere(unfiltered));
}

// ---------------------------------------------------- epochs + snapshots

TEST(StreamingCubeTest, FlushWithNoNewDataReusesSnapshot) {
  StreamingCube cube(kDims, MomentsSummary(10));
  cube.Append({0, 0, 0}, 2.5);
  auto a = cube.Flush();
  auto b = cube.Flush();
  EXPECT_EQ(a.get(), b.get());  // no data, no epoch spent
  cube.Append({0, 0, 1}, 3.5);
  auto c = cube.Flush();
  EXPECT_NE(b.get(), c.get());
  EXPECT_GT(c->epoch, b->epoch);
}

TEST(StreamingCubeTest, SnapshotQueriesUseRollupPlans) {
  auto rows = MakeLognormalRows(20000, 41);
  StreamingCube cube(kDims, MomentsSummary(10));
  for (const Row& r : rows) cube.Append(r.coords, r.value);
  auto snap = cube.Flush();
  CubeStore::QueryStats stats;
  MomentsSketch total =
      snap->store.QueryWhere(CubeFilter(kDims, kAnyValue), &stats);
  EXPECT_EQ(stats.plan, QueryPlan::kRollup);
  EXPECT_EQ(total.count(), rows.size());

  // Facade wrappers agree with the snapshot they pin.
  MomentsSummary merged = cube.QueryWhere(CubeFilter(kDims, kAnyValue));
  EXPECT_EQ(merged.count(), rows.size());
  CertifiedQuantile q =
      cube.QueryQuantileCertified(CubeFilter(kDims, kAnyValue), 0.5);
  ASSERT_TRUE(q.status.ok()) << q.status.ToString();
  EXPECT_GT(q.estimate, 0.0);

  auto groups = cube.GroupByQuantilesCertified({0}, {0.5});
  EXPECT_EQ(groups.size(), 5u);
  uint64_t group_rows = 0;
  for (const auto& g : groups) group_rows += g.count;
  EXPECT_EQ(group_rows, rows.size());
}

// A pinned snapshot keeps its buffer out of the pool: publishing can
// proceed on the other buffer, but a third epoch must wait until the
// pin is released (epoch-based reclamation, not copy-on-publish).
TEST(StreamingCubeTest, PinnedSnapshotBlocksBufferReuseUntilReleased) {
  StreamingCube cube(kDims, MomentsSummary(10));
  cube.Append({1, 1, 1}, 1.0);
  auto pinned = cube.Flush();
  const uint64_t pinned_rows = pinned->rows();

  cube.Append({1, 1, 2}, 2.0);
  cube.Flush();  // other buffer; pinned stays valid

  std::atomic<bool> third_done{false};
  cube.Append({1, 2, 2}, 3.0);
  std::thread publisher([&] {
    cube.Flush();  // needs the pinned buffer -> waits
    third_done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_done.load(std::memory_order_acquire));
  // The pinned snapshot is still fully queryable while the publisher
  // waits on it.
  EXPECT_EQ(pinned->rows(), pinned_rows);
  EXPECT_EQ(pinned->store.MergeAll().count(), pinned_rows);
  pinned.reset();  // release -> the blocked publish proceeds
  publisher.join();
  EXPECT_TRUE(third_done.load(std::memory_order_acquire));
  EXPECT_EQ(cube.Snapshot()->rows(), 3u);
}

// A pool larger than two must still cycle every buffer through
// publishes (FIFO reuse): otherwise an idle buffer pins the whole
// batch history in memory. lag_batches() stays bounded by the pool
// size, and no rows are lost across many epochs.
TEST(EpochPublisherTest, ThreeBufferPoolBoundsBatchHistory) {
  IngestShard shard(kDims, 10, 64);
  IngestOptions options;
  options.snapshot_buffers = 3;
  EpochPublisher publisher(kDims, 10, options, {&shard});
  auto rows = MakeLognormalRows(5000, 53);
  size_t i = 0;
  for (int epoch = 0; epoch < 50; ++epoch) {
    for (int j = 0; j < 100; ++j, ++i) {
      shard.Append(rows[i].coords, rows[i].value);
    }
    publisher.Publish();
    EXPECT_LE(publisher.lag_batches(), options.snapshot_buffers);
  }
  EXPECT_EQ(publisher.Current()->rows(), i);
}

// Rows buffered in a shard before the publisher exists are drained by
// the first Publish(), not silently dropped by the constructor's empty
// epoch-0 snapshot.
TEST(EpochPublisherTest, PreExistingShardRowsSurviveFirstPublish) {
  IngestShard shard(kDims, 10, 64);
  auto rows = MakeLognormalRows(1000, 59);
  for (const Row& r : rows) shard.Append(r.coords, r.value);
  EpochPublisher publisher(kDims, 10, IngestOptions(), {&shard});
  EXPECT_EQ(publisher.Current()->rows(), 0u);  // epoch 0 is empty
  auto snap = publisher.Publish();
  EXPECT_EQ(snap->rows(), rows.size());
  EXPECT_EQ(snap->store.MergeAll().count(), rows.size());
}

// ------------------------------------------------------- dictionaries

TEST(StreamingCubeTest, DictionaryEncodedAppendAndFilter) {
  StreamingCube cube(2, MomentsSummary(10));
  ASSERT_TRUE(cube.AppendRow({"us-east", "checkout"}, 12.0).ok());
  ASSERT_TRUE(cube.AppendRow({"us-east", "search"}, 3.0).ok());
  ASSERT_TRUE(cube.AppendRow({"eu-west", "checkout"}, 7.0).ok());
  EXPECT_FALSE(cube.AppendRow({"one-dim-only"}, 1.0).ok());
  cube.Flush();

  auto filter = cube.EncodeFilter({"us-east", ""});
  ASSERT_TRUE(filter.ok());
  EXPECT_EQ(cube.QueryWhere(filter.value()).count(), 2u);
  auto both = cube.EncodeFilter({"", ""});
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(cube.QueryWhere(both.value()).count(), 3u);
  EXPECT_FALSE(cube.EncodeFilter({"ap-south", ""}).ok());  // never seen

  auto coords = cube.EncodeRow({"eu-west", "checkout"});
  ASSERT_TRUE(coords.ok());
  auto name = cube.DecodeValue(0, coords.value()[0]);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name.value(), "eu-west");
  EXPECT_FALSE(cube.DecodeValue(0, 999).ok());
}

// AppendRowBatch: one dictionary lock encodes the whole batch (interning
// new values), one shard-batch append per shard — and the result matches
// the row-at-a-time path exactly.
TEST(StreamingCubeTest, AppendRowBatchMatchesPerRowAppend) {
  const std::vector<std::vector<std::string>> rows = {
      {"us-east", "checkout"}, {"us-east", "checkout"},
      {"eu-west", "search"},   {"us-east", "search"},
      {"ap-south", "checkout"}};
  const std::vector<double> values = {1.5, 2.5, 3.5, 4.5, 5.5};

  StreamingCube batched(2, MomentsSummary(10));
  ASSERT_TRUE(batched.AppendRowBatch(rows, values.data()).ok());
  auto batched_snap = batched.Flush();

  StreamingCube rowwise(2, MomentsSummary(10));
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(rowwise.AppendRow(rows[i], values[i]).ok());
  }
  auto rowwise_snap = rowwise.Flush();

  ASSERT_EQ(batched_snap->rows(), rows.size());
  EXPECT_TRUE(batched_snap->store.MergeAll().IdenticalTo(
      rowwise_snap->store.MergeAll()));
  auto filter = batched.EncodeFilter({"us-east", ""});
  ASSERT_TRUE(filter.ok());
  EXPECT_EQ(batched.QueryWhere(filter.value()).count(), 3u);

  // Arity errors abort the whole batch before anything is appended.
  StreamingCube bad(2, MomentsSummary(10));
  EXPECT_FALSE(bad.AppendRowBatch({{"only-one-dim"}}, values.data()).ok());
  EXPECT_EQ(bad.rows_appended(), 0u);

  // EncodeRows: all-known batch takes the shared-lock fast path and
  // agrees with per-row encoding.
  auto encoded = batched.EncodeRows(rows);
  ASSERT_TRUE(encoded.ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    auto one = batched.EncodeRow(rows[i]);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(encoded.value()[i], one.value());
  }
}

// ------------------------------------------------- lock-free hot path

// The witness for the "writer hot path takes no mutex" claim: every
// blocking lock the encode/append path can touch bumps
// dict_exclusive_locks (the intern lock is the only one left). Once the
// value universe is warm, a burst of string appends and encoded appends
// must leave the counter untouched.
TEST(StreamingCubeTest, WriterHotPathTakesNoLockOnceDictionaryIsWarm) {
  IngestOptions options;
  options.num_shards = 2;
  StreamingCube cube(2, MomentsSummary(10), options);
  const std::vector<std::vector<std::string>> universe = {
      {"us-east", "checkout"}, {"eu-west", "search"},
      {"us-east", "search"},   {"eu-west", "checkout"}};
  for (const auto& dims : universe) {
    ASSERT_TRUE(cube.AppendRow(dims, 1.0).ok());
  }
  const uint64_t warm_locks = cube.stats().dict_exclusive_locks;
  EXPECT_GT(warm_locks, 0u);  // warming interned through the slow path

  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(
        cube.AppendRow(universe[rng.NextBelow(universe.size())], 2.0).ok());
  }
  auto coords = cube.EncodeRow(universe[0]);
  ASSERT_TRUE(coords.ok());
  for (int i = 0; i < 10000; ++i) cube.Append(coords.value(), 3.0);
  ASSERT_TRUE(cube.EncodeRows(universe).ok());
  ASSERT_TRUE(cube.EncodeFilter({"us-east", ""}).ok());

  EXPECT_EQ(cube.stats().dict_exclusive_locks, warm_locks);
  EXPECT_EQ(cube.Flush()->rows(), 4u + 10000u + 10000u);
}

// EncodeRows takes exactly ONE exclusive upgrade per batch no matter
// how the new values interleave with known ones — and none at all when
// everything is known.
TEST(StreamingCubeTest, EncodeRowsInterleavedNewValuesSingleUpgrade) {
  StreamingCube cube(2, MomentsSummary(10));
  ASSERT_TRUE(cube.AppendRow({"us-east", "checkout"}, 1.0).ok());
  const uint64_t base = cube.stats().dict_exclusive_locks;

  // known, new, known, new, new — misses scattered through the batch.
  const std::vector<std::vector<std::string>> mixed = {
      {"us-east", "checkout"}, {"eu-west", "checkout"},
      {"us-east", "checkout"}, {"us-east", "search"},
      {"ap-south", "browse"}};
  auto encoded = cube.EncodeRows(mixed);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(cube.stats().dict_exclusive_locks, base + 1);

  // Every row round-trips through the published dictionary version and
  // agrees with the single-row encoder.
  for (size_t i = 0; i < mixed.size(); ++i) {
    auto one = cube.EncodeRow(mixed[i]);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(encoded.value()[i], one.value());
    for (size_t d = 0; d < 2; ++d) {
      auto name = cube.DecodeValue(d, encoded.value()[i][d]);
      ASSERT_TRUE(name.ok());
      EXPECT_EQ(name.value(), mixed[i][d]);
    }
  }

  // All-known batch: pure fast path, zero upgrades.
  ASSERT_TRUE(cube.EncodeRows(mixed).ok());
  EXPECT_EQ(cube.stats().dict_exclusive_locks, base + 1);
}

// ------------------------------------------- backpressure / wraparound

// A deliberately tiny chunk pool against a slow drainer: chunks seal
// constantly, both rings wrap many times, the freelist runs dry and the
// writer backpressures — and still no row is lost and every cell's
// state is exact.
TEST(IngestShardTest, RingWraparoundAndFreelistExhaustionBackpressure) {
  // 4-cell chunks from a 2-chunk pool against a 60-cell universe: a
  // seal every few rows.
  IngestShard shard(kDims, 10, /*batch_size=*/8, /*chunk_cells=*/4,
                    /*chunks=*/2);
  auto rows = MakeExactRows(10000, 31);

  std::unordered_map<CubeCoords, MomentsSketch, CubeCoordsHash> merged;
  std::atomic<bool> done{false};
  std::thread drainer([&] {
    auto drain_into = [&] {
      EpochDelta drained(kDims, 10);
      shard.Drain(&drained);
      for (size_t i = 0; i < drained.size(); ++i) {
        auto it = merged.find(drained.CellCoords(i));
        if (it == merged.end()) {
          it = merged.emplace(drained.CellCoords(i), MomentsSketch(10)).first;
        }
        ASSERT_TRUE(it->second.Merge(drained.CellSketch(i)).ok());
      }
    };
    while (!done.load(std::memory_order_acquire)) {
      drain_into();
      // Slow publisher: writers outrun the drain cadence by design.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    drain_into();
    drain_into();  // sweep anything parked after the writer finished
  });
  for (const Row& r : rows) shard.Append(r.coords, r.value);
  done.store(true, std::memory_order_release);
  drainer.join();

  const IngestShardStats stats = shard.stats();
  EXPECT_EQ(stats.rows_appended, rows.size());
  EXPECT_GT(stats.chunks_sealed, 10u);          // rings wrapped many times
  EXPECT_GT(stats.rows_backpressured, 0u);      // the freelist ran dry
  EXPECT_GT(stats.backpressure_events, 0u);
  // Every sealed chunk came back through a drain (steals add more).
  EXPECT_GE(stats.chunks_drained, stats.chunks_sealed);

  // Exact-arithmetic rows: the merged deltas are bit-identical to an
  // in-order single-threaded accumulation regardless of how the stream
  // split across chunks and drains.
  std::unordered_map<CubeCoords, MomentsSketch, CubeCoordsHash> want;
  uint64_t total = 0;
  for (const Row& r : rows) {
    auto it = want.find(r.coords);
    if (it == want.end()) {
      it = want.emplace(r.coords, MomentsSketch(10)).first;
    }
    it->second.Accumulate(r.value);
  }
  ASSERT_EQ(merged.size(), want.size());
  for (const auto& [coords, sketch] : want) {
    auto it = merged.find(coords);
    ASSERT_NE(it, merged.end());
    EXPECT_TRUE(it->second.IdenticalTo(sketch));
    total += it->second.count();
  }
  EXPECT_EQ(total, rows.size());
}

// Chunk overflow under a live publisher: chunks far smaller than the
// working set force constant seal/recycle traffic across many epochs,
// and the published cube still matches the single-writer reference
// bit-for-bit (exact-arithmetic rows).
TEST(StreamingCubeTest, ChunkOverflowPreservesTotalsAcrossEpochs) {
  IngestOptions options;
  options.num_shards = 2;
  options.chunk_cells = 8;  // 60-cell universe: constant overflow
  options.chunks_per_shard = 3;
  options.epoch_interval = std::chrono::milliseconds(1);
  StreamingCube cube(kDims, MomentsSummary(10), options);
  auto rows = MakeExactRows(10000, 37);

  cube.StartPublisher();
  std::vector<std::vector<Row>> parts(options.num_shards);
  for (const Row& r : rows) {
    parts[CubeCoordsHash()(r.coords) % options.num_shards].push_back(r);
  }
  RunWorkers(static_cast<int>(options.num_shards), [&](int w) {
    for (const Row& r : parts[w]) cube.AppendToShard(w, r.coords, r.value);
  });
  auto snap = cube.Flush();
  cube.StopPublisher();

  ASSERT_EQ(snap->rows(), rows.size());
  ExpectCellsIdentical(snap->store, BuildReference(rows).store());

  const IngestStats stats = cube.stats();
  EXPECT_EQ(stats.rows_appended, rows.size());
  EXPECT_GT(stats.chunks_sealed, 0u);
  EXPECT_GE(stats.chunks_drained, stats.chunks_sealed);
  EXPECT_GT(stats.publisher.epochs_published, 0u);
  EXPECT_GT(stats.publisher.max_publish_ms, 0.0);
  EXPECT_GT(stats.publisher.max_drain_ms, 0.0);
  EXPECT_GE(stats.full_ring_high_water, 1u);
}

}  // namespace
}  // namespace msketch
