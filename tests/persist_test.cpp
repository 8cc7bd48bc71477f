// Persistence-layer tests: CRC32C vectors, WAL round-trips and damaged
// tails, checkpoint/manifest integrity, transient-fault retries, the
// backpressure stall budget, and the tentpole acceptance — a cube
// killed at every injected crash point recovers bit-exact to its last
// durable epoch.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "common/sealed_record.h"
#include "core/compressed_sketch.h"
#include "core/moments_sketch.h"
#include "cube/cube_store.h"
#include "cube/dictionary.h"
#include "ingest/ingest_shard.h"
#include "ingest/streaming_cube.h"
#include "persist/checkpoint.h"
#include "persist/durable_log.h"
#include "persist/env.h"
#include "persist/fault_env.h"
#include "persist/wal.h"
#include "sketches/kll_sketch.h"

namespace msketch {
namespace {

// ------------------------------------------------------------ helpers

std::string MakeTempDir() {
  char tmpl[] = "/tmp/msketch_persist_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

MomentsSketch SketchOf(const std::vector<double>& values, int k) {
  MomentsSketch s(k);
  for (double v : values) s.Accumulate(v);
  return s;
}

// Bit-exact fingerprint of a store: every column byte (through the
// lossless codec) plus every cell's coordinates in id order.
std::vector<uint8_t> SerializeStore(const CubeStore& store) {
  BytesWriter w;
  EncodeSketchColumns(store.Columns(), &w);
  for (size_t id = 0; id < store.num_cells(); ++id) {
    for (uint32_t c : store.CoordsOf(static_cast<uint32_t>(id))) w.PutU32(c);
  }
  return w.Take();
}

std::vector<std::vector<std::string>> DumpDicts(const StreamingCube& cube) {
  std::vector<std::vector<std::string>> out(cube.num_dims());
  for (size_t d = 0; d < cube.num_dims(); ++d) {
    for (uint32_t id = 0;; ++id) {
      Result<std::string> v = cube.DecodeValue(d, id);
      if (!v.ok()) break;
      out[d].push_back(std::move(v).value());
    }
  }
  return out;
}

// -------------------------------------------------------------- crc32c

TEST(Crc32cTest, KnownVectors) {
  // Standard check value for CRC32C.
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32c::Value(check, sizeof(check)), 0xE3069283u);

  // LevelDB test vectors.
  uint8_t buf[32];
  std::memset(buf, 0, sizeof(buf));
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x8A9136AAu);
  std::memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x62A8AB43u);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x46DD794Eu);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const uint8_t data[] = "durability is a property of the whole path";
  const size_t n = sizeof(data) - 1;
  const uint32_t whole = crc32c::Value(data, n);
  for (size_t split = 0; split <= n; ++split) {
    const uint32_t split_crc =
        crc32c::Extend(crc32c::Extend(0, data, split), data + split, n - split);
    EXPECT_EQ(split_crc, whole);
  }
}

// The dispatched kernel (the SSE4.2 instruction where the host has it)
// and the portable table kernel compute one function: the check value,
// and random buffers of every length 0-4096 at every alignment 0-7,
// including a running CRC carried in.
TEST(Crc32cTest, HardwareAndPortableKernelsAgree) {
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32c::ExtendPortable(0, check, sizeof(check)), 0xE3069283u);
  EXPECT_EQ(crc32c::Extend(0, check, sizeof(check)), 0xE3069283u);
  Rng rng(0xc3c32);
  std::vector<uint8_t> buf(4096 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextBelow(256));
  for (size_t len = 0; len <= 4096; ++len) {
    for (size_t align = 0; align < 8; ++align) {
      const uint8_t* p = buf.data() + align;
      const uint32_t seed = static_cast<uint32_t>(len * 8 + align);
      ASSERT_EQ(crc32c::Extend(seed, p, len),
                crc32c::ExtendPortable(seed, p, len))
          << "len " << len << " align " << align;
    }
  }
  std::printf("crc32c kernel: %s\n",
              crc32c::HardwareAccelerated() ? "sse4.2" : "portable");
}

TEST(Crc32cTest, MaskRoundTripsAndDisplaces) {
  for (uint32_t crc : {0u, 1u, 0xDEADBEEFu, 0xFFFFFFFFu, 0xE3069283u}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    EXPECT_NE(crc32c::Mask(crc), crc);
  }
}

// ----------------------------------------------------------------- env

TEST(EnvTest, PosixRoundTrip) {
  Env* env = Env::Default();
  const std::string dir = MakeTempDir();
  const std::string path = JoinPath(dir, "a");

  auto file = env->NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(file.value()->Append(payload).ok());
  ASSERT_TRUE(file.value()->Sync().ok());
  ASSERT_TRUE(file.value()->Close().ok());

  EXPECT_TRUE(env->FileExists(path));
  Result<std::vector<uint8_t>> back = env->ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), payload);

  const std::string renamed = JoinPath(dir, "b");
  ASSERT_TRUE(env->RenameFile(path, renamed).ok());
  EXPECT_FALSE(env->FileExists(path));
  Result<std::vector<std::string>> names = env->ListDir(dir);
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names.value().size(), 1u);
  EXPECT_EQ(names.value()[0], "b");
  ASSERT_TRUE(env->DeleteFile(renamed).ok());
  EXPECT_FALSE(env->FileExists(renamed));

  EXPECT_FALSE(env->ReadFile(path).ok());
  EXPECT_TRUE(env->CreateDir(dir).ok());  // tolerates existing
}

// ----------------------------------------------------------------- wal

// One-cell epoch record shaped like a live one: epoch E interns one new
// value per dimension (ids E-1) and the cell carries a KLL delta, so
// the adversarial cases below reach every section of the decoder.
std::vector<uint8_t> EpochPayload(uint64_t epoch, const CubeCoords& coords,
                                  const MomentsSketch& sketch,
                                  size_t num_dims) {
  KllSketch kll(8);
  for (int i = 0; i < 40; ++i) kll.Accumulate(0.25 * i + epoch);
  BytesWriter w;
  EpochDelta cells(num_dims, sketch.k());
  const KllView kll_view = kll.View();
  cells.Append(coords.data(), sketch, &kll_view);
  EncodeEpochRecord(
      epoch,
      std::vector<uint32_t>(num_dims, static_cast<uint32_t>(epoch - 1)),
      std::vector<std::vector<std::string>>(
          num_dims, {"value-" + std::to_string(epoch)}),
      cells, &w);
  return w.Take();
}

struct WalFixture {
  std::string dir = MakeTempDir();
  std::string path = JoinPath(dir, "WAL-000001");
  static constexpr int kK = 5;
  static constexpr size_t kDims = 2;

  // Writes `n` one-cell epoch records and returns the file bytes.
  std::vector<uint8_t> WriteEpochs(size_t n) {
    WalWriterOptions opts;
    auto writer = WalWriter::Create(Env::Default(), path, kK, kDims, opts);
    EXPECT_TRUE(writer.ok());
    for (size_t e = 1; e <= n; ++e) {
      const CubeCoords coords = {static_cast<uint32_t>(e), 0};
      const MomentsSketch s = SketchOf({1.0 * e, 2.0 * e, -0.5}, kK);
      EXPECT_TRUE(
          writer.value()
              ->AppendRecord(kWalRecordEpoch, EpochPayload(e, coords, s, kDims))
              .ok());
    }
    EXPECT_TRUE(writer.value()->Close().ok());
    Result<std::vector<uint8_t>> bytes = Env::Default()->ReadFile(path);
    EXPECT_TRUE(bytes.ok());
    return bytes.value();
  }
};

Status CollectEpochs(const std::vector<uint8_t>& file,
                     std::vector<WalEpochRecord>* out, WalReadStats* stats) {
  return ReadWalRecords(
      file,
      [&](uint8_t type, BytesReader* payload) {
        EXPECT_EQ(type, kWalRecordEpoch);
        Result<WalEpochRecord> rec = DecodeEpochRecord(payload);
        if (!rec.ok()) return rec.status();
        out->push_back(std::move(rec).value());
        return Status::OK();
      },
      stats);
}

TEST(WalTest, RoundTrip) {
  WalFixture wal;
  const std::vector<uint8_t> file = wal.WriteEpochs(4);
  std::vector<WalEpochRecord> records;
  WalReadStats stats;
  ASSERT_TRUE(CollectEpochs(file, &records, &stats).ok());
  EXPECT_EQ(stats.records, 4u);
  EXPECT_EQ(stats.bytes_truncated, 0u);
  EXPECT_EQ(stats.checksum_failures, 0u);
  EXPECT_EQ(stats.k, WalFixture::kK);
  EXPECT_EQ(stats.num_dims, WalFixture::kDims);
  ASSERT_EQ(records.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    const uint64_t e = i + 1;
    EXPECT_EQ(records[i].epoch, e);
    ASSERT_EQ(records[i].cells.size(), 1u);
    EXPECT_EQ(records[i].cells.CellCoords(0),
              (CubeCoords{static_cast<uint32_t>(e), 0}));
    const MomentsSketch expect = SketchOf({1.0 * e, 2.0 * e, -0.5},
                                          WalFixture::kK);
    const MomentsSketch got = records[i].cells.CellSketch(0);
    EXPECT_EQ(got.count(), expect.count());
    EXPECT_EQ(got.power_sums(), expect.power_sums());
    EXPECT_EQ(got.log_sums(), expect.log_sums());
    ASSERT_TRUE(records[i].cells.HasKll(0));
    EXPECT_EQ(records[i].cells.KllHeaderOf(0)->n, 40u);
    EXPECT_EQ(records[i].dict_start,
              std::vector<uint32_t>(WalFixture::kDims, i));
    EXPECT_EQ(records[i].dict_values[1],
              std::vector<std::string>{"value-" + std::to_string(e)});
  }
}

TEST(WalTest, EveryTornTailTruncatesToLastIntactRecord) {
  WalFixture wal;
  const std::vector<uint8_t> two = wal.WriteEpochs(2);
  const std::vector<uint8_t> three = wal.WriteEpochs(3);
  ASSERT_GT(three.size(), two.size());
  // Cut the file at every point inside the third record: the reader must
  // return exactly the first two, reporting the cut — never an error.
  for (size_t len = two.size(); len < three.size(); ++len) {
    std::vector<uint8_t> torn(three.begin(), three.begin() + len);
    std::vector<WalEpochRecord> records;
    WalReadStats stats;
    ASSERT_TRUE(CollectEpochs(torn, &records, &stats).ok()) << "len " << len;
    EXPECT_EQ(records.size(), 2u) << "len " << len;
    EXPECT_EQ(stats.bytes_truncated, len - two.size()) << "len " << len;
    EXPECT_EQ(stats.checksum_failures, 0u) << "len " << len;
  }
  // A CRC-valid record whose payload is cut short (a sealed but
  // truncated encode) must fail decoding with a Status at every length.
  const std::vector<uint8_t> header = wal.WriteEpochs(0);
  const std::vector<uint8_t> payload =
      EpochPayload(3, {3, 0}, SketchOf({3.0, 6.0, -0.5}, WalFixture::kK),
                   WalFixture::kDims);
  for (size_t len = 0; len < payload.size(); ++len) {
    std::vector<uint8_t> file = header;
    SealRecord(kWalRecordEpoch,
               std::vector<uint8_t>(payload.begin(), payload.begin() + len),
               &file);
    std::vector<WalEpochRecord> records;
    EXPECT_FALSE(CollectEpochs(file, &records, nullptr).ok()) << "len " << len;
  }
}

TEST(WalTest, FlippedByteStopsBeforeCorruptRecord) {
  WalFixture wal;
  const std::vector<uint8_t> one = wal.WriteEpochs(1);
  const std::vector<uint8_t> two = wal.WriteEpochs(2);
  const std::vector<uint8_t> three = wal.WriteEpochs(3);
  // Damage the second record (byte range [one.size(), two.size())) at
  // every bit: the reader keeps record 1, cuts the rest, and never
  // reaches record 3 past the damage.
  const size_t tail = three.size() - one.size();
  for (size_t bit = 0; bit < (two.size() - one.size()) * 8; ++bit) {
    std::vector<uint8_t> bad = three;
    bad[one.size() + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    std::vector<WalEpochRecord> records;
    WalReadStats stats;
    ASSERT_TRUE(CollectEpochs(bad, &records, &stats).ok()) << "bit " << bit;
    EXPECT_EQ(records.size(), 1u) << "bit " << bit;
    EXPECT_EQ(stats.bytes_truncated, tail) << "bit " << bit;
    // A length prefix flipped past the end of the file reads as an
    // honest torn tail; every other flip is a checksum failure.
    uint32_t length = 0;
    std::memcpy(&length, bad.data() + one.size() + 4, sizeof(length));
    const bool reads_torn =
        length <= kMaxRecordLen && length > tail - kRecordHeaderLen;
    EXPECT_EQ(stats.checksum_failures, reads_torn ? 0u : 1u) << "bit " << bit;
  }
}

TEST(WalTest, AbsurdLengthPrefixIsCorruptionNotOverread) {
  WalFixture wal;
  const std::vector<uint8_t> one = wal.WriteEpochs(1);
  std::vector<uint8_t> bad = wal.WriteEpochs(2);
  // The second record's length prefix sits 4 bytes after its CRC.
  const uint32_t absurd = 0x7fffffffu;
  std::memcpy(bad.data() + one.size() + 4, &absurd, sizeof(absurd));
  std::vector<WalEpochRecord> records;
  WalReadStats stats;
  ASSERT_TRUE(CollectEpochs(bad, &records, &stats).ok());
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(stats.checksum_failures, 1u);
}

TEST(WalTest, MangledHeaderIsAnError) {
  WalFixture wal;
  std::vector<uint8_t> bad = wal.WriteEpochs(1);
  bad[0] ^= 0xff;  // magic
  std::vector<WalEpochRecord> records;
  WalReadStats stats;
  EXPECT_FALSE(CollectEpochs(bad, &records, &stats).ok());

  std::vector<uint8_t> torn_header(bad.begin(), bad.begin() + 5);
  EXPECT_FALSE(CollectEpochs(torn_header, &records, &stats).ok());
}

TEST(WalTest, TransientAppendAndSyncFailuresAreRetried) {
  const std::string dir = MakeTempDir();
  FaultInjectingEnv env(Env::Default());
  WalWriterOptions opts;
  opts.max_write_retries = 4;
  opts.retry_backoff = std::chrono::milliseconds(0);
  auto writer = WalWriter::Create(&env, JoinPath(dir, "WAL-000001"), 5, 2,
                                  opts);
  ASSERT_TRUE(writer.ok());

  env.FailNextAppends(2);
  const CubeCoords coords = {1, 2};
  const MomentsSketch s = SketchOf({3.0}, 5);
  ASSERT_TRUE(writer.value()
                  ->AppendRecord(kWalRecordEpoch, EpochPayload(1, coords, s, 2))
                  .ok());
  EXPECT_GE(writer.value()->write_retries(), 2u);

  env.FailNextSyncs(1);
  ASSERT_TRUE(writer.value()
                  ->AppendRecord(kWalRecordEpoch, EpochPayload(2, coords, s, 2))
                  .ok());
  ASSERT_TRUE(writer.value()->Close().ok());

  // The file must still parse cleanly: failed attempts wrote nothing.
  Result<std::vector<uint8_t>> bytes = env.ReadFile(writer.value()->path());
  ASSERT_TRUE(bytes.ok());
  std::vector<WalEpochRecord> records;
  WalReadStats stats;
  ASSERT_TRUE(CollectEpochs(bytes.value(), &records, &stats).ok());
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(stats.checksum_failures, 0u);
}

TEST(WalTest, RetryBudgetExhaustionSurfaces) {
  const std::string dir = MakeTempDir();
  FaultInjectingEnv env(Env::Default());
  WalWriterOptions opts;
  opts.max_write_retries = 1;
  opts.retry_backoff = std::chrono::milliseconds(0);
  auto writer = WalWriter::Create(&env, JoinPath(dir, "WAL-000001"), 5, 2,
                                  opts);
  ASSERT_TRUE(writer.ok());
  env.FailNextAppends(10);
  const CubeCoords coords = {1, 2};
  const MomentsSketch s = SketchOf({3.0}, 5);
  Status st = writer.value()->AppendRecord(kWalRecordEpoch,
                                           EpochPayload(1, coords, s, 2));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

// ---------------------------------------------------------- checkpoint

CubeStore MakeStore(int k, size_t num_dims, std::vector<Dictionary>* dicts) {
  CubeStore store(num_dims, k);
  dicts->assign(num_dims, Dictionary());
  for (uint32_t a = 0; a < 3; ++a) {
    (*dicts)[0].Intern("a" + std::to_string(a));
    for (uint32_t b = 0; b < 2; ++b) {
      if (a == 0) (*dicts)[1].Intern("b" + std::to_string(b));
      const MomentsSketch s =
          SketchOf({1.0 + a, 0.5 * b, -2.0, 1e6 * (a + 1)}, k);
      EXPECT_TRUE(store.ApplyDelta({a, b}, s).ok());
    }
  }
  return store;
}

TEST(CheckpointTest, RoundTripIsBitExact) {
  const std::string dir = MakeTempDir();
  const std::string path = JoinPath(dir, "CHECKPOINT-000001");
  std::vector<Dictionary> dicts;
  const CubeStore store = MakeStore(7, 2, &dicts);
  ASSERT_TRUE(WriteCheckpoint(Env::Default(), path, 42, store, dicts).ok());

  Result<CheckpointData> ckpt = ReadCheckpoint(Env::Default(), path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_EQ(ckpt.value().epoch, 42u);
  EXPECT_EQ(ckpt.value().num_dims, 2u);
  EXPECT_EQ(ckpt.value().k, 7);
  ASSERT_EQ(ckpt.value().dict_values.size(), 2u);
  EXPECT_EQ(ckpt.value().dict_values[0],
            (std::vector<std::string>{"a0", "a1", "a2"}));
  EXPECT_EQ(ckpt.value().dict_values[1],
            (std::vector<std::string>{"b0", "b1"}));
  ASSERT_EQ(ckpt.value().cell_coords.size(), store.num_cells());
  for (size_t id = 0; id < store.num_cells(); ++id) {
    EXPECT_EQ(ckpt.value().cell_coords[id],
              store.CoordsOf(static_cast<uint32_t>(id)));
  }
  // Column bits: re-encode what was decoded and compare against a fresh
  // encode of the live store.
  BytesWriter live;
  EncodeSketchColumns(store.Columns(), &live);
  const DecodedSketchColumns& d = ckpt.value().columns;
  std::vector<const double*> pp, lp;
  for (int i = 0; i < d.k; ++i) {
    pp.push_back(d.power_cols[i].data());
    lp.push_back(d.log_cols[i].data());
  }
  FlatMomentColumns view;
  view.k = d.k;
  view.num_cells = d.num_cells;
  view.power_sums = pp.data();
  view.log_sums = lp.data();
  view.counts = d.counts.data();
  view.log_counts = d.log_counts.data();
  view.mins = d.mins.data();
  view.maxs = d.maxs.data();
  BytesWriter decoded;
  EncodeSketchColumns(view, &decoded);
  EXPECT_EQ(live.bytes(), decoded.bytes());
}

TEST(CheckpointTest, AnyFlippedBitRejects) {
  const std::string dir = MakeTempDir();
  const std::string path = JoinPath(dir, "CHECKPOINT-000001");
  std::vector<Dictionary> dicts;
  const CubeStore store = MakeStore(4, 2, &dicts);
  ASSERT_TRUE(WriteCheckpoint(Env::Default(), path, 7, store, dicts).ok());
  const size_t size = Env::Default()->ReadFile(path).value().size();
  // Sample offsets across the whole file (every byte would be slow).
  for (size_t off = 0; off < size; off += 7) {
    ASSERT_TRUE(
        FaultInjectingEnv::FlipBitInFile(Env::Default(), path, off, 3).ok());
    EXPECT_FALSE(ReadCheckpoint(Env::Default(), path).ok())
        << "flip at " << off << " accepted";
    // Restore the bit for the next iteration.
    ASSERT_TRUE(
        FaultInjectingEnv::FlipBitInFile(Env::Default(), path, off, 3).ok());
  }
  EXPECT_TRUE(ReadCheckpoint(Env::Default(), path).ok());
}

TEST(ManifestTest, CommitAndReadBack) {
  const std::string dir = MakeTempDir();
  Manifest m;
  m.checkpoint_epoch = 9;
  m.checkpoint_file = "CHECKPOINT-000003";
  m.wal_file = "WAL-000004";
  m.wal_seq = 4;
  ASSERT_TRUE(WriteManifest(Env::Default(), dir, m).ok());
  // No stray temp file once committed.
  const std::vector<std::string> names = Env::Default()->ListDir(dir).value();
  for (const std::string& name : names) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos);
  }
  Result<Manifest> back = ReadManifest(Env::Default(), dir);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().checkpoint_epoch, 9u);
  EXPECT_EQ(back.value().checkpoint_file, "CHECKPOINT-000003");
  EXPECT_EQ(back.value().wal_file, "WAL-000004");
  EXPECT_EQ(back.value().wal_seq, 4u);

  // Re-commit overwrites atomically.
  m.checkpoint_epoch = 11;
  m.wal_file = "WAL-000005";
  m.wal_seq = 5;
  ASSERT_TRUE(WriteManifest(Env::Default(), dir, m).ok());
  EXPECT_EQ(ReadManifest(Env::Default(), dir).value().wal_seq, 5u);
}

// ---------------------------------------------------------- DurableLog

TEST(DurableLogTest, BrokenLogFailsFastAndCheckpointRepairs) {
  const std::string dir = MakeTempDir();
  FaultInjectingEnv env(Env::Default());
  DurabilityOptions opts;
  opts.dir = dir;
  opts.env = &env;
  opts.max_write_retries = 1;
  opts.retry_backoff = std::chrono::milliseconds(0);

  CubeStore store(2, 5);
  std::vector<Dictionary> dicts(2);
  auto log = DurableLog::Open(opts, 0, store, dicts, false);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  const CubeCoords coords = {0, 0};
  const MomentsSketch s = SketchOf({1.0, 2.0}, 5);
  ASSERT_TRUE(store.ApplyDelta(coords, s).ok());
  ASSERT_TRUE(log.value()->LogEpoch(1, EpochPayload(1, coords, s, 2)).ok());

  // Exhaust the retry budget: epoch 2 fails, the log breaks.
  env.FailNextAppends(10);
  ASSERT_FALSE(log.value()->LogEpoch(2, EpochPayload(2, coords, s, 2)).ok());
  DurabilityStats st = log.value()->stats();
  EXPECT_TRUE(st.log_broken);
  EXPECT_EQ(st.wal_append_failures, 1u);
  EXPECT_FALSE(st.last_error.empty());
  EXPECT_TRUE(log.value()->ShouldCheckpoint());

  // Fail-fast: no append is attempted while broken (the fault plan's
  // remaining failures stay unconsumed for the checkpoint to clear).
  const uint64_t ops_before = env.mutating_ops();
  ASSERT_FALSE(log.value()->LogEpoch(3, EpochPayload(3, coords, s, 2)).ok());
  EXPECT_EQ(log.value()->stats().wal_append_failures, 1u);
  EXPECT_EQ(env.mutating_ops(), ops_before);

  // A checkpoint of the published state repairs durability.
  env.FailNextAppends(0);
  ASSERT_TRUE(store.ApplyDelta(coords, s).ok());  // state at epoch 3
  ASSERT_TRUE(log.value()->Checkpoint(3, store, dicts).ok());
  EXPECT_FALSE(log.value()->stats().log_broken);
  ASSERT_TRUE(log.value()->LogEpoch(4, EpochPayload(4, coords, s, 2)).ok());
  EXPECT_EQ(log.value()->stats().epochs_logged, 2u);
}

TEST(DurableLogTest, FreshOpenRefusesInitializedDirectory) {
  const std::string dir = MakeTempDir();
  CubeStore store(1, 4);
  std::vector<Dictionary> dicts(1);
  DurabilityOptions opts;
  opts.dir = dir;
  ASSERT_TRUE(DurableLog::Open(opts, 0, store, dicts, false).ok());
  EXPECT_FALSE(DurableLog::Open(opts, 0, store, dicts, false).ok());
  EXPECT_TRUE(DurableLog::Open(opts, 0, store, dicts, true).ok());
}

// ------------------------------------------------- StreamingCube e2e

constexpr size_t kDims = 2;

IngestOptions SmallIngest() {
  IngestOptions o;
  o.num_shards = 2;
  o.batch_size = 8;
  return o;
}

DurabilityOptions SmallDurability(const std::string& dir, Env* env) {
  DurabilityOptions d;
  d.dir = dir;
  d.env = env;
  d.checkpoint_every_epochs = 2;
  d.retry_backoff = std::chrono::milliseconds(0);
  return d;
}

// Deterministic workload: six epochs of string rows. Returns the
// serialized store and dictionaries recorded at every published epoch
// (from the live cube — the recovery oracle).
struct WorkloadTrace {
  std::map<uint64_t, std::vector<uint8_t>> store_at;
  std::map<uint64_t, std::vector<std::vector<std::string>>> dicts_at;
  uint64_t last_epoch = 0;
  bool durability_enabled = false;
};

WorkloadTrace RunWorkload(Env* env, const std::string& dir) {
  WorkloadTrace trace;
  StreamingCube cube(kDims, MomentsSummary(7), SmallIngest());
  Status enabled = cube.EnableDurability(SmallDurability(dir, env));
  if (!enabled.ok()) return trace;  // crashed during the baseline commit
  trace.durability_enabled = true;
  for (int round = 0; round < 6; ++round) {
    for (int r = 0; r < 8; ++r) {
      const std::vector<std::string> row = {
          "user" + std::to_string((round * 3 + r) % 5),
          "op" + std::to_string(r % 3)};
      EXPECT_TRUE(cube.AppendRow(row, 0.25 * r + round).ok());
    }
    std::shared_ptr<const CubeSnapshot> snap = cube.Flush();
    trace.store_at[snap->epoch] = SerializeStore(snap->store);
    trace.dicts_at[snap->epoch] = DumpDicts(cube);
    trace.last_epoch = snap->epoch;
  }
  return trace;
}

// Epoch 0 is the empty store.
std::vector<uint8_t> EmptyStoreBytes() {
  return SerializeStore(CubeStore(kDims, 7));
}

void VerifyRecovered(const StreamingCube& cube, const WorkloadTrace& trace,
                     const RecoveryStats& rs) {
  std::shared_ptr<const CubeSnapshot> snap = cube.Snapshot();
  const uint64_t epoch = snap->epoch;
  EXPECT_LE(epoch, trace.last_epoch);
  const std::vector<uint8_t> expect =
      epoch == 0 ? EmptyStoreBytes() : trace.store_at.at(epoch);
  EXPECT_EQ(SerializeStore(snap->store), expect)
      << "recovered state at epoch " << epoch << " is not bit-exact";
  if (epoch != 0) {
    EXPECT_EQ(DumpDicts(cube), trace.dicts_at.at(epoch));
  }
  EXPECT_EQ(rs.checkpoint_epoch + rs.epochs_replayed, epoch);
  EXPECT_EQ(rs.rows_recovered, snap->store.num_rows());
}

TEST(RecoverTest, CleanShutdownRecoversFinalEpochBitExact) {
  const std::string dir = MakeTempDir();
  const WorkloadTrace trace = RunWorkload(Env::Default(), dir);
  ASSERT_TRUE(trace.durability_enabled);
  ASSERT_EQ(trace.last_epoch, 6u);

  RecoveryStats rs;
  auto cube = StreamingCube::Recover(kDims, MomentsSummary(7), SmallIngest(),
                                     SmallDurability(dir, nullptr), &rs);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_TRUE(cube.value()->durable());
  EXPECT_TRUE(rs.checkpoint_loaded);
  EXPECT_EQ(rs.bytes_truncated, 0u);
  EXPECT_EQ(rs.checksum_failures, 0u);
  EXPECT_EQ(cube.value()->Snapshot()->epoch, trace.last_epoch);
  VerifyRecovered(*cube.value(), trace, rs);

  // Queries work on the recovered cube.
  Result<CubeFilter> filter =
      cube.value()->EncodeFilter({"user1", ""});
  ASSERT_TRUE(filter.ok());
  CertifiedQuantile q =
      cube.value()->QueryQuantileCertified(filter.value(), 0.5);
  EXPECT_TRUE(q.status.ok());
}

TEST(RecoverTest, RecoveredCubeContinuesDurably) {
  const std::string dir = MakeTempDir();
  const WorkloadTrace trace = RunWorkload(Env::Default(), dir);
  ASSERT_TRUE(trace.durability_enabled);

  uint64_t continued_epoch = 0;
  std::vector<uint8_t> continued_state;
  {
    auto cube = StreamingCube::Recover(kDims, MomentsSummary(7), SmallIngest(),
                                       SmallDurability(dir, nullptr), nullptr);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    ASSERT_TRUE(cube.value()->AppendRow({"user9", "op9"}, 42.0).ok());
    std::shared_ptr<const CubeSnapshot> snap = cube.value()->Flush();
    continued_epoch = snap->epoch;
    EXPECT_EQ(continued_epoch, trace.last_epoch + 1);
    continued_state = SerializeStore(snap->store);
    EXPECT_GE(cube.value()->durability_stats().epochs_logged, 1u);
  }
  // A second recovery sees the continued row.
  RecoveryStats rs;
  auto again = StreamingCube::Recover(kDims, MomentsSummary(7), SmallIngest(),
                                      SmallDurability(dir, nullptr), &rs);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value()->Snapshot()->epoch, continued_epoch);
  EXPECT_EQ(SerializeStore(again.value()->Snapshot()->store), continued_state);
  Result<std::string> v = again.value()->DecodeValue(0, 5);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), "user9");
}

TEST(RecoverTest, ShapeMismatchRejected) {
  const std::string dir = MakeTempDir();
  ASSERT_TRUE(RunWorkload(Env::Default(), dir).durability_enabled);
  EXPECT_FALSE(StreamingCube::Recover(kDims + 1, MomentsSummary(7),
                                      SmallIngest(),
                                      SmallDurability(dir, nullptr), nullptr)
                   .ok());
  EXPECT_FALSE(StreamingCube::Recover(kDims, MomentsSummary(9), SmallIngest(),
                                      SmallDurability(dir, nullptr), nullptr)
                   .ok());
}

TEST(RecoverTest, EnableDurabilityGuards) {
  const std::string dir = MakeTempDir();
  {
    StreamingCube cube(kDims, MomentsSummary(7), SmallIngest());
    ASSERT_TRUE(cube.AppendRow({"a", "b"}, 1.0).ok());
    // Non-empty cube: durability would not cover the buffered row.
    EXPECT_FALSE(cube.EnableDurability(SmallDurability(dir, nullptr)).ok());
  }
  ASSERT_TRUE(RunWorkload(Env::Default(), dir).durability_enabled);
  {
    // Initialized directory: must go through Recover, not a fresh enable.
    StreamingCube cube(kDims, MomentsSummary(7), SmallIngest());
    EXPECT_FALSE(cube.EnableDurability(SmallDurability(dir, nullptr)).ok());
  }
}

// The tentpole acceptance: kill the cube at EVERY injected crash point —
// mid-WAL-append, mid-checkpoint, mid-manifest-rename — and prove
// recovery lands on a bit-exact published epoch.
TEST(RecoverTest, CrashSweepRecoversBitExactAtEveryPoint) {
  // Clean run bounds the sweep.
  uint64_t total_ops = 0;
  {
    const std::string dir = MakeTempDir();
    FaultInjectingEnv env(Env::Default());
    const WorkloadTrace trace = RunWorkload(&env, dir);
    ASSERT_TRUE(trace.durability_enabled);
    total_ops = env.mutating_ops();
  }
  ASSERT_GT(total_ops, 20u);

  uint64_t recovered_runs = 0;
  for (uint64_t crash_at = 0; crash_at < total_ops; ++crash_at) {
    const std::string dir = MakeTempDir();
    FaultInjectingEnv env(Env::Default());
    // Tear the crashing append mid-record: 3 bytes of it land.
    env.CrashAfterOps(crash_at, /*short_write_bytes=*/3);
    const WorkloadTrace trace = RunWorkload(&env, dir);
    EXPECT_TRUE(env.crashed()) << "crash point " << crash_at << " not reached";

    RecoveryStats rs;
    auto cube = StreamingCube::Recover(kDims, MomentsSummary(7), SmallIngest(),
                                       SmallDurability(dir, nullptr), &rs);
    if (!trace.durability_enabled) {
      // Crash before the baseline committed: there may be nothing to
      // recover, which must surface as an error, not a bogus cube.
      if (!cube.ok()) continue;
    }
    ASSERT_TRUE(cube.ok())
        << "crash point " << crash_at << ": " << cube.status().ToString();
    VerifyRecovered(*cube.value(), trace, rs);
    ++recovered_runs;
  }
  // The sweep must include points after the baseline (real recoveries).
  EXPECT_GT(recovered_runs, total_ops / 2);
}

// ------------------------------------------------- stall budget (bugfix)

TEST(StallBudgetTest, ShardAppendFailsInsteadOfHangingForever) {
  // Tiny shard, no drainer: the pool exhausts and, pre-fix, Append would
  // spin forever. With a budget it must return kDeadlineExceeded.
  IngestShard shard(/*num_dims=*/1, /*k=*/5, /*batch_size=*/4,
                    /*chunk_cells=*/4, /*chunks=*/2,
                    std::chrono::milliseconds(50));
  Status st;
  for (uint32_t i = 0; i < 1000 && st.ok(); ++i) {
    st = shard.Append({i}, 1.0);
  }
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  const IngestShardStats stats = shard.stats();
  EXPECT_GE(stats.deadline_events, 1u);
  EXPECT_GE(stats.rows_deadline_failed, 1u);
  // Draining unblocks: after the publisher recycles chunks, appends work.
  EpochDelta drained(1, 5);
  shard.Drain(&drained);
  EXPECT_TRUE(shard.Append({0}, 1.0).ok());
}

TEST(StallBudgetTest, AppendRowsFailsMidBatchWithCountedPartialState) {
  // The batched path must honor the same budget: a multi-row AppendRows
  // that stalls mid-batch returns kDeadlineExceeded, keeps the rows it
  // appended before the failure point, and accounts for every row —
  // appended + reported-dropped == attempted, nothing lost or doubled.
  IngestShard shard(/*num_dims=*/1, /*k=*/5, /*batch_size=*/4,
                    /*chunk_cells=*/4, /*chunks=*/2,
                    std::chrono::milliseconds(50));
  std::vector<IngestRow> rows;
  rows.reserve(1000);
  for (uint32_t i = 0; i < 1000; ++i) rows.push_back({{i}, 1.0});
  Status st = shard.AppendRows(rows.data(), rows.size());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  const IngestShardStats stats = shard.stats();
  EXPECT_GE(stats.deadline_events, 1u);
  EXPECT_GE(stats.rows_deadline_failed, 1u);
  EXPECT_GT(stats.rows_appended, 0u);
  EXPECT_EQ(stats.rows_appended + stats.rows_deadline_failed, rows.size());
  // The partial state is non-corrupt: draining yields exactly the
  // appended rows, and the shard keeps working afterwards.
  uint64_t drained_rows = 0;
  EpochDelta drained(1, 5);
  shard.Drain(&drained);
  for (size_t i = 0; i < drained.size(); ++i) {
    drained_rows += drained.Moments().counts[i];
  }
  EXPECT_EQ(drained_rows, stats.rows_appended);
  EXPECT_TRUE(shard.Append({0}, 1.0).ok());
}

TEST(StallBudgetTest, CubeSurfacesDeadlineInStats) {
  IngestOptions options;
  options.num_shards = 1;
  options.batch_size = 4;
  options.chunk_cells = 4;
  options.chunks_per_shard = 2;
  options.backpressure_stall_budget = std::chrono::milliseconds(50);
  StreamingCube cube(1, MomentsSummary(5), options);
  // Publisher never started, no Flush: nothing drains.
  Status st;
  for (uint32_t i = 0; i < 1000 && st.ok(); ++i) {
    st = cube.Append({i}, 0.5);
  }
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  const IngestStats stats = cube.stats();
  EXPECT_GE(stats.deadline_events, 1u);
  EXPECT_GE(stats.rows_deadline_failed, 1u);
  // Flush drains the wedge; the cube is usable again.
  cube.Flush();
  EXPECT_TRUE(cube.Append({0}, 0.5).ok());
}

}  // namespace
}  // namespace msketch
