// EpochDelta, the columnar form an epoch travels in from the shard drain
// to every store: byte identity of the epoch record against per-sketch
// Serialize, decode/encode round trips, shard-order apply, bit-exact
// checkpoint restore, and a structure-aware mutation driver over epoch
// records and checkpoint images (every input decodes or fails with a
// Status, and every decoded delta applies or fails with a Status).
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "common/sealed_record.h"
#include "core/compressed_sketch.h"
#include "core/moments_sketch.h"
#include "cube/cube_store.h"
#include "cube/dictionary.h"
#include "cube/epoch_delta.h"
#include "ingest/ingest_shard.h"
#include "persist/checkpoint.h"
#include "persist/durable_log.h"
#include "persist/wal.h"
#include "replica/frame.h"
#include "sketches/kll_sketch.h"

namespace msketch {
namespace {

constexpr size_t kDims = 3;
constexpr int kK = 6;
constexpr int kKllK = 16;

// The store's full state as bytes: a checkpoint image carries every
// column, coordinate and KLL sketch bit for bit.
std::vector<uint8_t> StoreBytes(const CubeStore& store) {
  std::vector<uint8_t> out;
  EXPECT_TRUE(EncodeCheckpointImage(
                  0, store, std::vector<Dictionary>(store.num_dims()), &out)
                  .ok());
  return out;
}

// One shard's rows for one cell, in arrival order.
using CellRows = std::map<CubeCoords, std::vector<double>>;

// Rows for two shards over a small coordinate space: cells shared by
// both shards, cells of one shard, and cells with at least kKllK rows
// in one shard (their KLL slots compact).
std::vector<CellRows> MakeShardRows(uint64_t seed) {
  Rng rng(seed);
  std::vector<CellRows> shards(2);
  for (size_t s = 0; s < shards.size(); ++s) {
    for (int i = 0; i < 240; ++i) {
      // Every fifth row lands in one hot cell.
      const bool hot = i % 5 == 0;
      const CubeCoords c = {static_cast<uint32_t>(hot ? 1 : rng.NextBelow(3)),
                            static_cast<uint32_t>(hot ? 2 : rng.NextBelow(4)),
                            static_cast<uint32_t>(hot ? 0 : rng.NextBelow(9))};
      shards[s][c].push_back(rng.NextLognormal(0.0, 1.0) - 0.4);
    }
  }
  return shards;
}

// Drains shards fed `rows` (one chunk holds every cell, so each shard
// drains one delta per cell) into one delta, sorted as the publisher
// sorts it. Rows enter each shard interleaved across cells.
EpochDelta DrainShards(const std::vector<CellRows>& rows, int kll_k) {
  EpochDelta delta(kDims, kK);
  for (const CellRows& shard_rows : rows) {
    IngestShard shard(kDims, kK, /*batch_size=*/5, /*chunk_cells=*/256,
                      /*chunks=*/4, IngestShard::kDefaultStallBudget, kll_k);
    size_t left = 0;
    for (const auto& [c, v] : shard_rows) left += v.size();
    std::map<CubeCoords, size_t> next;
    while (left > 0) {
      for (const auto& [c, v] : shard_rows) {
        size_t& at = next[c];
        if (at < v.size()) {
          EXPECT_TRUE(shard.Append(c, v[at++]).ok());
          --left;
        }
      }
    }
    shard.Drain(&delta);
  }
  EpochDelta scratch;
  delta.SortByCoords(&scratch);
  return delta;
}

// The record the per-sketch Serialize calls write for the same cells:
// cells by ascending coordinates, a cell's shard deltas in shard order.
std::vector<uint8_t> ReferenceRecord(
    uint64_t epoch, const std::vector<uint32_t>& dict_start,
    const std::vector<std::vector<std::string>>& dict_values,
    const std::vector<CellRows>& rows, int kll_k) {
  std::map<CubeCoords, std::vector<const std::vector<double>*>> cells;
  for (const CellRows& shard_rows : rows) {
    for (const auto& [c, v] : shard_rows) cells[c].push_back(&v);
  }
  BytesWriter w;
  w.PutU64(epoch);
  w.PutU32(static_cast<uint32_t>(dict_start.size()));
  for (size_t d = 0; d < dict_start.size(); ++d) {
    w.PutU32(dict_start[d]);
    w.PutU32(static_cast<uint32_t>(dict_values[d].size()));
    for (const std::string& s : dict_values[d]) w.PutString(s);
  }
  uint32_t n = 0;
  for (const auto& [c, deltas] : cells) n += deltas.size();
  w.PutU32(n);
  for (const auto& [c, deltas] : cells) {
    for (const std::vector<double>* values : deltas) {
      w.PutU32(static_cast<uint32_t>(c.size()));
      for (uint32_t x : c) w.PutU32(x);
      w.PutU8(kll_k > 0 ? 1 : 0);
      MomentsSketch sketch(kK);
      KllSketch kll(kll_k);
      for (double x : *values) {
        sketch.Accumulate(x);
        kll.Accumulate(x);
      }
      sketch.Serialize(&w);
      if (kll_k > 0) kll.Serialize(&w);
    }
  }
  return w.Take();
}

std::vector<uint8_t> Encode(uint64_t epoch,
                            const std::vector<uint32_t>& dict_start,
                            const std::vector<std::vector<std::string>>& dict,
                            const EpochDelta& delta) {
  BytesWriter w;
  EncodeEpochRecord(epoch, dict_start, dict, delta, &w);
  return w.Take();
}

struct DictCase {
  std::vector<uint32_t> start;
  std::vector<std::vector<std::string>> values;
};

std::vector<DictCase> DictCases() {
  return {{{0, 0, 0}, {{}, {}, {}}},
          {{3, 0, 7}, {{"eu-west", "ap-south"}, {}, {"db-1"}}}};
}

// (a) The record written from a drained EpochDelta is byte for byte the
// one per-cell MomentsSketch/KllSketch Serialize calls write: with
// compacted KLL slots, without KLL, and with empty and non-empty
// dictionary deltas. (b) Decoding it and encoding again gives the same
// bytes.
TEST(EpochDeltaTest, RecordMatchesPerSketchSerializeAndRoundTrips) {
  for (int kll_k : {0, kKllK}) {
    SCOPED_TRACE(kll_k);
    const std::vector<CellRows> rows = MakeShardRows(0x5eed + kll_k);
    bool compacted = false;
    for (const CellRows& shard_rows : rows) {
      for (const auto& [c, v] : shard_rows) compacted |= v.size() >= kKllK;
    }
    ASSERT_TRUE(compacted);
    const EpochDelta delta = DrainShards(rows, kll_k);
    for (const DictCase& dict : DictCases()) {
      const std::vector<uint8_t> bytes =
          Encode(9, dict.start, dict.values, delta);
      EXPECT_EQ(bytes, ReferenceRecord(9, dict.start, dict.values, rows, kll_k));
      BytesReader in(bytes);
      Result<WalEpochRecord> rec = DecodeEpochRecord(&in);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      EXPECT_EQ(rec.value().dict_start, dict.start);
      EXPECT_EQ(rec.value().dict_values, dict.values);
      EXPECT_EQ(Encode(rec.value().epoch, rec.value().dict_start,
                       rec.value().dict_values, rec.value().cells),
                bytes);
    }
  }
}

// (c) A cell drained from two shards applies in shard order: one
// ApplyDeltas of the sorted delta leaves the store bit-identical to
// one-cell applies of each shard's sketches, cell by cell in coordinate
// order, shard 0 before shard 1.
TEST(EpochDeltaTest, SharedCellsApplyInShardOrder) {
  const std::vector<CellRows> rows = MakeShardRows(0xa991);
  const EpochDelta delta = DrainShards(rows, kKllK);
  CubeStore batched(kDims, kK), single(kDims, kK);
  batched.EnableKll(kKllK);
  single.EnableKll(kKllK);
  // A first epoch, so later deltas merge into non-empty KLL cells.
  for (int epoch = 0; epoch < 2; ++epoch) {
    ASSERT_TRUE(batched.ApplyDeltas(delta).ok());
    std::map<CubeCoords, std::vector<const std::vector<double>*>> cells;
    for (const CellRows& shard_rows : rows) {
      for (const auto& [c, v] : shard_rows) cells[c].push_back(&v);
    }
    size_t shared = 0;
    for (const auto& [c, deltas] : cells) {
      shared += deltas.size() > 1;
      for (const std::vector<double>* values : deltas) {
        MomentsSketch sketch(kK);
        KllSketch kll(kKllK);
        for (double x : *values) {
          sketch.Accumulate(x);
          kll.Accumulate(x);
        }
        ASSERT_TRUE(single.ApplyDelta(c, sketch).ok());
        ASSERT_TRUE(single.ApplyKllDelta(c, kll).ok());
      }
    }
    ASSERT_GT(shared, 0u);
    EXPECT_EQ(StoreBytes(batched), StoreBytes(single));
  }
}

// (d) Checkpoint restore is bit-exact: rebuilding a store from its
// checkpoint image (ApplyDeltas of EpochDelta batches) gives back the
// same image, KLL coin states included.
TEST(EpochDeltaTest, CheckpointRestoreIsBitExact) {
  CubeStore store(kDims, kK);
  store.EnableKll(kKllK);
  Rng rng(0xc4e);
  for (int i = 0; i < 5000; ++i) {
    store.Ingest({static_cast<uint32_t>(rng.NextBelow(5)),
                  static_cast<uint32_t>(rng.NextBelow(7)),
                  static_cast<uint32_t>(rng.NextBelow(11))},
                 rng.NextLognormal(0.0, 1.0) - 0.5);
  }
  const std::vector<uint8_t> image = StoreBytes(store);
  Result<CheckpointData> ckpt = DecodeCheckpointImage(image);
  ASSERT_TRUE(ckpt.ok());
  RecoveredState state;
  state.checkpoint = std::move(ckpt).value();
  CubeStore rebuilt(kDims, kK);
  ASSERT_TRUE(RebuildStore(state, &rebuilt, nullptr).ok());
  EXPECT_EQ(StoreBytes(rebuilt), image);
}

// ------------------------------------------------------ mutation driver
//
// gcc has no libFuzzer, so the driver is here: it walks a valid input,
// noting where each structural field sits, then mutates fields by kind
// (counts, lengths, arity, tag bits, KLL level counts, level sizes and
// weighted totals) or truncates, and re-seals the checksum so the
// mutation reaches the decoder. A fixed seed list keeps every run the
// same.

enum class Field {
  kCount,       // u32 element count: dictionary, cells, levels, items
  kLength,      // u32 string length
  kArity,       // u32 coordinate count
  kTag,         // u8 backend tag
  kOrder,       // u32 moment order or KLL k
  kTotal,       // u64 count, log count, KLL n or error bound
  kValue,       // f64 or u32 payload value
};

struct FieldAt {
  size_t offset;
  size_t width;
  Field kind;
};

// A reader that notes each field's offset and kind while it walks.
class Walker {
 public:
  Walker(const std::vector<uint8_t>& bytes, size_t begin)
      : bytes_(bytes), pos_(begin) {}

  uint32_t U32(Field kind) { return Take<uint32_t>(kind); }
  uint64_t U64(Field kind) { return Take<uint64_t>(kind); }
  uint8_t U8(Field kind) { return Take<uint8_t>(kind); }
  void Skip(size_t n) { pos_ += n; }
  size_t pos() const { return pos_; }
  std::vector<FieldAt> fields;

  void String() { Skip(U32(Field::kLength)); }
  void Moments() {
    const uint32_t k = U32(Field::kOrder);
    U64(Field::kTotal);
    U64(Field::kTotal);
    Skip(8 * (2 + 2 * static_cast<size_t>(k)));
  }
  void Kll() {
    U32(Field::kOrder);
    U64(Field::kTotal);
    U64(Field::kTotal);
    U64(Field::kValue);
    Skip(16);
    const uint32_t levels = U32(Field::kCount);
    for (uint32_t h = 0; h < levels; ++h) {
      const uint32_t items = U32(Field::kCount);
      for (uint32_t i = 0; i < items; ++i) {
        fields.push_back({pos_, 8, Field::kValue});
        Skip(8);
      }
    }
  }

 private:
  template <typename T>
  T Take(Field kind) {
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(v));
    fields.push_back({pos_, sizeof(v), kind});
    pos_ += sizeof(v);
    return v;
  }
  const std::vector<uint8_t>& bytes_;
  size_t pos_;
};

std::vector<FieldAt> EpochRecordFields(const std::vector<uint8_t>& rec) {
  Walker w(rec, 0);
  w.U64(Field::kValue);
  const uint32_t dims = w.U32(Field::kArity);
  for (uint32_t d = 0; d < dims; ++d) {
    w.U32(Field::kValue);
    const uint32_t n = w.U32(Field::kCount);
    for (uint32_t i = 0; i < n; ++i) w.String();
  }
  const uint32_t cells = w.U32(Field::kCount);
  for (uint32_t c = 0; c < cells; ++c) {
    const uint32_t arity = w.U32(Field::kArity);
    for (uint32_t d = 0; d < arity; ++d) w.U32(Field::kValue);
    const uint8_t tag = w.U8(Field::kTag);
    w.Moments();
    if (tag & 1) w.Kll();
  }
  EXPECT_EQ(w.pos(), rec.size());
  return w.fields;
}

// Fields of a checkpoint image body (the column section, an opaque
// CRC-framed codec of its own, is left to byte-level mutations).
std::vector<FieldAt> CheckpointFields(const std::vector<uint8_t>& image,
                                      size_t num_cells, size_t columns_len) {
  Walker w(image, 8);
  w.U8(Field::kTag);
  w.U64(Field::kValue);
  const uint32_t dims = w.U32(Field::kArity);
  w.U32(Field::kOrder);
  for (uint32_t d = 0; d < dims; ++d) {
    const uint32_t n = w.U32(Field::kCount);
    for (uint32_t i = 0; i < n; ++i) w.String();
  }
  w.U32(Field::kCount);
  for (size_t c = 0; c < num_cells * dims; ++c) w.U32(Field::kValue);
  w.Skip(columns_len);
  if (w.U8(Field::kTag) == 1) {
    w.U32(Field::kOrder);
    for (size_t c = 0; c < num_cells; ++c) w.Kll();
  }
  EXPECT_EQ(w.pos() + 4, image.size());
  return w.fields;
}

uint64_t Interesting(Rng* rng, Field kind, uint64_t old) {
  static const uint64_t kEdges[] = {0,          1,          2,
                                    7,          8,          63,
                                    64,         65,         0xFF,
                                    0x10000,    1u << 24,   (1u << 24) + 1,
                                    0x7FFFFFFF, 0xFFFFFFFF, ~uint64_t{0}};
  switch (rng->NextBelow(4)) {
    case 0:
      return old + 1;
    case 1:
      return old - 1;
    case 2:
      return kEdges[rng->NextBelow(sizeof(kEdges) / sizeof(kEdges[0]))];
    default:
      return kind == Field::kTag ? rng->NextBelow(256) : rng->NextU64();
  }
}

// One mutation of `in`: a field by kind, a bit flip, or a truncation.
std::vector<uint8_t> Mutate(Rng* rng, const std::vector<uint8_t>& in,
                            const std::vector<FieldAt>& fields, size_t begin,
                            size_t end) {
  std::vector<uint8_t> out = in;
  const uint64_t op = rng->NextBelow(10);
  if (op < 7 && !fields.empty()) {
    const FieldAt& f = fields[rng->NextBelow(fields.size())];
    uint64_t old = 0;
    std::memcpy(&old, out.data() + f.offset, f.width);
    const uint64_t v = Interesting(rng, f.kind, old);
    std::memcpy(out.data() + f.offset, &v, f.width);
  } else if (op < 9) {
    const size_t at = begin + rng->NextBelow(end - begin);
    out[at] ^= static_cast<uint8_t>(1u << rng->NextBelow(8));
  } else {
    out.resize(begin + rng->NextBelow(end - begin));
  }
  return out;
}

// Applies a decoded delta to scratch stores: the record's own shape and
// the seed's; each must apply or return a Status.
void ApplyToScratchStores(const EpochDelta& delta) {
  const KllHeader* kll = nullptr;
  for (size_t i = 0; i < delta.size() && kll == nullptr; ++i) {
    kll = delta.KllHeaderOf(i);
  }
  std::vector<std::pair<size_t, int>> shapes = {{kDims, kK}};
  if (delta.num_dims() <= 64 && delta.k() >= 1) {
    shapes.push_back({delta.num_dims(), delta.k()});
  }
  for (const auto& [dims, k] : shapes) {
    for (int kll_k : {0, kll != nullptr ? kll->k : kKllK}) {
      CubeStore store(dims, k);
      if (kll_k > 0) store.EnableKll(kll_k);
      (void)store.ApplyDeltas(delta);
    }
  }
}

// A valid-or-Status decode of one mutated epoch record, reached three
// ways: directly, inside a re-sealed WAL record, and inside a re-sealed
// replica frame.
void CheckEpochRecord(const std::vector<uint8_t>& header,
                      const std::vector<uint8_t>& payload) {
  BytesReader direct(payload);
  Result<WalEpochRecord> rec = DecodeEpochRecord(&direct);
  if (rec.ok()) {
    const WalEpochRecord& r = rec.value();
    ApplyToScratchStores(r.cells);
    // Re-encoding a decoded record is stable.
    const std::vector<uint8_t> again =
        Encode(r.epoch, r.dict_start, r.dict_values, r.cells);
    BytesReader in(again);
    Result<WalEpochRecord> back = DecodeEpochRecord(&in);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(Encode(back.value().epoch, back.value().dict_start,
                     back.value().dict_values, back.value().cells),
              again);
  }
  std::vector<uint8_t> wal = header;
  SealRecord(kWalRecordEpoch, payload, &wal);
  size_t wal_records = 0;
  const Status st = ReadWalRecords(
      wal,
      [&](uint8_t, BytesReader* in) {
        ++wal_records;
        Result<WalEpochRecord> r = DecodeEpochRecord(in);
        return r.ok() ? Status::OK() : r.status();
      },
      nullptr);
  EXPECT_EQ(wal_records, 1u);
  EXPECT_EQ(st.ok(), rec.ok());
  Result<Frame> frame = DecodeFrame(EncodeFrame(FrameType::kDelta, payload));
  ASSERT_TRUE(frame.ok());
  BytesReader framed(frame.value().payload);
  EXPECT_EQ(DecodeEpochRecord(&framed).ok(), rec.ok());
}

// The header of a fresh WAL file (written to a temporary directory,
// which is removed again).
std::vector<uint8_t> WalHeader() {
  std::string tmpl = ::testing::TempDir() + "/msketch_fuzz_XXXXXX";
  const char* dir = ::mkdtemp(&tmpl[0]);
  EXPECT_NE(dir, nullptr);
  const std::string path = JoinPath(dir, "WAL-000001");
  auto writer =
      WalWriter::Create(Env::Default(), path, kK, kDims, WalWriterOptions());
  EXPECT_TRUE(writer.ok());
  EXPECT_TRUE(writer.value()->Close().ok());
  Result<std::vector<uint8_t>> bytes = Env::Default()->ReadFile(path);
  EXPECT_TRUE(bytes.ok());
  EXPECT_TRUE(Env::Default()->DeleteFile(path).ok());
  ::rmdir(dir);
  return bytes.value();
}

constexpr uint64_t kFuzzSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34};
constexpr int kMutationsPerSeed = 400;

TEST(EpochDeltaFuzzTest, MutatedEpochRecordsDecodeOrFail) {
  const std::vector<uint8_t> header = WalHeader();
  std::vector<std::vector<uint8_t>> corpus;
  for (int kll_k : {0, kKllK}) {
    const EpochDelta delta = DrainShards(MakeShardRows(0xf00 + kll_k), kll_k);
    for (const DictCase& dict : DictCases()) {
      corpus.push_back(Encode(4, dict.start, dict.values, delta));
    }
  }
  size_t decoded = 0, total = 0;
  for (uint64_t seed : kFuzzSeeds) {
    Rng rng(seed);
    for (const std::vector<uint8_t>& record : corpus) {
      const std::vector<FieldAt> fields = EpochRecordFields(record);
      for (int m = 0; m < kMutationsPerSeed / 4; ++m) {
        std::vector<uint8_t> input =
            Mutate(&rng, record, fields, 0, record.size());
        // A second mutation now and then: two damaged fields at once.
        if (rng.NextBelow(4) == 0 && !input.empty()) {
          input = Mutate(&rng, input, {}, 0, input.size());
        }
        CheckEpochRecord(header, input);
        BytesReader in(input);
        decoded += DecodeEpochRecord(&in).ok();
        ++total;
        if (HasFatalFailure()) return;
      }
    }
  }
  // Both outcomes occur: the mutations reach past the first check.
  EXPECT_GT(decoded, total / 20);
  EXPECT_LT(decoded, total);
}

TEST(EpochDeltaFuzzTest, MutatedCheckpointImagesDecodeOrFail) {
  CubeStore store(kDims, kK);
  store.EnableKll(kKllK);
  Rng data(0xc0de);
  for (int i = 0; i < 600; ++i) {
    store.Ingest({static_cast<uint32_t>(data.NextBelow(3)),
                  static_cast<uint32_t>(data.NextBelow(4)),
                  static_cast<uint32_t>(data.NextBelow(3))},
                 data.NextLognormal(0.0, 1.0) - 0.3);
  }
  std::vector<Dictionary> dicts(kDims);
  for (size_t d = 0; d < kDims; ++d) {
    for (int v = 0; v < 4; ++v) {
      dicts[d].Intern("v" + std::to_string(d) + "-" + std::to_string(v));
    }
  }
  std::vector<uint8_t> image;
  ASSERT_TRUE(EncodeCheckpointImage(3, store, dicts, &image).ok());
  BytesWriter columns;
  EncodeSketchColumns(store.Columns(), &columns);
  const std::vector<FieldAt> fields =
      CheckpointFields(image, store.num_cells(), columns.size());
  size_t decoded = 0, total = 0;
  for (uint64_t seed : kFuzzSeeds) {
    Rng rng(seed);
    for (int m = 0; m < kMutationsPerSeed / 2; ++m) {
      std::vector<uint8_t> input =
          Mutate(&rng, image, fields, 8, image.size() - 4);
      if (input.size() >= 12) {
        // Re-seal the trailer: the CRC over everything after the magic.
        input.resize(input.size() - 4);
        const uint32_t crc = crc32c::Mask(
            crc32c::Value(input.data() + 8, input.size() - 8));
        const uint8_t* b = reinterpret_cast<const uint8_t*>(&crc);
        input.insert(input.end(), b, b + 4);
      }
      Result<CheckpointData> ckpt = DecodeCheckpointImage(input);
      ++total;
      if (!ckpt.ok()) continue;
      ++decoded;
      RecoveredState state;
      state.checkpoint = std::move(ckpt).value();
      CubeStore scratch(kDims, kK);
      (void)RebuildStore(state, &scratch, nullptr);
    }
  }
  EXPECT_GT(decoded, total / 20);
  EXPECT_LT(decoded, total);
}

}  // namespace
}  // namespace msketch
