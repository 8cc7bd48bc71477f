#include "persist/wal.h"

#include <thread>

#include "common/crc32c.h"
#include "common/macros.h"
#include "common/sealed_record.h"
#include "obs/metrics.h"

namespace msketch {

namespace {

constexpr char kWalMagic[8] = {'M', 'S', 'K', 'W', 'A', 'L', '0', '1'};
// Version 2 added the per-cell backend tag byte (bit 0: KLL delta).
constexpr uint8_t kWalVersion = 2;
constexpr uint8_t kCellHasKll = 1u << 0;
// Dimension arities beyond this are corrupt headers, not real cubes.
constexpr uint32_t kMaxDims = 1u << 16;

}  // namespace

void EncodeEpochRecord(uint64_t epoch,
                       const std::vector<uint32_t>& dict_start,
                       const std::vector<std::vector<std::string>>& dict_values,
                       const std::vector<DeltaRef>& cells,
                       BytesWriter* out) {
  MSKETCH_CHECK(dict_start.size() == dict_values.size());
  out->PutU64(epoch);
  out->PutU32(static_cast<uint32_t>(dict_start.size()));
  for (size_t d = 0; d < dict_start.size(); ++d) {
    out->PutU32(dict_start[d]);
    out->PutU32(static_cast<uint32_t>(dict_values[d].size()));
    for (const std::string& v : dict_values[d]) out->PutString(v);
  }
  out->PutU32(static_cast<uint32_t>(cells.size()));
  for (const DeltaRef& cell : cells) {
    out->PutU32(static_cast<uint32_t>(cell.coords->size()));
    for (uint32_t c : *cell.coords) out->PutU32(c);
    out->PutU8(cell.kll != nullptr ? kCellHasKll : 0);
    cell.sketch->Serialize(out);
    if (cell.kll != nullptr) cell.kll->Serialize(out);
  }
}

Result<WalEpochRecord> DecodeEpochRecord(BytesReader* in) {
  WalEpochRecord rec;
  MSKETCH_RETURN_NOT_OK(in->GetU64(&rec.epoch));
  uint32_t num_dims = 0;
  MSKETCH_RETURN_NOT_OK(in->GetU32(&num_dims));
  if (num_dims == 0 || num_dims > kMaxDims) {
    return Status::Corruption("epoch record: bad dimension count");
  }
  rec.dict_start.resize(num_dims);
  rec.dict_values.resize(num_dims);
  for (uint32_t d = 0; d < num_dims; ++d) {
    MSKETCH_RETURN_NOT_OK(in->GetU32(&rec.dict_start[d]));
    uint32_t count = 0;
    MSKETCH_RETURN_NOT_OK(in->GetU32(&count));
    if (count > in->remaining()) {
      return Status::Corruption("epoch record: dict delta exceeds buffer");
    }
    rec.dict_values[d].resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      MSKETCH_RETURN_NOT_OK(in->GetString(&rec.dict_values[d][i]));
    }
  }
  uint32_t num_cells = 0;
  MSKETCH_RETURN_NOT_OK(in->GetU32(&num_cells));
  if (num_cells > in->remaining()) {
    return Status::Corruption("epoch record: cell count exceeds buffer");
  }
  rec.cells.reserve(num_cells);
  for (uint32_t i = 0; i < num_cells; ++i) {
    uint32_t arity = 0;
    MSKETCH_RETURN_NOT_OK(in->GetU32(&arity));
    if (arity != num_dims) {
      return Status::Corruption("epoch record: cell arity mismatch");
    }
    CubeCoords coords(arity);
    for (uint32_t d = 0; d < arity; ++d) {
      MSKETCH_RETURN_NOT_OK(in->GetU32(&coords[d]));
    }
    uint8_t tag = 0;
    MSKETCH_RETURN_NOT_OK(in->GetU8(&tag));
    if ((tag & ~kCellHasKll) != 0) {
      return Status::Corruption("epoch record: unknown cell backend tag");
    }
    Result<MomentsSketch> sketch = MomentsSketch::Deserialize(in);
    if (!sketch.ok()) return sketch.status();
    WalCell cell;
    cell.coords = std::move(coords);
    cell.sketch = std::move(sketch).value();
    if ((tag & kCellHasKll) != 0) {
      Result<KllSketch> kll = KllSketch::Deserialize(in);
      if (!kll.ok()) return kll.status();
      cell.has_kll = true;
      cell.kll = std::move(kll).value();
    }
    rec.cells.push_back(std::move(cell));
  }
  return rec;
}

std::vector<DeltaRef> DeltaRefsOf(const WalEpochRecord& rec) {
  std::vector<DeltaRef> refs;
  refs.reserve(rec.cells.size());
  for (const WalCell& cell : rec.cells) {
    refs.push_back(
        {&cell.coords, &cell.sketch, cell.has_kll ? &cell.kll : nullptr});
  }
  return refs;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(
    Env* env, const std::string& path, int k, size_t num_dims,
    const WalWriterOptions& options) {
  Result<std::unique_ptr<WritableFile>> file = env->NewWritableFile(path);
  if (!file.ok()) return file.status();
  std::unique_ptr<WalWriter> writer(
      new WalWriter(std::move(file).value(), path, options));
  BytesWriter header;
  for (char c : kWalMagic) header.PutU8(static_cast<uint8_t>(c));
  header.PutU8(kWalVersion);
  header.PutU32(static_cast<uint32_t>(k));
  header.PutU32(static_cast<uint32_t>(num_dims));
  const uint32_t crc = crc32c::Value(header.bytes().data() + sizeof(kWalMagic),
                                     header.size() - sizeof(kWalMagic));
  header.PutU32(crc32c::Mask(crc));
  MSKETCH_RETURN_IF_ERROR(writer->AppendWithRetry(header.bytes()));
  MSKETCH_RETURN_IF_ERROR(writer->Sync());
  writer->bytes_appended_ = header.size();
  return writer;
}

Status WalWriter::AppendWithRetry(const std::vector<uint8_t>& bytes) {
  Status last;
  auto backoff = options_.retry_backoff;
  for (int attempt = 0; attempt <= options_.max_write_retries; ++attempt) {
    if (attempt > 0) {
      ++write_retries_;
      if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
      backoff *= 2;
    }
    last = file_->Append(bytes);
    if (last.ok()) return last;
    // Retry only transient failures; a deterministic error (bad
    // argument, corruption) fails the same way every attempt.
    if (!IsRetryable(last)) return last;
  }
  return last;
}

Status WalWriter::AppendRecord(uint8_t type,
                               const std::vector<uint8_t>& payload) {
  if (payload.size() > kMaxRecordLen) {
    return Status::InvalidArgument("WAL record exceeds max length");
  }
  // One Append call per record: the record is the tear unit the reader's
  // truncation logic is built around.
  std::vector<uint8_t> bytes;
  SealRecord(type, payload, &bytes);
  MSKETCH_RETURN_IF_ERROR(AppendWithRetry(bytes));
  ++records_appended_;
  bytes_appended_ += bytes.size();
  ++records_since_sync_;
  switch (options_.fsync_policy) {
    case FsyncPolicy::kNone:
      break;
    case FsyncPolicy::kEveryN:
      if (records_since_sync_ >= options_.fsync_every_n) {
        MSKETCH_RETURN_IF_ERROR(Sync());
      }
      break;
    case FsyncPolicy::kPerEpoch:
      MSKETCH_RETURN_IF_ERROR(Sync());
      break;
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  // Fsync latency dominates the durability hook under kPerEpoch; the
  // distribution (not the mean) is what exposes a stalling disk.
  static obs::Histogram* const fsync_hist =
      obs::GlobalRegistry().GetHistogram(
          "msk_wal_fsync_seconds", {}, "WAL fsync latency (with retries)",
          obs::HistogramUnit::kSeconds);
  obs::ScopedLatencyTimer timer(fsync_hist);
  Status last;
  auto backoff = options_.retry_backoff;
  for (int attempt = 0; attempt <= options_.max_write_retries; ++attempt) {
    if (attempt > 0) {
      ++write_retries_;
      if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
      backoff *= 2;
    }
    last = file_->Sync();
    if (last.ok()) {
      records_since_sync_ = 0;
      ++syncs_;
      return last;
    }
    if (!IsRetryable(last)) return last;
  }
  return last;
}

Status WalWriter::Close() { return file_->Close(); }

Status ReadWalRecords(
    const std::vector<uint8_t>& file,
    const std::function<Status(uint8_t type, BytesReader* payload)>& fn,
    WalReadStats* stats) {
  WalReadStats local;
  WalReadStats* st = stats != nullptr ? stats : &local;
  const size_t header_len = sizeof(kWalMagic) + 1 + 4 + 4 + 4;
  if (file.size() < header_len) {
    return Status::Corruption("WAL: file shorter than header");
  }
  for (size_t i = 0; i < sizeof(kWalMagic); ++i) {
    if (file[i] != static_cast<uint8_t>(kWalMagic[i])) {
      return Status::Corruption("WAL: bad magic");
    }
  }
  BytesReader header(file.data() + sizeof(kWalMagic), header_len - 8);
  uint8_t version = 0;
  uint32_t k = 0, num_dims = 0, header_crc = 0;
  MSKETCH_RETURN_NOT_OK(header.GetU8(&version));
  MSKETCH_RETURN_NOT_OK(header.GetU32(&k));
  MSKETCH_RETURN_NOT_OK(header.GetU32(&num_dims));
  MSKETCH_RETURN_NOT_OK(header.GetU32(&header_crc));
  const uint32_t actual_header_crc =
      crc32c::Value(file.data() + sizeof(kWalMagic), 1 + 4 + 4);
  if (version != kWalVersion ||
      crc32c::Unmask(header_crc) != actual_header_crc) {
    return Status::Corruption("WAL: bad header");
  }
  st->k = static_cast<int>(k);
  st->num_dims = num_dims;

  size_t pos = header_len;
  while (pos < file.size()) {
    SealedRecord rec;
    const RecordParse parse =
        ParseRecord(file.data() + pos, file.size() - pos, &rec);
    // A torn record is an honest crash tail; a CRC mismatch or a
    // length-prefix lie is corruption. Either way the log ends here.
    if (parse == RecordParse::kCorrupt) ++st->checksum_failures;
    if (parse != RecordParse::kIntact) break;
    pos += rec.size();
    BytesReader payload(rec.payload, rec.payload_len);
    MSKETCH_RETURN_NOT_OK(fn(rec.type, &payload));
    ++st->records;
  }
  st->bytes_truncated = file.size() - pos;
  return Status::OK();
}

}  // namespace msketch
