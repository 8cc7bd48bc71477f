// Write-ahead log of epoch delta batches: the durability spine of the
// streaming cube (see src/persist/README.md for the full protocol).
//
// File layout:
//
//   header   "MSKWAL01" magic | u8 version | u32 k | u32 num_dims
//            | u32 masked-CRC32C of the fields above
//   records  repeated: u32 masked-CRC32C(type + payload)
//            | u32 payload length | u8 type | payload
//
// Records are sealed and parsed by common/sealed_record.h, the one
// framing codec the replication wire (replica/frame.h) shares. Each
// record is appended with one Append call and covered by its own
// checksum, so a crash mid-append leaves a torn tail that the reader
// detects and truncates at the last fully valid record — an epoch is
// durable if and only if its record survives intact. The reader never
// aborts on a damaged tail: it reports what it salvaged and how much it
// cut (WalReadStats), because a torn tail after a crash is the expected
// case, not an error.
//
// The only record type today is the epoch batch (kWalRecordEpoch): the
// epoch number, a dictionary delta (the string values interned since the
// previous epoch's record, per dimension), and the drained per-cell
// delta sketches in publish order. Each cell carries a backend tag byte
// (bit 0: a KLL rank-sketch delta follows the moment sketch — the
// multi-backend router's dual-write path); remaining bits are reserved.
// In memory the cells are one columnar EpochDelta (cube/epoch_delta.h):
// the encoder reads one and the decoder writes one, through the one
// definition of each sketch's byte format (WriteMomentRow /
// ReadMomentState, WriteKll / ReadKll), so the bytes are the ones the
// per-cell sketches' Serialize calls write.
// Replaying records in order onto a checkpoint reproduces the
// publisher's CubeStore::ApplyDeltas calls exactly, which is what makes
// recovery bit-exact. The publisher encodes each epoch's
// record once (StreamingCube); the same bytes are the WAL record
// payload and the replica's kDelta frame payload.
#ifndef MSKETCH_PERSIST_WAL_H_
#define MSKETCH_PERSIST_WAL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/moments_sketch.h"
#include "cube/cube_types.h"
#include "cube/epoch_delta.h"
#include "persist/env.h"

namespace msketch {

/// When appended bytes are made durable.
enum class FsyncPolicy : uint8_t {
  kNone = 0,    // never fsync (durability = OS page-cache flush cadence)
  kEveryN = 1,  // fsync every N epoch records
  kPerEpoch = 2,  // fsync after every record (strongest, slowest)
};

constexpr uint8_t kWalRecordEpoch = 1;

/// One decoded epoch record.
struct WalEpochRecord {
  uint64_t epoch = 0;
  /// Dictionary delta: for each dimension, the id of the first new value
  /// and the values interned since the previous epoch's record. A
  /// reader may already hold a prefix of it and appends only the tail.
  std::vector<uint32_t> dict_start;
  std::vector<std::vector<std::string>> dict_values;
  /// The epoch's delta batch in publish (ApplyDeltas) order; a cell
  /// has a KLL delta exactly when its tag bit 0 is set.
  EpochDelta cells;
};

/// Writes one epoch record: `cells` in order, each with tag bit 0 set
/// when it has a KLL delta.
void EncodeEpochRecord(uint64_t epoch,
                       const std::vector<uint32_t>& dict_start,
                       const std::vector<std::vector<std::string>>& dict_values,
                       const EpochDelta& cells, BytesWriter* out);
/// Reads one epoch record. Rejects a bad dimension count, a cell of the
/// wrong arity, an unknown tag bit, cells of mixed moment orders and
/// every malformed sketch the format readers reject.
Result<WalEpochRecord> DecodeEpochRecord(BytesReader* in);

struct WalWriterOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kPerEpoch;
  size_t fsync_every_n = 8;
  /// Transient append/sync failures are retried this many times with
  /// doubling backoff before the error surfaces.
  int max_write_retries = 4;
  std::chrono::milliseconds retry_backoff{1};
};

/// Appends checksummed records to one WAL file. Not thread-safe; the
/// owner (DurableLog) serializes access.
class WalWriter {
 public:
  /// Creates (truncating) `path` and writes the file header durably.
  static Result<std::unique_ptr<WalWriter>> Create(
      Env* env, const std::string& path, int k, size_t num_dims,
      const WalWriterOptions& options);

  /// Appends one record and applies the fsync policy. Retries transient
  /// write errors with bounded backoff; a non-OK return means the record
  /// may be torn on disk and the log must not be appended to further
  /// (the reader will truncate the tear).
  Status AppendRecord(uint8_t type, const std::vector<uint8_t>& payload);

  Status Sync();
  Status Close();

  const std::string& path() const { return path_; }
  uint64_t records_appended() const { return records_appended_; }
  uint64_t bytes_appended() const { return bytes_appended_; }
  uint64_t write_retries() const { return write_retries_; }
  uint64_t syncs() const { return syncs_; }

 private:
  WalWriter(std::unique_ptr<WritableFile> file, std::string path,
            const WalWriterOptions& options)
      : file_(std::move(file)), path_(std::move(path)), options_(options) {}

  Status AppendWithRetry(const std::vector<uint8_t>& bytes);

  std::unique_ptr<WritableFile> file_;
  const std::string path_;
  const WalWriterOptions options_;
  uint64_t records_appended_ = 0;
  uint64_t bytes_appended_ = 0;
  uint64_t write_retries_ = 0;
  uint64_t syncs_ = 0;
  size_t records_since_sync_ = 0;
};

/// What a sequential read salvaged from a WAL file.
struct WalReadStats {
  uint64_t records = 0;
  /// Bytes at the tail discarded as torn or corrupt (0 on a clean log).
  uint64_t bytes_truncated = 0;
  /// Integrity failures that caused the truncation: checksum mismatches
  /// and absurd (out-of-bounds) length prefixes.
  uint64_t checksum_failures = 0;
  int k = 0;
  size_t num_dims = 0;
};

/// Parses `file` (an entire WAL file in memory), invoking `fn` for every
/// intact record in order. Stops — without error — at the first torn or
/// corrupt record, recording what was cut in `stats`: after a crash the
/// tail is expected to be damaged. Returns non-OK only for a file too
/// mangled to trust at all (bad magic / bad header) or when `fn` itself
/// fails.
Status ReadWalRecords(
    const std::vector<uint8_t>& file,
    const std::function<Status(uint8_t type, BytesReader* payload)>& fn,
    WalReadStats* stats);

}  // namespace msketch

#endif  // MSKETCH_PERSIST_WAL_H_
