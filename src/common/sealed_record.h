// The one checksummed record framing of the repository: every WAL record
// (persist/wal.h) and every replication wire frame (replica/frame.h) is
// sealed and parsed here.
//
//   u32 masked-CRC32C(type + payload) | u32 payload_len | u8 type | payload
//
// The CRC covers the type byte and the payload; the length prefix is
// bounded by kMaxRecordLen, so a lying prefix is caught before any
// read is sized by it.
#ifndef MSKETCH_COMMON_SEALED_RECORD_H_
#define MSKETCH_COMMON_SEALED_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/crc32c.h"
#include "common/macros.h"

namespace msketch {

constexpr size_t kRecordHeaderLen = 9;
/// Payloads larger than this are length-prefix lies, not real records.
constexpr uint32_t kMaxRecordLen = 1u << 30;

inline uint32_t RecordCrc(uint8_t type, const uint8_t* payload, size_t len) {
  return crc32c::Extend(crc32c::Extend(0, &type, 1), payload, len);
}

/// Appends `payload` sealed as one record of `type` to `out`.
inline void SealRecord(uint8_t type, const std::vector<uint8_t>& payload,
                       std::vector<uint8_t>* out) {
  MSKETCH_CHECK(payload.size() <= kMaxRecordLen);
  const uint32_t header[2] = {
      crc32c::Mask(RecordCrc(type, payload.data(), payload.size())),
      static_cast<uint32_t>(payload.size())};
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(header);
  out->reserve(out->size() + kRecordHeaderLen + payload.size());
  out->insert(out->end(), bytes, bytes + sizeof(header));
  out->push_back(type);
  out->insert(out->end(), payload.begin(), payload.end());
}

enum class RecordParse {
  kIntact,   // header, payload and CRC all check out
  kTorn,     // the buffer ends inside the header or the payload
  kCorrupt,  // CRC mismatch or a length prefix beyond kMaxRecordLen
};

/// A parsed record, borrowing the payload from the parsed buffer.
struct SealedRecord {
  uint8_t type = 0;
  const uint8_t* payload = nullptr;
  uint32_t payload_len = 0;
  /// Header + payload: the offset of the next record.
  size_t size() const { return kRecordHeaderLen + payload_len; }
};

/// Parses the record at the front of `data[0, len)`. `out` is
/// meaningful only for kIntact; bytes past the record are not
/// inspected.
inline RecordParse ParseRecord(const uint8_t* data, size_t len,
                               SealedRecord* out) {
  if (len < kRecordHeaderLen) return RecordParse::kTorn;
  uint32_t header[2];
  std::memcpy(header, data, sizeof(header));
  if (header[1] > kMaxRecordLen) return RecordParse::kCorrupt;
  if (len - kRecordHeaderLen < header[1]) return RecordParse::kTorn;
  out->type = data[sizeof(header)];
  out->payload = data + kRecordHeaderLen;
  out->payload_len = header[1];
  return crc32c::Unmask(header[0]) ==
                 RecordCrc(out->type, out->payload, out->payload_len)
             ? RecordParse::kIntact
             : RecordParse::kCorrupt;
}

}  // namespace msketch

#endif  // MSKETCH_COMMON_SEALED_RECORD_H_
