// Replication wire frames: the unit of transfer between a leader's
// ReplicationSource and a follower's ReplicaApplier.
//
// Every frame is sealed by common/sealed_record.h, the one framing codec
// the WAL (persist/wal.h) shares:
//
//   u32 masked-CRC32C(type + payload) | u32 payload_len | u8 type | payload
//
// so the receiver detects torn frames (length prefix exceeds bytes on
// the wire), flipped bits (CRC mismatch), and unknown types without
// trusting the link. A frame is also the tear unit: transports deliver
// whole frames or garbage, never silently spliced halves.
//
// Protocol (follower-driven pull; see src/replica/README.md):
//
//   kHello      follower -> leader  "round R: I have epoch E, shaped
//                                   (k, dims, kll_k); resume chunk C of
//                                   snapshot S if you still hold it"
//   kSnapBegin  leader -> follower  snapshot transfer header
//   kSnapChunk  leader -> follower  one chunk of the checkpoint image
//   kSnapEnd    leader -> follower  whole-image CRC (install gate)
//   kDelta      leader -> follower  one epoch WAL record (wal.h payload)
//   kCaughtUp   leader -> follower  round R's plan complete through E
//   kHeartbeat  either direction    liveness + current epoch + the last
//                                   round the sender served
//   kError      leader -> follower  terminal refusal (shape mismatch)
#ifndef MSKETCH_REPLICA_FRAME_H_
#define MSKETCH_REPLICA_FRAME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace msketch {

enum class FrameType : uint8_t {
  kHello = 1,
  kSnapBegin = 2,
  kSnapChunk = 3,
  kSnapEnd = 4,
  kDelta = 5,
  kCaughtUp = 6,
  kHeartbeat = 7,
  kError = 8,
};

/// A decoded frame: the type byte plus the raw payload (each type's
/// payload has its own Encode/Decode pair below; kDelta's payload is a
/// wal.h epoch record, decoded by DecodeEpochRecord).
struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::vector<uint8_t> payload;
};

/// Seals `payload` into a wire frame (CRC + length + type + payload).
std::vector<uint8_t> EncodeFrame(FrameType type,
                                 const std::vector<uint8_t>& payload);

/// Validates and decodes one wire frame. Corruption on a short buffer,
/// a lying length prefix, a CRC mismatch, or an unknown type byte.
Result<Frame> DecodeFrame(const uint8_t* data, size_t len);
inline Result<Frame> DecodeFrame(const std::vector<uint8_t>& wire) {
  return DecodeFrame(wire.data(), wire.size());
}

// ------------------------------------------------------- frame payloads

struct HelloFrame {
  uint64_t have_epoch = 0;
  uint32_t k = 0;
  uint32_t num_dims = 0;
  uint32_t kll_k = 0;  // 0 = no KLL side column
  /// Resume request: the follower holds chunks [0, resume_next_chunk)
  /// of the snapshot cut at `resume_epoch` and wants the rest.
  bool resume = false;
  uint64_t resume_epoch = 0;
  uint32_t resume_next_chunk = 0;
  /// The follower's round number, incremented every round and echoed
  /// by the leader so replies to an abandoned round can be told apart.
  uint64_t round = 0;
};

struct SnapBeginFrame {
  uint64_t snapshot_epoch = 0;
  uint64_t total_bytes = 0;
  uint32_t num_chunks = 0;
  uint32_t chunk_bytes = 0;   // every chunk but the last is this size
  uint32_t first_chunk = 0;   // > 0 on a resumed transfer
};

struct SnapChunkFrame {
  uint32_t chunk_index = 0;
  std::vector<uint8_t> bytes;
};

struct SnapEndFrame {
  uint64_t snapshot_epoch = 0;
  uint32_t image_crc = 0;  // masked CRC32C of the whole checkpoint image
};

struct CaughtUpFrame {
  uint64_t through_epoch = 0;
  uint64_t round = 0;  // the Hello's round this plan answers
};

struct HeartbeatFrame {
  uint64_t current_epoch = 0;
  uint64_t round = 0;  // the last round the leader served (0 = none)
};

struct ErrorFrame {
  uint32_t code = 0;  // StatusCode of the refusal
  std::string message;
};

std::vector<uint8_t> EncodeHello(const HelloFrame& f);
Result<HelloFrame> DecodeHello(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeSnapBegin(const SnapBeginFrame& f);
Result<SnapBeginFrame> DecodeSnapBegin(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeSnapChunk(const SnapChunkFrame& f);
Result<SnapChunkFrame> DecodeSnapChunk(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeSnapEnd(const SnapEndFrame& f);
Result<SnapEndFrame> DecodeSnapEnd(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeCaughtUp(const CaughtUpFrame& f);
Result<CaughtUpFrame> DecodeCaughtUp(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeHeartbeat(const HeartbeatFrame& f);
Result<HeartbeatFrame> DecodeHeartbeat(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeError(const ErrorFrame& f);
Result<ErrorFrame> DecodeError(const std::vector<uint8_t>& payload);

}  // namespace msketch

#endif  // MSKETCH_REPLICA_FRAME_H_
