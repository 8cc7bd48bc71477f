#include "replica/frame.h"

#include "common/sealed_record.h"

namespace msketch {

namespace {

bool KnownType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kError);
}

}  // namespace

std::vector<uint8_t> EncodeFrame(FrameType type,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> wire;
  SealRecord(static_cast<uint8_t>(type), payload, &wire);
  return wire;
}

Result<Frame> DecodeFrame(const uint8_t* data, size_t len) {
  // A transport delivers whole frames, so unlike the WAL reader a torn
  // frame is no honest crash tail: anything but one intact record
  // spanning the buffer exactly rejects.
  SealedRecord rec;
  if (ParseRecord(data, len, &rec) != RecordParse::kIntact ||
      rec.size() != len) {
    return Status::Corruption("frame: torn, corrupt or padded");
  }
  if (!KnownType(rec.type)) {
    return Status::Corruption("frame: unknown type");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(rec.type);
  frame.payload.assign(rec.payload, rec.payload + rec.payload_len);
  return frame;
}

std::vector<uint8_t> EncodeHello(const HelloFrame& f) {
  BytesWriter w;
  w.PutU64(f.have_epoch);
  w.PutU32(f.k);
  w.PutU32(f.num_dims);
  w.PutU32(f.kll_k);
  w.PutU8(f.resume ? 1 : 0);
  w.PutU64(f.resume_epoch);
  w.PutU32(f.resume_next_chunk);
  w.PutU64(f.round);
  return w.Take();
}

Result<HelloFrame> DecodeHello(const std::vector<uint8_t>& payload) {
  BytesReader in(payload.data(), payload.size());
  HelloFrame f;
  uint8_t resume = 0;
  MSKETCH_RETURN_NOT_OK(in.GetU64(&f.have_epoch));
  MSKETCH_RETURN_NOT_OK(in.GetU32(&f.k));
  MSKETCH_RETURN_NOT_OK(in.GetU32(&f.num_dims));
  MSKETCH_RETURN_NOT_OK(in.GetU32(&f.kll_k));
  MSKETCH_RETURN_NOT_OK(in.GetU8(&resume));
  MSKETCH_RETURN_NOT_OK(in.GetU64(&f.resume_epoch));
  MSKETCH_RETURN_NOT_OK(in.GetU32(&f.resume_next_chunk));
  MSKETCH_RETURN_NOT_OK(in.GetU64(&f.round));
  if (resume > 1) return Status::Corruption("hello: bad resume flag");
  f.resume = resume == 1;
  return f;
}

std::vector<uint8_t> EncodeSnapBegin(const SnapBeginFrame& f) {
  BytesWriter w;
  w.PutU64(f.snapshot_epoch);
  w.PutU64(f.total_bytes);
  w.PutU32(f.num_chunks);
  w.PutU32(f.chunk_bytes);
  w.PutU32(f.first_chunk);
  return w.Take();
}

Result<SnapBeginFrame> DecodeSnapBegin(const std::vector<uint8_t>& payload) {
  BytesReader in(payload.data(), payload.size());
  SnapBeginFrame f;
  MSKETCH_RETURN_NOT_OK(in.GetU64(&f.snapshot_epoch));
  MSKETCH_RETURN_NOT_OK(in.GetU64(&f.total_bytes));
  MSKETCH_RETURN_NOT_OK(in.GetU32(&f.num_chunks));
  MSKETCH_RETURN_NOT_OK(in.GetU32(&f.chunk_bytes));
  MSKETCH_RETURN_NOT_OK(in.GetU32(&f.first_chunk));
  if (f.chunk_bytes == 0 || f.num_chunks == 0 ||
      f.total_bytes > kMaxRecordLen ||
      f.first_chunk >= f.num_chunks) {
    return Status::Corruption("snap begin: implausible geometry");
  }
  return f;
}

std::vector<uint8_t> EncodeSnapChunk(const SnapChunkFrame& f) {
  BytesWriter w;
  w.Reserve(sizeof(uint32_t) + f.bytes.size());
  w.PutU32(f.chunk_index);
  w.PutBytes(f.bytes.data(), f.bytes.size());
  return w.Take();
}

Result<SnapChunkFrame> DecodeSnapChunk(const std::vector<uint8_t>& payload) {
  BytesReader in(payload.data(), payload.size());
  SnapChunkFrame f;
  MSKETCH_RETURN_NOT_OK(in.GetU32(&f.chunk_index));
  f.bytes.assign(in.data() + in.pos(), in.data() + in.pos() + in.remaining());
  if (f.bytes.empty()) return Status::Corruption("snap chunk: empty");
  return f;
}

std::vector<uint8_t> EncodeSnapEnd(const SnapEndFrame& f) {
  BytesWriter w;
  w.PutU64(f.snapshot_epoch);
  w.PutU32(f.image_crc);
  return w.Take();
}

Result<SnapEndFrame> DecodeSnapEnd(const std::vector<uint8_t>& payload) {
  BytesReader in(payload.data(), payload.size());
  SnapEndFrame f;
  MSKETCH_RETURN_NOT_OK(in.GetU64(&f.snapshot_epoch));
  MSKETCH_RETURN_NOT_OK(in.GetU32(&f.image_crc));
  return f;
}

std::vector<uint8_t> EncodeCaughtUp(const CaughtUpFrame& f) {
  BytesWriter w;
  w.PutU64(f.through_epoch);
  w.PutU64(f.round);
  return w.Take();
}

Result<CaughtUpFrame> DecodeCaughtUp(const std::vector<uint8_t>& payload) {
  BytesReader in(payload.data(), payload.size());
  CaughtUpFrame f;
  MSKETCH_RETURN_NOT_OK(in.GetU64(&f.through_epoch));
  MSKETCH_RETURN_NOT_OK(in.GetU64(&f.round));
  return f;
}

std::vector<uint8_t> EncodeHeartbeat(const HeartbeatFrame& f) {
  BytesWriter w;
  w.PutU64(f.current_epoch);
  w.PutU64(f.round);
  return w.Take();
}

Result<HeartbeatFrame> DecodeHeartbeat(const std::vector<uint8_t>& payload) {
  BytesReader in(payload.data(), payload.size());
  HeartbeatFrame f;
  MSKETCH_RETURN_NOT_OK(in.GetU64(&f.current_epoch));
  MSKETCH_RETURN_NOT_OK(in.GetU64(&f.round));
  return f;
}

std::vector<uint8_t> EncodeError(const ErrorFrame& f) {
  BytesWriter w;
  w.PutU32(f.code);
  w.PutString(f.message);
  return w.Take();
}

Result<ErrorFrame> DecodeError(const std::vector<uint8_t>& payload) {
  BytesReader in(payload.data(), payload.size());
  ErrorFrame f;
  MSKETCH_RETURN_NOT_OK(in.GetU32(&f.code));
  MSKETCH_RETURN_NOT_OK(in.GetString(&f.message));
  return f;
}

}  // namespace msketch
