// Byte buffer writer/reader for sketch serialization.
//
// Little-endian fixed-width encoding; the reader validates bounds and
// reports malformed input through Status rather than aborting.
#ifndef MSKETCH_COMMON_BYTES_H_
#define MSKETCH_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace msketch {

/// Append-only byte sink.
class BytesWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  void PutDoubles(const std::vector<double>& vs) {
    PutDoubles(vs.data(), vs.size());
  }
  /// A u32 count, then `n` doubles (PutDoubles' format).
  void PutDoubles(const double* vs, size_t n) {
    PutU32(static_cast<uint32_t>(n));
    PutRaw(vs, n * sizeof(double));
  }
  /// `n` raw bytes, with no length prefix.
  void PutBytes(const uint8_t* p, size_t n) { PutRaw(p, n); }
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  void Reserve(size_t n) { buf_.reserve(n); }
  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  /// Bytes written so far (checksum framing marks a section start here).
  size_t size() const { return buf_.size(); }

 private:
  void PutRaw(const void* p, size_t n) {
    const uint8_t* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<uint8_t> buf_;
};

/// Bounds-checked byte source.
class BytesReader {
 public:
  BytesReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit BytesReader(const std::vector<uint8_t>& buf)
      : BytesReader(buf.data(), buf.size()) {}

  Status GetU8(uint8_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetU32(uint32_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetU64(uint64_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetI64(int64_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetDouble(double* out) { return GetRaw(out, sizeof(*out)); }
  Status GetDoubles(std::vector<double>* out);
  /// Reads a PutDoubles array and appends it to `out`.
  Status AppendDoubles(std::vector<double>* out);
  Status GetString(std::string* out);

  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }
  /// Raw cursor access for checksum verification over a decoded section.
  const uint8_t* data() const { return data_; }
  size_t pos() const { return pos_; }

 private:
  Status GetRaw(void* out, size_t n) {
    if (pos_ + n > size_) {
      return Status::Serialization("buffer underflow");
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace msketch

#endif  // MSKETCH_COMMON_BYTES_H_
