#include "common/bytes.h"

namespace msketch {

Status BytesReader::GetDoubles(std::vector<double>* out) {
  out->clear();
  return AppendDoubles(out);
}

Status BytesReader::AppendDoubles(std::vector<double>* out) {
  uint32_t n = 0;
  MSKETCH_RETURN_NOT_OK(GetU32(&n));
  if (static_cast<size_t>(n) * sizeof(double) > remaining()) {
    return Status::Serialization("double array length exceeds buffer");
  }
  if (n == 0) return Status::OK();
  const size_t old = out->size();
  out->resize(old + n);
  return GetRaw(out->data() + old, static_cast<size_t>(n) * sizeof(double));
}

Status BytesReader::GetString(std::string* out) {
  uint32_t n = 0;
  MSKETCH_RETURN_NOT_OK(GetU32(&n));
  if (n > remaining()) {
    return Status::Serialization("string length exceeds buffer");
  }
  out->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint8_t b = 0;
    MSKETCH_RETURN_NOT_OK(GetU8(&b));
    (*out)[i] = static_cast<char>(b);
  }
  return Status::OK();
}

}  // namespace msketch
