// CRC32C (Castagnoli) checksums for the persistence layer's WAL records
// and checkpoint files.
//
// Extend picks its kernel once per process: the SSE4.2 crc32 instruction
// (8 bytes per step) on x86 hosts that have it, and otherwise a portable
// slicing-by-8 table kernel (~2 GB/s). Both compute the same function,
// so stored checksums do not depend on the host. The Mask/Unmask pair
// follows the LevelDB/RocksDB convention: a stored CRC is masked so that
// computing the CRC of a byte stream that itself embeds CRCs does not
// degenerate.
#ifndef MSKETCH_COMMON_CRC32C_H_
#define MSKETCH_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace msketch {
namespace crc32c {

/// Extends `crc` (the running checksum of bytes seen so far, 0 for none)
/// with `data[0, n)`.
uint32_t Extend(uint32_t crc, const uint8_t* data, size_t n);

/// Extend through the portable table kernel, whatever the host (tests
/// compare it against Extend).
uint32_t ExtendPortable(uint32_t crc, const uint8_t* data, size_t n);

/// True when Extend runs the SSE4.2 crc32 instruction.
bool HardwareAccelerated();

/// Checksum of `data[0, n)`.
inline uint32_t Value(const uint8_t* data, size_t n) {
  return Extend(0, data, n);
}

constexpr uint32_t kMaskDelta = 0xa282ead8u;

/// Masks a CRC before embedding it in a byte stream.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

/// Inverse of Mask.
inline uint32_t Unmask(uint32_t masked) {
  const uint32_t rot = masked - kMaskDelta;
  return (rot << 15) | (rot >> 17);
}

}  // namespace crc32c
}  // namespace msketch

#endif  // MSKETCH_COMMON_CRC32C_H_
