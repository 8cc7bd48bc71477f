#include "common/crc32c.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#define MSKETCH_CRC32C_X86 1
#else
#define MSKETCH_CRC32C_X86 0
#endif

namespace msketch {
namespace crc32c {

namespace {

// Castagnoli polynomial, reflected.
constexpr uint32_t kPoly = 0x82f63b78u;

struct Tables {
  uint32_t t[8][256];

  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int s = 1; s < 8; ++s) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xff];
      }
    }
  }
};

const Tables& tables() {
  static const Tables kTables;
  return kTables;
}

inline uint32_t LoadU32LE(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

#if MSKETCH_CRC32C_X86
// The crc32 instruction implements the same reflected Castagnoli CRC
// step as the tables, on 1 or 8 bytes at a time.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const uint8_t* data,
                                                       size_t n) {
  uint32_t c = ~crc;
  while (n > 0 && (reinterpret_cast<uintptr_t>(data) & 7) != 0) {
    c = _mm_crc32_u8(c, *data++);
    --n;
  }
#if defined(__x86_64__)
  uint64_t c64 = c;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    c64 = _mm_crc32_u64(c64, word);
    data += 8;
    n -= 8;
  }
  c = static_cast<uint32_t>(c64);
#endif
  while (n > 0) {
    c = _mm_crc32_u8(c, *data++);
    --n;
  }
  return ~c;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const uint8_t*, size_t);

ExtendFn ChooseExtend() {
#if MSKETCH_CRC32C_X86
  if (__builtin_cpu_supports("sse4.2")) return ExtendSse42;
#endif
  return ExtendPortable;
}

// Chosen on first use (a function-local static, so a checksum taken
// during another object's static initialization still finds it).
ExtendFn Chosen() {
  static const ExtendFn fn = ChooseExtend();
  return fn;
}

}  // namespace

bool HardwareAccelerated() { return Chosen() != ExtendPortable; }

uint32_t Extend(uint32_t crc, const uint8_t* data, size_t n) {
  return Chosen()(crc, data, n);
}

uint32_t ExtendPortable(uint32_t crc, const uint8_t* data, size_t n) {
  const Tables& tb = tables();
  uint32_t c = ~crc;
  // Byte-at-a-time until 8-byte alignment is cheap to exploit.
  while (n > 0 && (reinterpret_cast<uintptr_t>(data) & 7) != 0) {
    c = (c >> 8) ^ tb.t[0][(c ^ *data++) & 0xff];
    --n;
  }
  // Slicing-by-8 over the aligned middle.
  while (n >= 8) {
    const uint32_t lo = LoadU32LE(data) ^ c;
    const uint32_t hi = LoadU32LE(data + 4);
    c = tb.t[7][lo & 0xff] ^ tb.t[6][(lo >> 8) & 0xff] ^
        tb.t[5][(lo >> 16) & 0xff] ^ tb.t[4][lo >> 24] ^
        tb.t[3][hi & 0xff] ^ tb.t[2][(hi >> 8) & 0xff] ^
        tb.t[1][(hi >> 16) & 0xff] ^ tb.t[0][hi >> 24];
    data += 8;
    n -= 8;
  }
  while (n > 0) {
    c = (c >> 8) ^ tb.t[0][(c ^ *data++) & 0xff];
    --n;
  }
  return ~c;
}

}  // namespace crc32c
}  // namespace msketch
