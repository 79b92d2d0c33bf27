#include "common/crc32.h"

#include <array>
#include <cstring>

namespace lowdiff {
namespace {

// Reversed Castagnoli polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78u;

// Software slice-by-8 tables, generated at static-init time.
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  constexpr Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t s = 1; s < 8; ++s) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[s][i] = c;
      }
    }
  }
};

constexpr Tables kTables{};

inline std::uint32_t load_le32(const unsigned char* p) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
#else
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
#endif
}

using CrcFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

CrcFn resolve_crc32c() {
  return detail::crc32c_hw_supported() ? &detail::crc32c_hw : &crc32c_sw;
}

const CrcFn kCrcImpl = resolve_crc32c();

}  // namespace

std::uint32_t crc32c_sw(std::uint32_t crc, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (len >= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = kTables.t[7][lo & 0xFFu] ^ kTables.t[6][(lo >> 8) & 0xFFu] ^
          kTables.t[5][(lo >> 16) & 0xFFu] ^ kTables.t[4][lo >> 24] ^
          kTables.t[3][hi & 0xFFu] ^ kTables.t[2][(hi >> 8) & 0xFFu] ^
          kTables.t[1][(hi >> 16) & 0xFFu] ^ kTables.t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = kTables.t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t len) {
  return kCrcImpl(crc, data, len);
}

bool crc32c_hardware_available() { return kCrcImpl == &detail::crc32c_hw; }

}  // namespace lowdiff
