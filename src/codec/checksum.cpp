#include "codec/checksum.hpp"

#include <array>

namespace fraz {

namespace {

/// Slice-by-16 tables: kTables[0] is the bytewise table of the reflected
/// IEEE polynomial; kTables[k][b] is the CRC of byte b followed by k zero
/// bytes, so one lookup per byte of a 16-byte block folds the whole block.
using Tables = std::array<std::array<std::uint32_t, 256>, 16>;

Tables make_tables() noexcept {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
  return t;
}

/// Little-endian 32-bit load at any alignment (one load on x86-64).
inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept {
  static const Tables t = make_tables();
  std::uint32_t c = 0xffffffffu;
  for (; size >= 16; data += 16, size -= 16) {
    const std::uint32_t a = load_le32(data) ^ c;
    const std::uint32_t b = load_le32(data + 4);
    const std::uint32_t d = load_le32(data + 8);
    const std::uint32_t e = load_le32(data + 12);
    c = t[15][a & 0xffu] ^ t[14][(a >> 8) & 0xffu] ^ t[13][(a >> 16) & 0xffu] ^ t[12][a >> 24] ^
        t[11][b & 0xffu] ^ t[10][(b >> 8) & 0xffu] ^ t[9][(b >> 16) & 0xffu] ^ t[8][b >> 24] ^
        t[7][d & 0xffu] ^ t[6][(d >> 8) & 0xffu] ^ t[5][(d >> 16) & 0xffu] ^ t[4][d >> 24] ^
        t[3][e & 0xffu] ^ t[2][(e >> 8) & 0xffu] ^ t[1][(e >> 16) & 0xffu] ^ t[0][e >> 24];
  }
  for (; size > 0; ++data, --size) c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace fraz
