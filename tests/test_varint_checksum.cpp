#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "codec/checksum.hpp"
#include "codec/varint.hpp"
#include "util/error.hpp"

namespace fraz {
namespace {

TEST(Varint, RoundtripsBoundaryValues) {
  const std::uint64_t values[] = {0,           1,          127,        128,
                                  16383,       16384,      (1ull << 32) - 1,
                                  1ull << 32,  std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    put_varint(buf, v);
    std::size_t pos = 0;
    EXPECT_EQ(get_varint(buf.data(), buf.size(), pos), v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Varint, SmallValuesAreOneByte) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 128);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(Varint, SequencesDecodeInOrder) {
  std::vector<std::uint8_t> buf;
  for (std::uint64_t v = 0; v < 1000; v += 7) put_varint(buf, v * v);
  std::size_t pos = 0;
  for (std::uint64_t v = 0; v < 1000; v += 7)
    ASSERT_EQ(get_varint(buf.data(), buf.size(), pos), v * v);
}

TEST(Varint, TruncationThrows) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 1ull << 40);
  buf.pop_back();
  std::size_t pos = 0;
  EXPECT_THROW(get_varint(buf.data(), buf.size(), pos), CorruptStream);
}

TEST(Varint, OverlongEncodingThrows) {
  // 11 continuation bytes exceed the 64-bit shift budget.
  std::vector<std::uint8_t> buf(11, 0x80);
  buf.push_back(0x01);
  std::size_t pos = 0;
  EXPECT_THROW(get_varint(buf.data(), buf.size(), pos), CorruptStream);
}

TEST(Zigzag, MapsSignedToCompactUnsigned) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
}

TEST(Zigzag, RoundtripsExtremes) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
                         std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max(), std::int64_t{-123456789}}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
}

TEST(Crc32, MatchesKnownVector) {
  // The canonical CRC-32 check value.
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xcbf43926u);
}

TEST(Crc32, EmptyInputIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 37);
  const std::uint32_t base = crc32(data);
  for (std::size_t byte = 0; byte < data.size(); byte += 7) {
    data[byte] ^= 0x10;
    EXPECT_NE(crc32(data), base);
    data[byte] ^= 0x10;
  }
  EXPECT_EQ(crc32(data), base);
}

/// Bit-at-a-time CRC-32 (reflected IEEE polynomial): the definition the
/// table-driven crc32 must reproduce.
std::uint32_t crc32_bitwise(const std::uint8_t* data, std::size_t size) {
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryAlignmentAndLength) {
  // Lengths straddle the 16-byte block of the sliced loop (empty, tail
  // only, one block, block + tail, many blocks); offsets cover every
  // misalignment of the block loads.
  std::vector<std::uint8_t> data(4096 + 64);
  std::uint32_t x = 0x12345678u;
  for (auto& b : data) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  const std::size_t lengths[] = {0, 1, 15, 16, 17, 31, 33, 1000, 4096};
  for (std::size_t offset = 0; offset <= 16; ++offset)
    for (const std::size_t length : lengths)
      EXPECT_EQ(crc32(data.data() + offset, length),
                crc32_bitwise(data.data() + offset, length))
          << "offset " << offset << " length " << length;
}

}  // namespace
}  // namespace fraz
