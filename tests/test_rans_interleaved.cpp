#include "codec/rans_interleaved.hpp"

#include <gtest/gtest.h>

#include "codec/checksum.hpp"
#include "codec/varint.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace fraz {
namespace {

/// Roundtrip through the dispatched decoder AND the reference decoder, and
/// pin the two bit-identical — the core contract of the fast paths.
void expect_roundtrip(const std::vector<std::uint32_t>& symbols) {
  const auto encoded = rans_interleaved_encode(symbols);
  const auto decoded = rans_interleaved_decode(encoded);
  const auto ref = rans_interleaved_decode_ref(encoded.data(), encoded.size());
  ASSERT_EQ(decoded.size(), symbols.size());
  ASSERT_EQ(ref.size(), symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    ASSERT_EQ(decoded[i], symbols[i]) << "fast decode diverges at " << i;
    ASSERT_EQ(ref[i], symbols[i]) << "ref decode diverges at " << i;
  }
}

TEST(RansInterleaved, EmptyInput) { expect_roundtrip({}); }

TEST(RansInterleaved, SingleOccurrence) { expect_roundtrip({7}); }

TEST(RansInterleaved, FewerSymbolsThanWays) { expect_roundtrip({1, 2, 3}); }

TEST(RansInterleaved, ExactlyOneRound) { expect_roundtrip({9, 8, 7, 6, 5, 4, 3, 2}); }

TEST(RansInterleaved, SingleSymbolRepeated) {
  expect_roundtrip(std::vector<std::uint32_t>(100000, 42));
}

TEST(RansInterleaved, SparseAlphabetAroundRadius) {
  std::vector<std::uint32_t> symbols;
  Rng rng(1);
  for (int i = 0; i < 50000; ++i)
    symbols.push_back(32768 + static_cast<std::uint32_t>(rng.below(9)) - 4);
  expect_roundtrip(symbols);
}

TEST(RansInterleaved, ExtremeSymbolValues) {
  expect_roundtrip({0, 0xffffffffu, 0x80000000u, 1, 0xfffffffeu, 0, 3, 9, 0xffffffffu});
}

TEST(RansInterleaved, RawModeWhenAlphabetExceedsSlots) {
  // 2^16+1 distinct codes > 2^14 slots: the coder must fall back to raw
  // varints rather than fail to normalize.
  std::vector<std::uint32_t> symbols;
  for (std::uint32_t i = 0; i <= 65536; ++i) symbols.push_back(i);
  expect_roundtrip(symbols);
}

TEST(RansInterleaved, SkewPlusLongFlatTail) {
  // One dominant symbol plus a flat tail: exercises the deterministic drift
  // loop that steals frequency from the dominant symbol.
  std::vector<std::uint32_t> symbols(200000, 7);
  for (std::uint32_t i = 0; i < 12000; ++i) symbols.push_back(100 + i);
  expect_roundtrip(symbols);
}

TEST(RansInterleaved, NearConstantStreamStaysCompact) {
  std::vector<std::uint32_t> symbols;
  Rng rng(2);
  for (int i = 0; i < 200000; ++i)
    symbols.push_back(rng.below(100) < 99 ? 32768u
                                          : 32768u + static_cast<std::uint32_t>(rng.below(5)));
  const auto encoded = rans_interleaved_encode(symbols);
  const double bits_per_symbol = 8.0 * encoded.size() / symbols.size();
  EXPECT_LT(bits_per_symbol, 0.2);  // eight state flushes of overhead, still << 1 bit
  expect_roundtrip(symbols);
}

TEST(RansInterleaved, AdversarialSkewsVecVsScalarBitIdentity) {
  // Skews chosen to stress renormalization density: near-uniform (renorm on
  // almost every step, all lanes), heavily peaked (renorm rare and bursty),
  // and a period-7 pattern that beats against the 8-way interleave so lanes
  // renorm out of phase.
  Rng rng(3);
  std::vector<std::vector<std::uint32_t>> streams;
  {
    std::vector<std::uint32_t> s;
    for (int i = 0; i < 65536; ++i) s.push_back(static_cast<std::uint32_t>(rng.below(16000)));
    streams.push_back(std::move(s));
  }
  {
    std::vector<std::uint32_t> s;
    for (int i = 0; i < 65536; ++i)
      s.push_back(rng.below(1000) == 0 ? static_cast<std::uint32_t>(rng.below(5000)) : 0u);
    streams.push_back(std::move(s));
  }
  {
    std::vector<std::uint32_t> s;
    for (int i = 0; i < 65536; ++i)
      s.push_back(i % 7 == 0 ? static_cast<std::uint32_t>(rng.below(12000)) : 3u);
    streams.push_back(std::move(s));
  }
  for (const auto& symbols : streams) {
    const auto encoded = rans_interleaved_encode(symbols);
    const auto fast = rans_interleaved_decode(encoded);
    const auto ref = rans_interleaved_decode_ref(encoded.data(), encoded.size());
    ASSERT_EQ(fast, ref);
    ASSERT_EQ(fast, symbols);
  }
}

TEST(RansInterleaved, DeterministicOutput) {
  std::vector<std::uint32_t> symbols = {5, 3, 5, 5, 2, 3, 5, 8, 8, 2, 1, 0, 5};
  EXPECT_EQ(rans_interleaved_encode(symbols), rans_interleaved_encode(symbols));
}

/// Symbol streams whose value range is far wider than their length (plus
/// one short-range control).  The encoder sizes its symbol tables by the
/// stream length and the alphabet, not by the value range; the pinned size
/// and CRC-32 of each encoding were recorded from the encoder that built
/// flat tables over the whole min..max range (and a std::map beyond 2^20),
/// so the bytes cannot have moved.
struct WideRangeCase {
  const char* name;
  std::size_t encoded_size;
  std::uint32_t encoded_crc;
};

std::vector<std::uint32_t> wide_range_stream(const std::string& name) {
  std::vector<std::uint32_t> symbols;
  Rng rng(17);
  if (name == "few_distinct_spread") {
    // 12 skewed values spread evenly over [0, 2^20).
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t k = std::min<std::uint64_t>(rng.below(4) + rng.below(4) + rng.below(5), 11);
      symbols.push_back(static_cast<std::uint32_t>(k * 87381));
    }
  } else if (name == "codes_with_outliers") {
    // Quantization codes around a 2^19 radius, every 97th one an outlier
    // anywhere in [0, 2^20).
    for (int i = 0; i < 4096; ++i)
      symbols.push_back(i % 97 == 0 ? static_cast<std::uint32_t>(rng.below(1u << 20))
                                    : (1u << 19) + static_cast<std::uint32_t>(rng.below(33)) - 16);
  } else if (name == "beyond_flat_limit") {
    // 200 distinct full-width values.
    std::vector<std::uint32_t> alphabet;
    for (int a = 0; a < 200; ++a) alphabet.push_back(static_cast<std::uint32_t>(rng.next()));
    for (int i = 0; i < 3000; ++i)
      symbols.push_back(alphabet[std::min<std::uint64_t>(rng.below(200), rng.below(200))]);
  } else if (name == "raw_mode_wide") {
    // More distinct values than probability slots, spread over 2^30.
    for (std::uint32_t i = 0; i < 20000; ++i) symbols.push_back((i * 7919u % 20000u) * 50021u);
  } else {  // "short_range": the range is below the length
    for (int i = 0; i < 5000; ++i)
      symbols.push_back(1000 + static_cast<std::uint32_t>(std::min(rng.below(300), rng.below(300))));
  }
  return symbols;
}

TEST(RansInterleaved, WideRangeStreamsKeepTheirBytes) {
  const WideRangeCase cases[] = {
      {"few_distinct_spread", 474, 0x39b20510u},
      {"codes_with_outliers", 2906, 0x55ff8064u},
      {"beyond_flat_limit", 3762, 0x95e93b8du},
      {"raw_mode_wide", 94594, 0x0c3a2140u},
      {"short_range", 5564, 0xc0875f3du},
  };
  for (const WideRangeCase& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<std::uint32_t> symbols = wide_range_stream(c.name);
    const auto encoded = rans_interleaved_encode(symbols);
    EXPECT_EQ(encoded.size(), c.encoded_size);
    EXPECT_EQ(crc32(encoded), c.encoded_crc);
    expect_roundtrip(symbols);
  }
}

TEST(RansInterleaved, TruncationThrows) {
  std::vector<std::uint32_t> symbols(1000, 7);
  symbols[500] = 9;
  auto encoded = rans_interleaved_encode(symbols);
  for (std::size_t cut = 1; cut <= 8; ++cut) {
    auto t = encoded;
    t.resize(t.size() - cut);
    EXPECT_THROW((void)rans_interleaved_decode(t), CorruptStream);
    EXPECT_THROW((void)rans_interleaved_decode_ref(t.data(), t.size()), CorruptStream);
  }
}

TEST(RansInterleaved, ExpectedCountAcceptsMatchRejectsMismatch) {
  const std::vector<std::uint32_t> symbols(100, 7);
  const auto encoded = rans_interleaved_encode(symbols);
  std::vector<std::uint32_t> out;
  rans_interleaved_decode_into(encoded.data(), encoded.size(), out, symbols.size());
  EXPECT_EQ(out, symbols);
  for (const std::uint64_t wrong : {std::uint64_t{0}, std::uint64_t{99}, std::uint64_t{101}})
    EXPECT_THROW(rans_interleaved_decode_into(encoded.data(), encoded.size(), out, wrong),
                 CorruptStream);
}

TEST(RansInterleaved, ExpectedCountGuardsRawModeToo) {
  // > 2^14 distinct symbols forces raw mode; the guard must fire there as
  // well, before the declared count drives the output loop.
  std::vector<std::uint32_t> symbols;
  for (std::uint32_t i = 0; i <= 65536; ++i) symbols.push_back(i);
  const auto encoded = rans_interleaved_encode(symbols);
  std::vector<std::uint32_t> out;
  rans_interleaved_decode_into(encoded.data(), encoded.size(), out, symbols.size());
  EXPECT_EQ(out, symbols);
  EXPECT_THROW(rans_interleaved_decode_into(encoded.data(), encoded.size(), out, 5),
               CorruptStream);
}

TEST(RansInterleaved, HostileSymbolCountRejectedBeforeAllocation) {
  // A one-symbol alphabet at full probability makes every decode step an
  // identity consuming zero payload bytes, so nothing but the header bounds
  // the count: a ~50-byte blob can legally declare 10^15 symbols.  The
  // expected-count form must reject it up front — were the guard placed
  // after the output resize, this test would attempt a ~4 PB allocation.
  const std::vector<std::uint32_t> symbols(64, 7);
  const auto encoded = rans_interleaved_encode(symbols);
  ASSERT_EQ(encoded[0], 64u);  // count is a 1-byte varint, spliced out below
  std::vector<std::uint8_t> hostile;
  put_varint(hostile, std::uint64_t{1000000000000000ull});
  hostile.insert(hostile.end(), encoded.begin() + 1, encoded.end());
  std::vector<std::uint32_t> out;
  EXPECT_THROW(rans_interleaved_decode_into(hostile.data(), hostile.size(), out, 64),
               CorruptStream);
}

TEST(RansInterleaved, TrailingBytesThrow) {
  auto encoded = rans_interleaved_encode(std::vector<std::uint32_t>(64, 5));
  encoded.push_back(0);
  EXPECT_THROW((void)rans_interleaved_decode(encoded), CorruptStream);
}

TEST(RansInterleaved, WrongWayCountThrows) {
  auto encoded = rans_interleaved_encode(std::vector<std::uint32_t>(64, 5));
  ASSERT_EQ(encoded[1], kRansWays);  // symbol_count 64 is a 1-byte varint
  encoded[1] = 4;
  EXPECT_THROW((void)rans_interleaved_decode(encoded), CorruptStream);
}

TEST(RansInterleaved, BadFrequencyTableThrows) {
  std::vector<std::uint8_t> bogus;
  bogus.push_back(1);          // symbol_count
  bogus.push_back(kRansWays);  // ways
  bogus.push_back(0);          // mode 0 = rANS
  bogus.push_back(1);          // distinct
  bogus.push_back(0);          // symbol 0
  bogus.push_back(5);          // freq 5 (must sum to 2^14)
  bogus.push_back(0);          // payload size 0
  EXPECT_THROW((void)rans_interleaved_decode(bogus), CorruptStream);
}

TEST(RansInterleaved, BitFlipsThrowOrDecodeWithoutCrashing) {
  std::vector<std::uint32_t> symbols;
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) symbols.push_back(static_cast<std::uint32_t>(rng.below(16)));
  const auto base = rans_interleaved_encode(symbols);
  for (int trial = 0; trial < 128; ++trial) {
    auto mutated = base;
    mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    try {
      (void)rans_interleaved_decode(mutated);
    } catch (const Error&) {
      // rejected: fine
    }
    try {
      (void)rans_interleaved_decode_ref(mutated.data(), mutated.size());
    } catch (const Error&) {
    }
  }
}

TEST(RansInterleaved, DispatchReportsConsistently) {
  // The vectorized flag may only be true when the TU was compiled wide; if
  // the CPU also supports it, decode must take that path and stay
  // bit-identical (covered above) — here we just pin the contract wiring.
  if (detail::rans_interleaved_vectorized()) {
    EXPECT_EQ(detail::rans_interleaved_isa(), simd::kAvx2);
  }
}

/// Property sweep across alphabet sizes, skews, and lengths (mirrors the
/// single-state rANS sweep, plus lengths straddling the 8-way round boundary).
class RansInterleavedSweep : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RansInterleavedSweep, Roundtrips) {
  const auto [alphabet, count] = GetParam();
  Rng rng(static_cast<std::uint64_t>(alphabet * 131 + count));
  std::vector<std::uint32_t> symbols;
  symbols.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double u = rng.uniform();
    symbols.push_back(static_cast<std::uint32_t>(u * u * alphabet));
  }
  expect_roundtrip(symbols);
}

INSTANTIATE_TEST_SUITE_P(AlphabetsAndSizes, RansInterleavedSweep,
                         testing::Combine(testing::Values(2, 17, 256, 5000),
                                          testing::Values(1, 7, 8, 9, 100, 50000)));

}  // namespace
}  // namespace fraz
