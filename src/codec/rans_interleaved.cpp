#include "codec/rans_interleaved.hpp"

#include <algorithm>

#include "codec/varint.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace fraz {

namespace {

constexpr unsigned kProbBits = kRansInterleavedProbBits;
constexpr std::uint32_t kProbScale = 1u << kProbBits;
/// Renormalization interval: every state stays in [kStateLow, kStateLow*256).
constexpr std::uint32_t kStateLow = 1u << 23;
constexpr unsigned kWays = kRansWays;

/// Value-range slack of the encoder's flat symbol table: the whole range of
/// sz quantization codes, [0, 2 * radius).
constexpr std::uint64_t kFlatSlack = std::uint64_t{1} << 16;

constexpr std::uint8_t kModeRans = 0;
constexpr std::uint8_t kModeRaw = 1;

struct SymbolStats {
  std::uint32_t symbol;
  std::uint32_t freq;  // normalized, >= 1
  std::uint32_t cum;   // cumulative start
};

/// Sorted (symbol, count) pairs of one stream.
using Census = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

/// Normalize raw counts so they sum exactly to kProbScale with every present
/// symbol keeping frequency >= 1.  Same deterministic drift policy as the
/// single-state coder (rans.cpp): rounding drift is absorbed by the symbols
/// with the largest frequencies, visited in descending (frequency, symbol)
/// order.  \p census must be sorted by symbol.
std::vector<SymbolStats> normalize(const Census& census, std::uint64_t total) {
  std::vector<SymbolStats> stats;
  stats.reserve(census.size());
  std::int64_t assigned = 0;
  for (const auto& [symbol, count] : census) {
    auto freq = static_cast<std::uint32_t>(count * kProbScale / total);
    if (freq == 0) freq = 1;
    stats.push_back({symbol, freq, 0});
    assigned += freq;
  }
  std::int64_t drift = static_cast<std::int64_t>(kProbScale) - assigned;
  if (drift != 0) {
    std::vector<std::size_t> order(stats.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return stats[a].freq != stats[b].freq ? stats[a].freq > stats[b].freq
                                            : stats[a].symbol < stats[b].symbol;
    });
    for (std::size_t i = 0; drift != 0; i = (i + 1) % order.size()) {
      SymbolStats& s = stats[order[i]];
      if (drift > 0) {
        const auto add = static_cast<std::uint32_t>(drift);
        s.freq += add;
        drift = 0;
      } else if (s.freq > 1) {
        const auto take =
            static_cast<std::uint32_t>(std::min<std::int64_t>(-drift, s.freq - 1));
        s.freq -= take;
        drift += take;
      }
    }
  }

  std::uint32_t cum = 0;
  for (auto& s : stats) {
    s.cum = cum;
    cum += s.freq;
  }
  return stats;
}

/// Parse the alphabet section into stats; shared by both decoders.
void parse_alphabet(const std::uint8_t* data, std::size_t size, std::size_t& pos,
                    std::vector<SymbolStats>& stats) {
  const std::uint64_t distinct = get_varint(data, size, pos);
  if (distinct == 0 || distinct > kProbScale)
    throw CorruptStream("rans_interleaved: bad alphabet size");
  stats.resize(distinct);
  std::uint32_t symbol = 0, cum = 0;
  for (std::uint64_t i = 0; i < distinct; ++i) {
    const std::uint64_t delta = get_varint(data, size, pos);
    const std::uint64_t freq = get_varint(data, size, pos);
    if (freq == 0 || freq > kProbScale) throw CorruptStream("rans_interleaved: bad frequency");
    symbol = i == 0 ? static_cast<std::uint32_t>(delta)
                    : symbol + static_cast<std::uint32_t>(delta);
    stats[i] = {symbol, static_cast<std::uint32_t>(freq), cum};
    cum += static_cast<std::uint32_t>(freq);
  }
  if (cum != kProbScale)
    throw CorruptStream("rans_interleaved: frequencies do not sum to scale");
}

/// Shared front half of both decoders: header, mode routing, alphabet, and
/// the eight big-endian initial states.  Returns false when the caller is
/// already done (empty stream or raw mode, with \p out filled).
bool decode_prologue(const std::uint8_t* data, std::size_t size, std::size_t& pos,
                     std::uint64_t& symbol_count, std::vector<SymbolStats>& stats,
                     const std::uint8_t*& payload, std::size_t& payload_size,
                     std::size_t& byte_pos, std::uint32_t* states,
                     std::vector<std::uint32_t>& out,
                     const std::uint64_t* expected_count) {
  symbol_count = get_varint(data, size, pos);
  // Callers that know the count reject a hostile header here, before the
  // declared count sizes any allocation: a degenerate one-symbol alphabet
  // decodes with zero payload bytes per symbol, so nothing downstream bounds
  // symbol_count by the blob size.
  if (expected_count && symbol_count != *expected_count)
    throw CorruptStream("rans_interleaved: symbol count mismatch");
  if (pos >= size) throw CorruptStream("rans_interleaved: truncated header");
  const std::uint8_t ways = data[pos++];
  if (ways != kWays) throw CorruptStream("rans_interleaved: unsupported way count");
  if (symbol_count == 0) {
    if (pos != size) throw CorruptStream("rans_interleaved: trailing bytes");
    return false;
  }
  if (pos >= size) throw CorruptStream("rans_interleaved: truncated mode");
  const std::uint8_t mode = data[pos++];
  if (mode == kModeRaw) {
    out.reserve(std::min<std::uint64_t>(symbol_count, std::uint64_t{1} << 20));
    for (std::uint64_t i = 0; i < symbol_count; ++i) {
      const std::uint64_t v = get_varint(data, size, pos);
      if (v > 0xffffffffull) throw CorruptStream("rans_interleaved: raw symbol overflow");
      out.push_back(static_cast<std::uint32_t>(v));
    }
    if (pos != size) throw CorruptStream("rans_interleaved: trailing bytes");
    return false;
  }
  if (mode != kModeRans) throw CorruptStream("rans_interleaved: unknown mode");

  parse_alphabet(data, size, pos, stats);
  payload_size = get_varint(data, size, pos);
  if (pos + payload_size != size) throw CorruptStream("rans_interleaved: payload size mismatch");
  payload = data + pos;
  if (payload_size < 4 * kWays) throw CorruptStream("rans_interleaved: payload too small");
  byte_pos = 0;
  for (unsigned w = 0; w < kWays; ++w) {
    std::uint32_t s = 0;
    for (int b = 0; b < 4; ++b) s = (s << 8) | payload[byte_pos++];
    if (s < kStateLow) throw CorruptStream("rans_interleaved: bad initial state");
    states[w] = s;
  }
  return true;
}

void check_epilogue(const std::uint32_t* states, std::size_t byte_pos,
                    std::size_t payload_size) {
  for (unsigned w = 0; w < kWays; ++w)
    if (states[w] != kStateLow) throw CorruptStream("rans_interleaved: final state mismatch");
  if (byte_pos != payload_size) throw CorruptStream("rans_interleaved: trailing payload bytes");
}

}  // namespace

std::vector<std::uint8_t> rans_interleaved_encode(const std::uint32_t* symbols,
                                                  std::size_t n) {
  std::vector<std::uint8_t> out;
  put_varint(out, n);
  out.push_back(static_cast<std::uint8_t>(kWays));
  if (n == 0) return out;

  // The sorted (symbol, count) census, and then a symbol -> rank lookup
  // into it, never sized by the whole value range.  Quantization codes are
  // dense: blocked sz's live in [0, 2^16), so while the min..max range is
  // at most 2n + 2^16 one flat table over it serves both (counts, then
  // ranks) in O(n) memory plus a fixed 256 KiB.  A stream spread wider is
  // sorted instead, and its ranks are binary searches over the census.
  // thread_local: group encoders reuse the warm allocations.
  std::uint32_t lo = symbols[0], hi = symbols[0];
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, symbols[i]);
    hi = std::max(hi, symbols[i]);
  }
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - lo + 1;
  const bool flat = range <= 2 * static_cast<std::uint64_t>(n) + kFlatSlack &&
                    n <= 0xffffffffu;
  thread_local std::vector<std::uint32_t> table;
  Census census;
  if (flat) {
    table.assign(static_cast<std::size_t>(range), 0);
    for (std::size_t i = 0; i < n; ++i) ++table[symbols[i] - lo];
    for (std::size_t v = 0; v < table.size(); ++v)
      if (table[v] != 0) census.emplace_back(lo + static_cast<std::uint32_t>(v), table[v]);
  } else {
    table.assign(symbols, symbols + n);
    std::sort(table.begin(), table.end());
    for (std::size_t i = 0; i < n;) {
      std::size_t j = i + 1;
      while (j < n && table[j] == table[i]) ++j;
      census.emplace_back(table[i], j - i);
      i = j;
    }
    // The distinct symbols, ascending: the binary-search keys of the ranks.
    table.resize(census.size());
    for (std::size_t r = 0; r < census.size(); ++r) table[r] = census[r].first;
  }
  if (census.size() > kProbScale) {
    // More distinct symbols than probability slots: the stream is close to
    // incompressible, so store it verbatim instead of failing.
    out.push_back(kModeRaw);
    for (std::size_t i = 0; i < n; ++i) put_varint(out, symbols[i]);
    return out;
  }

  out.push_back(kModeRans);
  const std::vector<SymbolStats> stats = normalize(census, n);
  std::uint32_t prev = 0;
  put_varint(out, stats.size());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    put_varint(out, stats[i].symbol - (i == 0 ? 0 : prev));
    put_varint(out, stats[i].freq);
    prev = stats[i].symbol;
  }

  // One encode entry per distinct symbol.  Each carries the renormalization
  // threshold plus a fixed-point reciprocal of its frequency so the state
  // update below needs no hardware divide: for every 32-bit x,
  // x / freq == ((x * rcp_freq) >> 32) >> rcp_shift, which turns
  // ((x / freq) << kProbBits) + (x % freq) + cum  into
  // x + bias + (x / freq) * cmpl_freq — bit-identical to the division form.
  struct EncSymbol {
    std::uint32_t x_max;       // renormalize while x >= x_max
    std::uint32_t rcp_freq;    // fixed-point 1/freq
    std::uint32_t bias;
    std::uint32_t cmpl_freq;   // (1 << kProbBits) - freq
    std::uint32_t rcp_shift;
  };
  std::vector<EncSymbol> enc(stats.size());
  for (std::size_t r = 0; r < stats.size(); ++r) {
    const SymbolStats& s = stats[r];
    EncSymbol& es = enc[r];
    es.x_max = ((kStateLow >> kProbBits) << 8) * s.freq;
    es.cmpl_freq = (1u << kProbBits) - s.freq;
    if (s.freq < 2) {
      // freq == 1: q == x, so fold the (x << kProbBits) expansion into bias.
      es.rcp_freq = ~0u;
      es.rcp_shift = 0;
      es.bias = s.cum + (1u << kProbBits) - 1;
    } else {
      std::uint32_t shift = 0;
      while (s.freq > (1u << shift)) ++shift;
      es.rcp_freq = static_cast<std::uint32_t>(
          ((std::uint64_t{1} << (shift + 31)) + s.freq - 1) / s.freq);
      es.rcp_shift = shift - 1;
      es.bias = s.cum;
    }
    if (flat) table[s.symbol - lo] = static_cast<std::uint32_t>(r);  // count -> rank
  }

  // Encode in reverse with alternating states so the decoder emits forward:
  // renormalization bytes are pushed before each encode step and the whole
  // payload is reversed once, which makes every state's byte sequence exactly
  // that of a single-state rANS over its own symbol subsequence.
  //
  // The renorm is branchless: a state needs at most two renormalization
  // bytes per step (states live below kStateLow * 256 = 2^31 and
  // x_max >= 2^17), so both candidate bytes are stored unconditionally and
  // the write cursor advances by however many were actually needed — no
  // data-dependent branch for the predictor to miss.  thread_local scratch:
  // group encoders reuse the warm allocation; the 2n bound plus flush slack
  // makes the stray second-byte store always in bounds.
  thread_local std::vector<std::uint8_t> payload;
  if (payload.size() < 2 * n + 8 * kWays) payload.resize(2 * n + 8 * kWays);
  std::uint8_t* pp = payload.data();
  std::uint32_t states[kWays];
  for (auto& s : states) s = kStateLow;
  // One instantiation per lookup, so the loop carries no per-symbol branch
  // on the table kind.
  const auto encode_all = [&](auto rank_of) {
    for (std::size_t i = n; i-- > 0;) {
      const EncSymbol es = enc[rank_of(symbols[i])];
      std::uint32_t& x = states[i % kWays];
      pp[0] = static_cast<std::uint8_t>(x & 0xffu);
      pp[1] = static_cast<std::uint8_t>((x >> 8) & 0xffu);
      const unsigned renorm =
          static_cast<unsigned>(x >= es.x_max) +
          static_cast<unsigned>(static_cast<std::uint64_t>(x) >=
                                (static_cast<std::uint64_t>(es.x_max) << 8));
      pp += renorm;
      x >>= 8 * renorm;
      const std::uint32_t q = static_cast<std::uint32_t>(
                                  (static_cast<std::uint64_t>(x) * es.rcp_freq) >> 32) >>
                              es.rcp_shift;
      x += es.bias + q * es.cmpl_freq;
    }
  };
  const std::uint32_t* lookup = table.data();
  if (flat) {
    encode_all([lookup, lo](std::uint32_t symbol) { return lookup[symbol - lo]; });
  } else {
    const std::uint32_t* lookup_end = lookup + table.size();
    encode_all([lookup, lookup_end](std::uint32_t symbol) {
      return static_cast<std::size_t>(std::lower_bound(lookup, lookup_end, symbol) - lookup);
    });
  }
  // Flush states 7..0 LSB-first; after the reversal below the decoder reads
  // state 0 first, each big-endian.
  for (unsigned w = kWays; w-- > 0;) {
    std::uint32_t x = states[w];
    for (int b = 0; b < 4; ++b) {
      *pp++ = static_cast<std::uint8_t>(x & 0xffu);
      x >>= 8;
    }
  }
  const std::size_t payload_size = static_cast<std::size_t>(pp - payload.data());
  std::reverse(payload.data(), payload.data() + payload_size);
  put_varint(out, payload_size);
  out.insert(out.end(), payload.data(), payload.data() + payload_size);
  return out;
}

std::vector<std::uint32_t> rans_interleaved_decode_ref(const std::uint8_t* data,
                                                       std::size_t size) {
  std::size_t pos = 0;
  std::uint64_t symbol_count = 0;
  std::vector<SymbolStats> stats;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_size = 0, byte_pos = 0;
  std::uint32_t states[kWays];
  std::vector<std::uint32_t> out;
  if (!decode_prologue(data, size, pos, symbol_count, stats, payload, payload_size,
                       byte_pos, states, out, nullptr))
    return out;

  std::vector<std::uint32_t> slot_to_index(kProbScale);
  for (std::uint32_t i = 0; i < stats.size(); ++i)
    for (std::uint32_t s = stats[i].cum; s < stats[i].cum + stats[i].freq; ++s)
      slot_to_index[s] = i;

  out.reserve(std::min<std::uint64_t>(symbol_count, std::uint64_t{1} << 20));
  for (std::uint64_t i = 0; i < symbol_count; ++i) {
    std::uint32_t& x = states[i % kWays];
    const std::uint32_t slot = x & (kProbScale - 1);
    const SymbolStats& s = stats[slot_to_index[slot]];
    out.push_back(s.symbol);
    x = s.freq * (x >> kProbBits) + slot - s.cum;
    while (x < kStateLow) {
      if (byte_pos >= payload_size) throw CorruptStream("rans_interleaved: truncated payload");
      x = (x << 8) | payload[byte_pos++];
    }
  }
  check_epilogue(states, byte_pos, payload_size);
  return out;
}

namespace {

void decode_into_impl(const std::uint8_t* data, std::size_t size,
                      std::vector<std::uint32_t>& out,
                      const std::uint64_t* expected_count) {
  std::size_t pos = 0;
  std::uint64_t symbol_count = 0;
  std::vector<SymbolStats> stats;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_size = 0, byte_pos = 0;
  std::uint32_t states[kWays];
  out.clear();
  if (!decode_prologue(data, size, pos, symbol_count, stats, payload, payload_size,
                       byte_pos, states, out, expected_count))
    return;

  // Packed slot table: one 64-bit load per symbol replaces the two dependent
  // loads (slot -> index -> stats) of the reference loop.  2^14 entries =
  // 128 KiB, L2-resident; thread_local so back-to-back group decodes reuse
  // the warm allocation.  No clearing needed: the alphabet's frequencies sum
  // to exactly kProbScale, so the fill below covers every slot.
  thread_local std::vector<std::uint64_t> table;
  table.resize(kProbScale);
  for (const SymbolStats& s : stats) {
    const std::uint64_t entry = (static_cast<std::uint64_t>(s.symbol) << 32) |
                                (static_cast<std::uint64_t>(s.freq) << 16) | s.cum;
    std::fill(table.begin() + s.cum, table.begin() + s.cum + s.freq, entry);
  }

  out.resize(symbol_count);
  std::uint32_t* op = out.data();
  const std::uint64_t rounds = symbol_count / kWays;

  static const bool vec_ok = detail::rans_interleaved_vectorized() &&
                             simd::isa_runtime_ok(detail::rans_interleaved_isa());
  std::uint64_t done = 0;
  if (vec_ok && rounds > 0) {
    byte_pos = detail::rans_interleaved_decode_rounds_vec(
        table.data(), payload, payload_size, byte_pos, states, op, rounds);
    done = rounds * kWays;
  } else {
    // Scalar 8-way rounds: the eight state updates are mutually independent,
    // so the out-of-order core overlaps their load/multiply chains; only the
    // (rare) renormalization byte reads are ordered across lanes.
    for (std::uint64_t r = 0; r < rounds; ++r) {
      if (byte_pos + 3 * kWays <= payload_size) {
        for (unsigned w = 0; w < kWays; ++w) {
          std::uint32_t x = states[w];
          const std::uint32_t slot = x & (kProbScale - 1);
          const std::uint64_t e = table[slot];
          op[w] = static_cast<std::uint32_t>(e >> 32);
          x = static_cast<std::uint32_t>((e >> 16) & 0xffffu) * (x >> kProbBits) + slot -
              static_cast<std::uint32_t>(e & 0xffffu);
          while (x < kStateLow) x = (x << 8) | payload[byte_pos++];
          states[w] = x;
        }
      } else {
        for (unsigned w = 0; w < kWays; ++w) {
          std::uint32_t x = states[w];
          const std::uint32_t slot = x & (kProbScale - 1);
          const std::uint64_t e = table[slot];
          op[w] = static_cast<std::uint32_t>(e >> 32);
          x = static_cast<std::uint32_t>((e >> 16) & 0xffffu) * (x >> kProbBits) + slot -
              static_cast<std::uint32_t>(e & 0xffffu);
          while (x < kStateLow) {
            if (byte_pos >= payload_size)
              throw CorruptStream("rans_interleaved: truncated payload");
            x = (x << 8) | payload[byte_pos++];
          }
          states[w] = x;
        }
      }
      op += kWays;
    }
    done = rounds * kWays;
  }

  // Tail: fewer than kWays symbols, always bounds-checked.
  op = out.data() + done;
  for (std::uint64_t i = done; i < symbol_count; ++i) {
    std::uint32_t& x = states[i % kWays];
    const std::uint32_t slot = x & (kProbScale - 1);
    const std::uint64_t e = table[slot];
    *op++ = static_cast<std::uint32_t>(e >> 32);
    x = static_cast<std::uint32_t>((e >> 16) & 0xffffu) * (x >> kProbBits) + slot -
        static_cast<std::uint32_t>(e & 0xffffu);
    while (x < kStateLow) {
      if (byte_pos >= payload_size) throw CorruptStream("rans_interleaved: truncated payload");
      x = (x << 8) | payload[byte_pos++];
    }
  }
  check_epilogue(states, byte_pos, payload_size);
}

}  // namespace

void rans_interleaved_decode_into(const std::uint8_t* data, std::size_t size,
                                  std::vector<std::uint32_t>& out) {
  decode_into_impl(data, size, out, nullptr);
}

void rans_interleaved_decode_into(const std::uint8_t* data, std::size_t size,
                                  std::vector<std::uint32_t>& out,
                                  std::uint64_t expected_count) {
  decode_into_impl(data, size, out, &expected_count);
}

std::vector<std::uint32_t> rans_interleaved_decode(const std::uint8_t* data,
                                                   std::size_t size) {
  std::vector<std::uint32_t> out;
  rans_interleaved_decode_into(data, size, out);
  return out;
}

}  // namespace fraz
