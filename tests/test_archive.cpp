#include "archive/archive.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "codec/checksum.hpp"
#include "data/datasets.hpp"
#include "pressio/registry.hpp"
#include "test_helpers.hpp"

namespace fraz {
namespace {

using archive::ArchiveReader;
using archive::ArchiveWriteConfig;
using archive::ArchiveWriteResult;
using archive::ArchiveWriter;
using testhelpers::make_field;

ArchiveWriteConfig writer_config(const std::string& backend, double target, double epsilon,
                                 std::size_t chunk_extent = 0, unsigned threads = 1) {
  ArchiveWriteConfig config;
  config.engine.compressor = backend;
  config.engine.tuner.target_ratio = target;
  config.engine.tuner.epsilon = epsilon;
  config.chunk_extent = chunk_extent;
  config.threads = threads;
  return config;
}

/// Pack \p data and return (result, bytes); asserts success.
ArchiveWriteResult pack(const ArrayView& data, ArchiveWriteConfig config, Buffer& out) {
  ArchiveWriter writer(std::move(config));
  auto written = writer.write(data, out);
  EXPECT_TRUE(written.ok()) << written.status().to_string();
  return std::move(written).value();
}

ArchiveReader open_ok(const Buffer& bytes) {
  auto reader = ArchiveReader::open(bytes.data(), bytes.size());
  EXPECT_TRUE(reader.ok()) << reader.status().to_string();
  return std::move(reader).value();
}

/// Total bytes of fields[0]'s chunks (== the manifest offset of a
/// single-field v2/v3 archive).
std::size_t region_bytes(const archive::ArchiveInfo& info) {
  std::size_t payload = 0;
  for (const auto& chunk : info.chunks) payload += chunk.size;
  return payload;
}

TEST(Archive, RoundTripAllBackendsBothDtypes) {
  for (const char* backend : {"sz", "zfp", "mgard", "truncate"}) {
    // truncate cannot express high ratios on f32 (it drops mantissa bytes),
    // so it gets a reachable target; the fixed-ratio band itself is covered
    // by AggregateRatioWithinBand below.
    const bool is_truncate = std::string(backend) == "truncate";
    for (DType dtype : {DType::kFloat32, DType::kFloat64}) {
      const NdArray field = make_field(dtype, {10, 16, 12});
      const double target = is_truncate ? 2.5 : 8.0;
      Buffer bytes;
      // Extent 4 keeps every chunk extent >= 2 (10 = 4 + 4 + 2); mgard
      // rejects degenerate 1-plane 3D chunks.
      const ArchiveWriteResult result =
          pack(field.view(), writer_config(backend, target, 0.3, 4), bytes);
      EXPECT_EQ(result.chunk_count, 3u) << backend;

      ArchiveReader reader = open_ok(bytes);
      EXPECT_EQ(reader.info().compressor, backend);
      EXPECT_EQ(reader.info().dtype, dtype);
      EXPECT_EQ(reader.info().shape, field.shape());

      auto decoded = reader.read_all();
      ASSERT_TRUE(decoded.ok()) << backend << ": " << decoded.status().to_string();
      ASSERT_EQ(decoded.value().shape(), field.shape());
      ASSERT_EQ(decoded.value().dtype(), dtype);
      double max_bound = 0;
      for (const auto& chunk : result.chunks)
        max_bound = std::max(max_bound, chunk.entry.error_bound);
      const auto caps = pressio::registry().create(backend)->capabilities();
      // Rate-fallback chunks carry no pointwise guarantee (their manifest
      // bound is 0), so the bound check only holds without them.
      if (caps.error_bounded && result.rate_fallback_chunks == 0) {
        EXPECT_LE(testhelpers::max_error(field, decoded.value()), max_bound * 1.0000001)
            << backend;
      }
    }
  }
}

TEST(Archive, AggregateRatioWithinBandAcrossDatasetsAndBackends) {
  // The acceptance property: the archive-level achieved ratio (raw bytes over
  // total archive bytes, headers and index included) lands in ρt(1±ε) — on
  // two datasets times two backends.
  // CESM (2D climate) and NYX (3D cosmology): both backends can express the
  // band on per-chunk granularity there.  (ZFP's accuracy-mode ratio treads
  // are too coarse for the small Hurricane chunks — the same expressibility
  // limit the paper reports in §VI-B.3 — so its chunks retrain to "closest"
  // and the aggregate lands below the band; that is the infeasible case, not
  // a broken guarantee.)
  const double target = 10.0, epsilon = 0.1;
  const auto cesm = data::dataset_by_name("cesm", data::SuiteScale::kMedium);
  const auto nyx = data::dataset_by_name("nyx", data::SuiteScale::kSmall);
  const NdArray fields[] = {
      data::generate_field(data::field_by_name(cesm, "CLOUD"), 0),
      data::generate_field(data::field_by_name(nyx, "temperature"), 0),
  };
  for (const char* backend : {"sz", "zfp"}) {
    for (const NdArray& field : fields) {
      Buffer bytes;
      const ArchiveWriteResult result =
          pack(field.view(), writer_config(backend, target, epsilon), bytes);
      EXPECT_TRUE(result.in_band)
          << backend << ": aggregate ratio " << result.achieved_ratio;
      EXPECT_GE(result.achieved_ratio, target * (1 - epsilon)) << backend;
      EXPECT_LE(result.achieved_ratio, target * (1 + epsilon)) << backend;

      // The footer records the same aggregate ratio the writer reported.
      ArchiveReader reader = open_ok(bytes);
      EXPECT_DOUBLE_EQ(reader.info().achieved_ratio, result.achieved_ratio);
      EXPECT_EQ(reader.info().raw_bytes, field.size_bytes());
      EXPECT_EQ(reader.info().archive_bytes, bytes.size());
    }
  }
}

TEST(Archive, ReadChunkEqualsSliceOfFullDecompression) {
  const NdArray field = make_field(DType::kFloat32, {9, 20, 14});
  Buffer bytes;
  pack(field.view(), writer_config("sz", 6.0, 0.2, 2), bytes);
  ArchiveReader reader = open_ok(bytes);
  auto full = reader.read_all();
  ASSERT_TRUE(full.ok());
  const std::size_t plane_bytes = full.value().size_bytes() / 9;
  for (std::size_t i = 0; i < reader.info().chunk_count; ++i) {
    auto chunk = reader.read_chunk(i);
    ASSERT_TRUE(chunk.ok()) << i;
    EXPECT_EQ(chunk.value().shape(), reader.chunk_shape(i));
    const auto* expected = static_cast<const std::uint8_t*>(full.value().data()) +
                           i * reader.info().chunk_extent * plane_bytes;
    EXPECT_EQ(std::memcmp(chunk.value().data(), expected, chunk.value().size_bytes()), 0)
        << "chunk " << i << " differs from the corresponding slice";
  }
}

TEST(Archive, RangeQueryMatchesFullDecompression) {
  const NdArray field = make_field(DType::kFloat32, {12, 16, 10});
  Buffer bytes;
  pack(field.view(), writer_config("sz", 6.0, 0.2, 5), bytes);  // 12 = 5 + 5 + 2
  ArchiveReader reader = open_ok(bytes);
  auto full = reader.read_all();
  ASSERT_TRUE(full.ok());
  const std::size_t plane_bytes = full.value().size_bytes() / 12;
  // Every (first, count) window, including chunk-straddling and tail ones.
  for (std::size_t first = 0; first < 12; ++first) {
    for (std::size_t count = 1; first + count <= 12; ++count) {
      auto range = reader.read_range(first, count);
      ASSERT_TRUE(range.ok()) << first << "+" << count;
      ASSERT_EQ(range.value().shape()[0], count);
      EXPECT_EQ(std::memcmp(range.value().data(),
                            static_cast<const std::uint8_t*>(full.value().data()) +
                                first * plane_bytes,
                            range.value().size_bytes()),
                0)
          << "range [" << first << ", " << first + count << ")";
    }
  }
}

TEST(Archive, ThreadCountDoesNotChangeTheBytes) {
  // Both warm-start paths must be deterministic: the first write (all chunks
  // seeded from chunk 0's bound) and a subsequent write of the same geometry
  // (each chunk seeded from its own previous bound).
  const auto hurricane = data::dataset_by_name("hurricane", data::SuiteScale::kSmall);
  const NdArray step0 = data::generate_field(data::field_by_name(hurricane, "TCf"), 0);
  const NdArray step1 = data::generate_field(data::field_by_name(hurricane, "TCf"), 1);
  ArchiveWriter serial_writer(writer_config("sz", 10.0, 0.1, 0, 1));
  ArchiveWriter parallel_writer(writer_config("sz", 10.0, 0.1, 0, 4));
  for (const NdArray* step : {&step0, &step1}) {
    Buffer serial, parallel;
    ASSERT_TRUE(serial_writer.write(step->view(), serial).ok());
    ASSERT_TRUE(parallel_writer.write(step->view(), parallel).ok());
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(std::memcmp(serial.data(), parallel.data(), serial.size()), 0)
        << "archives must be byte-identical regardless of worker count";
  }
}

TEST(Archive, SiblingsThatMissChunkZerosBoundAreRefinedLocally) {
  // Amplitude grows 8x along the slowest axis, so chunk 0's bound misses the
  // band on later chunks.  Each miss is refined from its measured ratio
  // instead of retraining globally, and the archive stays byte-identical at
  // any worker count.
  NdArray field = make_field(DType::kFloat32, {32, 16, 16});
  const std::size_t plane = field.elements() / 32;
  for (std::size_t i = 0; i < field.elements(); ++i)
    field.set_flat(i, field.at_flat(i) * (1.0 + static_cast<double>(i / plane) / 4.0));
  Buffer reference;
  const ArchiveWriteResult first =
      pack(field.view(), writer_config("sz", 8.0, 0.1, 4, 1), reference);
  EXPECT_GT(first.refined_chunks, 0u);
  EXPECT_EQ(first.warm_chunks + first.refined_chunks + first.retrained_chunks,
            first.chunk_count);
  EXPECT_TRUE(first.in_band) << first.achieved_ratio;
  std::size_t refined = 0;
  for (const archive::ChunkReport& chunk : first.chunks) {
    refined += chunk.refined;
    EXPECT_FALSE(chunk.refined && (chunk.warm || chunk.retrained));
  }
  EXPECT_EQ(refined, first.refined_chunks);
  EXPECT_EQ(testhelpers::chunk_reproduction_mismatch(reference.data(), reference.size(), field),
            "");
  for (const unsigned threads : {2u, 4u}) {
    Buffer bytes;
    const ArchiveWriteResult again =
        pack(field.view(), writer_config("sz", 8.0, 0.1, 4, threads), bytes);
    EXPECT_EQ(again.refined_chunks, first.refined_chunks);
    ASSERT_EQ(bytes.size(), reference.size()) << threads;
    EXPECT_EQ(std::memcmp(bytes.data(), reference.data(), bytes.size()), 0) << threads;
  }
}

TEST(Archive, ParallelReadMatchesSerialRead) {
  const NdArray field = make_field(DType::kFloat32, {16, 24, 18});
  Buffer bytes;
  pack(field.view(), writer_config("sz", 6.0, 0.2, 2, 4), bytes);
  ArchiveReader reader = open_ok(bytes);
  auto serial = reader.read_all(1);
  auto parallel = reader.read_all(4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial.value().size_bytes(), parallel.value().size_bytes());
  EXPECT_EQ(std::memcmp(serial.value().data(), parallel.value().data(),
                        serial.value().size_bytes()),
            0);
}

TEST(Archive, CorruptingOneChunkFailsOnlyReadsTouchingIt) {
  const NdArray field = make_field(DType::kFloat32, {8, 16, 12});
  Buffer bytes;
  pack(field.view(), writer_config("sz", 6.0, 0.2, 2), bytes);  // 4 chunks
  ArchiveReader pristine = open_ok(bytes);
  const std::size_t region = pristine.info().chunk_region;
  const std::size_t chunk_count = pristine.info().chunk_count;
  ASSERT_EQ(chunk_count, 4u);

  for (std::size_t victim = 0; victim < chunk_count; ++victim) {
    std::vector<std::uint8_t> corrupted(bytes.data(), bytes.data() + bytes.size());
    const auto& entry = pristine.info().chunks[victim];
    corrupted[region + entry.offset + entry.size / 2] ^= 0x40;

    // The manifest and footer are intact, so the archive still opens.
    auto reader = ArchiveReader::open(corrupted.data(), corrupted.size());
    ASSERT_TRUE(reader.ok()) << reader.status().to_string();

    for (std::size_t i = 0; i < chunk_count; ++i) {
      auto chunk = reader.value().read_chunk(i);
      if (i == victim) {
        ASSERT_FALSE(chunk.ok()) << "corrupted chunk " << i << " decoded";
        EXPECT_EQ(chunk.status().code(), StatusCode::kCorruptStream);
      } else {
        EXPECT_TRUE(chunk.ok()) << "chunk " << i << " should not see chunk " << victim
                                << "'s corruption: " << chunk.status().to_string();
      }
    }
    // Whole-archive reads touch the victim and must fail...
    EXPECT_FALSE(reader.value().read_all().ok());
    // ...while a range confined to other chunks still succeeds.
    const std::size_t clean_chunk = victim == 0 ? 1 : 0;
    auto range = reader.value().read_range(clean_chunk * 2, 2);
    EXPECT_TRUE(range.ok()) << range.status().to_string();
  }
}

TEST(Archive, TruncationFailsOpen) {
  const NdArray field = make_field(DType::kFloat32, {6, 12, 10});
  Buffer bytes;
  pack(field.view(), writer_config("sz", 6.0, 0.2, 2), bytes);
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() - archive::kFooterBytes, bytes.size() / 2,
        std::size_t{5}, std::size_t{0}}) {
    auto reader = ArchiveReader::open(bytes.data(), keep);
    EXPECT_FALSE(reader.ok()) << "opened a " << keep << "-byte truncation";
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruptStream) << keep;
  }
}

TEST(Archive, CorruptedManifestOrFooterFailsOpen) {
  const NdArray field = make_field(DType::kFloat32, {6, 12, 10});
  Buffer bytes;
  pack(field.view(), writer_config("sz", 6.0, 0.2, 2), bytes);
  ArchiveReader pristine = open_ok(bytes);
  // Manifest byte (v2: the manifest block follows the chunk region).
  std::vector<std::uint8_t> bad(bytes.data(), bytes.data() + bytes.size());
  bad[region_bytes(pristine.info()) + 8] ^= 0x01;
  EXPECT_FALSE(ArchiveReader::open(bad.data(), bad.size()).ok());
  // Footer byte.
  bad.assign(bytes.data(), bytes.data() + bytes.size());
  bad[bad.size() - 10] ^= 0x01;
  EXPECT_FALSE(ArchiveReader::open(bad.data(), bad.size()).ok());
}

TEST(Archive, SingleChunkAndOddShapes) {
  // One chunk: extent covers the whole slowest axis.
  const NdArray field = make_field(DType::kFloat32, {5, 10, 8});
  Buffer bytes;
  const ArchiveWriteResult one = pack(field.view(), writer_config("sz", 5.0, 0.3, 5), bytes);
  EXPECT_EQ(one.chunk_count, 1u);
  ArchiveReader reader = open_ok(bytes);
  auto decoded = reader.read_all();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().shape(), field.shape());

  // Extent larger than the axis clamps to one chunk.
  Buffer clamped;
  EXPECT_EQ(pack(field.view(), writer_config("sz", 5.0, 0.3, 99), clamped).chunk_count, 1u);

  // Odd remainder: 7 = 3 + 3 + 1, and a rank-1 array.
  const NdArray line = make_field(DType::kFloat64, {7000});
  Buffer line_bytes;
  const ArchiveWriteResult odd =
      pack(line.view(), writer_config("sz", 5.0, 0.3, 3000), line_bytes);
  EXPECT_EQ(odd.chunk_count, 3u);
  ArchiveReader line_reader = open_ok(line_bytes);
  EXPECT_EQ(line_reader.chunk_shape(2), (Shape{1000}));
  auto tail = line_reader.read_chunk(2);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value().elements(), 1000u);
}

TEST(Archive, WriterWarmStartsAcrossWrites) {
  // Packing a time series: the writer's persistent engine carries the
  // chunk-0 bound, so later steps skip full training and chunks stay warm.
  const auto hurricane = data::dataset_by_name("hurricane", data::SuiteScale::kTiny);
  const auto spec = data::field_by_name(hurricane, "TCf");
  ArchiveWriter writer(writer_config("sz", 8.0, 0.2));
  Buffer bytes;
  auto first = writer.write(data::generate_field(spec, 0).view(), bytes);
  ASSERT_TRUE(first.ok());
  auto second = writer.write(data::generate_field(spec, 1).view(), bytes);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().retrained_chunks, 0u)
      << "a mildly drifting step should reuse the carried bound";
  EXPECT_EQ(second.value().warm_chunks, second.value().chunk_count);
}

TEST(Archive, InvalidRequestsAreStatuses) {
  const NdArray field = make_field(DType::kFloat32, {6, 10, 8});
  Buffer bytes;
  pack(field.view(), writer_config("sz", 5.0, 0.3, 2), bytes);
  ArchiveReader reader = open_ok(bytes);
  EXPECT_EQ(reader.read_chunk(99).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reader.read_range(0, 0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reader.read_range(5, 2).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reader.read_range(6, 1).status().code(), StatusCode::kInvalidArgument);

  // Backends the format cannot record are rejected at construction.
  EXPECT_FALSE(ArchiveWriter::create(writer_config("no-such-backend", 5.0, 0.3)).ok());
}

TEST(Archive, ParallelReadRangeMatchesSerial) {
  const NdArray field = make_field(DType::kFloat32, {16, 24, 18});
  Buffer bytes;
  pack(field.view(), writer_config("sz", 6.0, 0.2, 2, 4), bytes);
  ArchiveReader reader = open_ok(bytes);
  // Wide (all chunks), chunk-straddling, and single-chunk windows.
  for (const auto& [first, count] :
       {std::pair<std::size_t, std::size_t>{0, 16}, {1, 14}, {3, 7}, {4, 2}}) {
    auto serial = reader.read_range(first, count, 1);
    auto parallel = reader.read_range(first, count, 4);
    ASSERT_TRUE(serial.ok()) << serial.status().to_string();
    ASSERT_TRUE(parallel.ok()) << parallel.status().to_string();
    ASSERT_EQ(serial.value().size_bytes(), parallel.value().size_bytes());
    EXPECT_EQ(std::memcmp(serial.value().data(), parallel.value().data(),
                          serial.value().size_bytes()),
              0)
        << "range [" << first << ", " << first + count << ")";
  }
}

TEST(Archive, ZfpRateFallbackRescuesSmallChunkBand) {
  // The §VI-B.3 regression: ZFP's accuracy-mode bit-plane treads are too
  // coarse to express ρt(1±ε) on small chunks, so a small-chunk archive
  // lands far below the band.  The per-chunk fixed-rate fallback must
  // rescue the aggregate without changing the format.
  const auto hurricane = data::dataset_by_name("hurricane", data::SuiteScale::kTiny);
  const NdArray field = data::generate_field(data::field_by_name(hurricane, "TCf"), 0);
  const double target = 10.0, epsilon = 0.1;

  ArchiveWriteConfig miss = writer_config("zfp", target, epsilon, 2);
  miss.zfp_rate_fallback = false;
  Buffer missed;
  const ArchiveWriteResult miss_result = pack(field.view(), miss, missed);
  ASSERT_FALSE(miss_result.in_band)
      << "expected the fallback-less pack to miss the band (got ratio "
      << miss_result.achieved_ratio << ") — the regression fixture has drifted";

  Buffer rescued;
  const ArchiveWriteResult result =
      pack(field.view(), writer_config("zfp", target, epsilon, 2), rescued);
  EXPECT_TRUE(result.in_band) << "aggregate ratio " << result.achieved_ratio;
  EXPECT_GE(result.achieved_ratio, target * (1 - epsilon));
  EXPECT_LE(result.achieved_ratio, target * (1 + epsilon));
  EXPECT_GT(result.rate_fallback_chunks, 0u);

  // Rate-mode chunks record bound 0 in the manifest — no pointwise
  // guarantee is claimed for payloads that do not honour one — while the
  // write result still reports the tuned bound for the warm-start carry.
  ArchiveReader reader = open_ok(rescued);
  std::size_t zero_bound_entries = 0;
  for (std::size_t i = 0; i < result.chunks.size(); ++i) {
    if (result.chunks[i].rate_fallback) {
      EXPECT_EQ(reader.info().chunks[i].error_bound, 0.0) << i;
      EXPECT_GT(result.chunks[i].tuned_bound, 0.0) << i;
      ++zero_bound_entries;
    } else {
      EXPECT_GT(reader.info().chunks[i].error_bound, 0.0) << i;
    }
  }
  EXPECT_EQ(zero_bound_entries, result.rate_fallback_chunks);

  // Rate-mode chunks decode through the ordinary read path, and the rescue
  // stays deterministic across worker counts.
  auto decoded = reader.read_all();
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().shape(), field.shape());
  Buffer parallel;
  pack(field.view(), writer_config("zfp", target, epsilon, 2, 4), parallel);
  ASSERT_EQ(rescued.size(), parallel.size());
  EXPECT_EQ(std::memcmp(rescued.data(), parallel.data(), rescued.size()), 0);
}

TEST(Archive, FrozenFixturesDecodeToPinnedArrays) {
  // Read compatibility forever: every checked-in v1/v2 archive still opens
  // through the one reader, from memory and from a file (mmap and pread),
  // and decodes to the exact array the pinned CRC recorded.
  for (const testhelpers::ArchiveFixture& fixture : testhelpers::archive_fixtures()) {
    SCOPED_TRACE(fixture.name);
    const auto bytes = testhelpers::read_corpus(fixture.name);
    ASSERT_EQ(bytes.size(), fixture.file_bytes);
    EXPECT_EQ(crc32(bytes.data(), bytes.size()), fixture.file_crc);

    auto from_memory = ArchiveReader::open(bytes.data(), bytes.size());
    auto from_mmap = ArchiveReader::open(testhelpers::corpus_path(fixture.name));
    auto from_pread = ArchiveReader::open(testhelpers::corpus_path(fixture.name),
                                          archive::FileReadMode::kBuffered);
    for (auto* reader : {&from_memory, &from_mmap, &from_pread}) {
      ASSERT_TRUE(reader->ok()) << reader->status().to_string();
      const archive::ArchiveInfo& info = reader->value().info();
      EXPECT_EQ(info.version, fixture.version);
      EXPECT_EQ(info.compressor, fixture.compressor);
      EXPECT_EQ(info.dtype, fixture.dtype);
      EXPECT_EQ(info.shape, fixture.shape);
      EXPECT_EQ(info.chunk_region, fixture.chunk_region);
      EXPECT_EQ(region_bytes(info), fixture.region_bytes);
      ASSERT_EQ(reader->value().fields().size(), 1u);
      EXPECT_EQ(reader->value().fields()[0].name, archive::kDefaultFieldName);
      for (const unsigned threads : {1u, 3u}) {
        auto decoded = reader->value().read_all(threads);
        ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
        EXPECT_EQ(crc32(static_cast<const std::uint8_t*>(decoded.value().data()),
                        decoded.value().size_bytes()),
                  fixture.decoded_crc)
            << threads << " threads";
      }
    }
  }
}

TEST(Archive, FormatV1FixtureHoldsTheChunksAV3WriteEmits) {
  // The v1 fixture and a fresh v3 write of the same input differ in layout
  // and possibly in the bounds the tuner picked, never in what a chunk is:
  // each chunk of either archive is its input rows compressed at the bound
  // its manifest records, byte for byte.
  const testhelpers::ArchiveFixture& fixture = testhelpers::archive_fixtures().front();
  ASSERT_EQ(fixture.version, 1u);
  const auto v1_bytes = testhelpers::read_corpus(fixture.name);
  const NdArray field = make_field(DType::kFloat32, {8, 14, 10});
  Buffer v3_bytes;
  const ArchiveWriteResult written =
      pack(field.view(), writer_config("sz", 6.0, 0.2, 2), v3_bytes);
  EXPECT_EQ(written.format_version, 3u);

  auto v1_opened = ArchiveReader::open(v1_bytes.data(), v1_bytes.size());
  ASSERT_TRUE(v1_opened.ok()) << v1_opened.status().to_string();
  ArchiveReader v1 = std::move(v1_opened).value();
  ArchiveReader v3 = open_ok(v3_bytes);
  EXPECT_EQ(v1.info().version, 1);
  EXPECT_EQ(v3.info().version, 3);
  // v1 layout: the chunk region follows the manifest.
  EXPECT_EQ(v1.info().chunk_region,
            v1_bytes.size() - archive::kFooterBytesV1 - region_bytes(v1.info()));
  ASSERT_EQ(v1.info().chunk_count, v3.info().chunk_count);
  EXPECT_EQ(testhelpers::chunk_reproduction_mismatch(v1_bytes.data(), v1_bytes.size(), field),
            "");
  EXPECT_EQ(testhelpers::chunk_reproduction_mismatch(v3_bytes.data(), v3_bytes.size(), field),
            "");
  // And both decode within the loosest bound either records.
  for (ArchiveReader* reader : {&v1, &v3}) {
    double loosest = 0;
    for (const archive::ChunkEntry& entry : reader->info().chunks)
      loosest = std::max(loosest, entry.error_bound);
    const NdArray decoded = reader->read_all(2).value();
    EXPECT_LE(testhelpers::max_error(field, decoded), loosest * 1.0000001);
  }
}

// A user plugin delegating to sz under a name no built-in container id covers.
class SzEchoPlugin final : public pressio::Compressor {
public:
  SzEchoPlugin() : inner_(pressio::registry().create("sz")) {}
  SzEchoPlugin(const SzEchoPlugin& other) : inner_(other.inner_->clone()) {}

  std::string name() const override { return "sz-echo"; }
  pressio::Capabilities capabilities() const override {
    pressio::Capabilities c = inner_->capabilities();
    c.name = "sz-echo";
    return c;
  }
  pressio::Options get_options() const override { return inner_->get_options(); }
  void set_options(const pressio::Options& options) override { inner_->set_options(options); }
  void set_error_bound(double bound) override { inner_->set_error_bound(bound); }
  double error_bound() const override { return inner_->error_bound(); }
  Status compress_into(const ArrayView& input, Buffer& out) const noexcept override {
    return inner_->compress_into(input, out);
  }
  Status decompress_into(const std::uint8_t* data, std::size_t size,
                         NdArray& out) const noexcept override {
    return inner_->decompress_into(data, size, out);
  }
  pressio::CompressorPtr clone() const override {
    return std::make_unique<SzEchoPlugin>(*this);
  }

private:
  pressio::CompressorPtr inner_;
};

void register_sz_echo() {
  if (!pressio::registry().contains("sz-echo"))
    pressio::registry().register_factory("sz-echo",
                                         [] { return std::make_unique<SzEchoPlugin>(); });
}

TEST(Archive, PluginBackendRoundTripsByName) {
  register_sz_echo();
  const NdArray field = make_field(DType::kFloat32, {6, 12, 10});
  Buffer bytes;
  pack(field.view(), writer_config("sz-echo", 6.0, 0.2, 2), bytes);

  ArchiveReader reader = open_ok(bytes);
  EXPECT_EQ(reader.info().version, 3);
  EXPECT_EQ(reader.info().compressor, "sz-echo");
  auto decoded = reader.read_all(2);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().shape(), field.shape());
}

}  // namespace
}  // namespace fraz
