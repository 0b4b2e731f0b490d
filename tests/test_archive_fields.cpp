/// Push-based ingestion sessions and v3 multi-field archives: the byte-
/// identity gates (write(ArrayView) vs pinned v3 golden CRCs whose chunk
/// regions equal the frozen v2 fixtures', plane-by-plane push vs whole-array
/// write at any worker count), the streamed-input memory bound, the v3 field
/// table round trip (mixed dtypes, per-field reads, truncation at every
/// boundary), and the session-misuse error surface.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "archive/archive.hpp"
#include "codec/checksum.hpp"
#include "test_helpers.hpp"

namespace fraz {
namespace {

using archive::ArchiveReader;
using archive::ArchiveWriter;
using archive::ArchiveWriteConfig;
using archive::ArchiveWriteResult;
using archive::FieldDesc;
using archive::FieldSession;
using archive::FieldWriteReport;
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

FieldDesc desc_of(const NdArray& field, std::size_t chunk_extent = 0) {
  FieldDesc desc;
  desc.dtype = field.dtype();
  desc.shape = field.shape();
  desc.chunk_extent = chunk_extent;
  return desc;
}

/// View of planes [first, first + count) of a field (slab to push).
ArrayView planes_of(const NdArray& field, std::size_t first, std::size_t count) {
  const std::size_t plane_bytes = field.size_bytes() / field.shape()[0];
  Shape slab_shape = field.shape();
  slab_shape[0] = count;
  return ArrayView(static_cast<const std::uint8_t*>(field.data()) + first * plane_bytes,
                   field.dtype(), std::move(slab_shape));
}

/// Push a whole field through \p session in slabs of \p slab_planes.
void push_all(FieldSession& session, const NdArray& field, std::size_t slab_planes) {
  const std::size_t n0 = field.shape()[0];
  for (std::size_t first = 0; first < n0; first += slab_planes) {
    const std::size_t count = std::min(slab_planes, n0 - first);
    const Status s = session.push(planes_of(field, first, count));
    ASSERT_TRUE(s.ok()) << s.to_string();
  }
}

class TempFiles {
public:
  ~TempFiles() {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }
  std::string make(const std::string& name) {
    paths_.push_back("fraz_test_fields_" + name + ".tmp");
    return paths_.back();
  }

private:
  std::vector<std::string> paths_;
};

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(is.good()) << path;
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(is.tellg()));
  is.seekg(0);
  is.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void dump(const std::string& path, const std::uint8_t* data, std::size_t size) {
  std::ofstream os(path, std::ios::binary);
  os.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(size));
  ASSERT_TRUE(os.good()) << path;
}

/// Write \p field through \p writer and check the single-field v3 archive
/// against its pinned size and CRC.  Every chunk must be its input rows
/// compressed at its recorded bound — in the fresh write and in the frozen v2
/// archive \p v2_fixture wrote for the same input, which pins the fixture to
/// the compressor without depending on which bounds the tuner picks.
void expect_v3_golden(ArchiveWriter& writer, const NdArray& field,
                      const std::string& v2_fixture, std::size_t size, std::uint32_t crc) {
  Buffer out;
  const auto written = writer.write(field.view(), out);
  ASSERT_TRUE(written.ok()) << written.status().to_string();
  EXPECT_EQ(written.value().format_version, 3u);
  EXPECT_TRUE(written.value().in_band) << written.value().achieved_ratio;
  EXPECT_EQ(out.size(), size);
  EXPECT_EQ(crc32(out.data(), out.size()), crc);
  EXPECT_EQ(testhelpers::chunk_reproduction_mismatch(out.data(), out.size(), field), "");

  const testhelpers::ArchiveFixture& v2 = testhelpers::archive_fixture(v2_fixture);
  const auto v2_bytes = testhelpers::read_corpus(v2.name);
  ASSERT_EQ(v2_bytes.size(), v2.file_bytes);
  EXPECT_EQ(testhelpers::chunk_reproduction_mismatch(v2_bytes.data(), v2_bytes.size(), field),
            "")
      << v2.name;
}

TEST(ArchiveFields, WriteMatchesPinnedV3GoldenBytes) {
  // The regression gate on the write path: write(ArrayView) — one push
  // session — produces these exact single-field v3 archives, in band.  The
  // pins move only when the tuner picks different bounds: local refinement
  // of missed warm bounds re-pinned the sz pair (was 3465 B / 0x211e6bb9 and
  // 3438 B / 0x14595347; the zfp archive did not move).  The frozen v2
  // goldens of the same inputs stay pinned by their file CRCs, and every
  // chunk of both is its input compressed at its recorded bound.
  {
    const NdArray field = make_field(DType::kFloat32, {24, 16, 12});
    ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 2, 2));
    expect_v3_golden(writer, field, "archive_format/v2_sz_f32_step0.fraz", 3465u,
                     0x74a3e6d0u);
    // A drifted second step through the SAME writer exercises the carried
    // warm bounds — the cross-write warm path must stay byte-identical too.
    const NdArray step1 = make_field(DType::kFloat32, {24, 16, 12}, 51.0);
    expect_v3_golden(writer, step1, "archive_format/v2_sz_f32_step1.fraz", 3467u,
                     0x9d94aae6u);
  }
  {
    const NdArray field = make_field(DType::kFloat64, {12, 20, 14});
    ArchiveWriter writer(writer_config("zfp", 8.0, 0.2, 3, 1));
    expect_v3_golden(writer, field, "archive_format/v2_zfp_f64.fraz", 3534u, 0xed1c46a0u);
  }
}

TEST(ArchiveFields, PlaneByPlanePushMatchesWholeArrayWrite) {
  // The tentpole contract: a field pushed plane by plane (or in any slab
  // granularity) produces bit-identical archives to the whole-array write,
  // at any worker count — the slab boundaries never reach the wire.
  const NdArray field = make_field(DType::kFloat32, {24, 16, 12});
  Buffer whole;
  ArchiveWriter(writer_config("sz", 6.0, 0.2, 2, 1)).write(field.view(), whole).value();

  for (const unsigned threads : {1u, 4u}) {
    for (const std::size_t slab_planes : {std::size_t{1}, std::size_t{3}, std::size_t{24}}) {
      ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 2, threads));
      Buffer pushed;
      ASSERT_TRUE(writer.begin(pushed).ok());
      auto session = writer.open_field(archive::kDefaultFieldName, desc_of(field, 2));
      ASSERT_TRUE(session.ok()) << session.status().to_string();
      push_all(session.value(), field, slab_planes);
      ASSERT_TRUE(session.value().close().ok());
      ASSERT_TRUE(writer.finish().ok());
      ASSERT_EQ(pushed.size(), whole.size()) << threads << "x" << slab_planes;
      EXPECT_EQ(std::memcmp(pushed.data(), whole.data(), whole.size()), 0)
          << "push(" << slab_planes << " planes) at " << threads
          << " workers diverged from write()";
    }
  }
}

TEST(ArchiveFields, StreamedInputResidencyIsChunkRowBounded) {
  // The memory claim of the ISSUE: pushing a field plane by plane never
  // materializes it — the writer owns at most (workers + 2) chunk rows of
  // raw input (window rows in flight plus the staging row).
  TempFiles tmp;
  const NdArray field = make_field(DType::kFloat32, {64, 24, 16});
  const std::size_t row_bytes = 2 * (field.size_bytes() / 64);  // extent 2
  for (const unsigned threads : {1u, 4u}) {
    ArchiveWriter writer(writer_config("sz", 8.0, 0.2, 2, threads));
    const std::string path = tmp.make("residency_" + std::to_string(threads));
    ASSERT_TRUE(writer.begin(path).ok());
    auto session = writer.open_field("stream", desc_of(field, 2));
    ASSERT_TRUE(session.ok()) << session.status().to_string();
    push_all(session.value(), field, 1);  // one plane at a time
    ASSERT_TRUE(session.value().close().ok());
    auto finished = writer.finish();
    ASSERT_TRUE(finished.ok()) << finished.status().to_string();
    const ArchiveWriteResult& result = finished.value();
    EXPECT_GT(result.peak_staged_bytes, 0u);
    EXPECT_LE(result.peak_staged_bytes, (threads + 2) * row_bytes)
        << "input residency exceeded the chunk-row window at " << threads << " workers";
    EXPECT_LT(result.peak_staged_bytes, result.raw_bytes / 4)
        << "input residency is not o(field)";
    EXPECT_LE(result.peak_buffered_chunks, static_cast<std::size_t>(threads) + 1);
    // And the streamed file is readable.
    auto reader = ArchiveReader::open(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.value().read_all(threads).value().shape(), field.shape());
  }
}

TEST(ArchiveFields, MultiFieldMixedDtypeRoundTripBothTransports) {
  // A v3 archive holding an f32 and an f64 field round-trips per-field
  // reads through both transports, and its bytes are identical at 1..N
  // workers and across transports.
  TempFiles tmp;
  const NdArray temp = make_field(DType::kFloat32, {24, 16, 12});
  const NdArray press = make_field(DType::kFloat64, {12, 20, 14}, 30.0);

  auto build = [&](unsigned threads, Buffer& out) {
    ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 0, threads));
    ASSERT_TRUE(writer.begin(out).ok());
    auto t = writer.open_field("temp", desc_of(temp, 2));
    ASSERT_TRUE(t.ok());
    push_all(t.value(), temp, 5);
    ASSERT_TRUE(t.value().close().ok());
    auto p = writer.open_field("press", desc_of(press, 3));
    ASSERT_TRUE(p.ok());
    push_all(p.value(), press, 12);
    const auto report = p.value().close();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().name, "press");
    EXPECT_EQ(report.value().chunk_count, 4u);
    auto finished = writer.finish();
    ASSERT_TRUE(finished.ok()) << finished.status().to_string();
    EXPECT_EQ(finished.value().format_version, 3u);
    EXPECT_EQ(finished.value().fields.size(), 2u);
    EXPECT_EQ(finished.value().raw_bytes, temp.size_bytes() + press.size_bytes());
  };

  Buffer bytes_1, bytes_4;
  build(1, bytes_1);
  build(4, bytes_4);
  ASSERT_EQ(bytes_1.size(), bytes_4.size());
  EXPECT_EQ(std::memcmp(bytes_1.data(), bytes_4.data(), bytes_1.size()), 0)
      << "worker count changed the v3 archive bytes";

  // File sink: the same fields pushed through path-backed sessions.
  const std::string path = tmp.make("mixed");
  {
    ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 0, 4));
    ASSERT_TRUE(writer.begin(path).ok());
    auto t = writer.open_field("temp", desc_of(temp, 2));
    ASSERT_TRUE(t.ok());
    push_all(t.value(), temp, 24);
    ASSERT_TRUE(t.value().close().ok());
    auto p = writer.open_field("press", desc_of(press, 3));
    ASSERT_TRUE(p.ok());
    push_all(p.value(), press, 1);
    ASSERT_TRUE(p.value().close().ok());
    ASSERT_TRUE(writer.finish().ok());
  }
  const auto file_bytes = slurp(path);
  ASSERT_EQ(file_bytes.size(), bytes_1.size());
  EXPECT_EQ(std::memcmp(file_bytes.data(), bytes_1.data(), file_bytes.size()), 0)
      << "file-backed v3 pack differs from the in-memory pack";

  // Per-field reads through both readers.
  auto memory_reader = ArchiveReader::open(bytes_1.data(), bytes_1.size());
  ASSERT_TRUE(memory_reader.ok()) << memory_reader.status().to_string();
  auto file_reader = ArchiveReader::open(path);
  ASSERT_TRUE(file_reader.ok()) << file_reader.status().to_string();

  ASSERT_EQ(memory_reader.value().fields().size(), 2u);
  EXPECT_EQ(memory_reader.value().fields()[0].name, "temp");
  EXPECT_EQ(memory_reader.value().fields()[1].name, "press");
  EXPECT_EQ(memory_reader.value().fields()[1].dtype, DType::kFloat64);
  EXPECT_GT(memory_reader.value().fields()[1].payload_ratio, 0.0);

  const NdArray temp_mem = memory_reader.value().read_all("temp", 2).value();
  const NdArray press_mem = memory_reader.value().read_all("press").value();
  EXPECT_EQ(temp_mem.shape(), temp.shape());
  EXPECT_EQ(press_mem.shape(), press.shape());
  const NdArray temp_file = file_reader.value().read_all("temp").value();
  const NdArray press_file = file_reader.value().read_all("press", 3).value();
  ASSERT_EQ(temp_file.size_bytes(), temp_mem.size_bytes());
  EXPECT_EQ(std::memcmp(temp_file.data(), temp_mem.data(), temp_mem.size_bytes()), 0);
  ASSERT_EQ(press_file.size_bytes(), press_mem.size_bytes());
  EXPECT_EQ(std::memcmp(press_file.data(), press_mem.data(), press_mem.size_bytes()), 0);

  // Per-field read_range: planes 5..12 of 'press' must equal that slice of
  // its full reconstruction, through both transports and thread counts.
  const std::size_t press_plane = press.size_bytes() / press.shape()[0];
  for (const unsigned threads : {1u, 3u}) {
    auto range = memory_reader.value().read_range("press", 5, 7, threads);
    ASSERT_TRUE(range.ok()) << range.status().to_string();
    EXPECT_EQ(std::memcmp(range.value().data(),
                          static_cast<const std::uint8_t*>(press_mem.data()) +
                              5 * press_plane,
                          range.value().size_bytes()),
              0);
    auto file_range = file_reader.value().read_range("press", 5, 7, threads);
    ASSERT_TRUE(file_range.ok());
    EXPECT_EQ(std::memcmp(file_range.value().data(), range.value().data(),
                          range.value().size_bytes()),
              0);
  }

  // Unknown fields are invalid-argument, not corruption.
  auto missing = memory_reader.value().read_all("vorticity");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);

  // A decode through the old unnamed API serves field 0.
  const NdArray first = memory_reader.value().read_all().value();
  EXPECT_EQ(std::memcmp(first.data(), temp_mem.data(), temp_mem.size_bytes()), 0);
}

TEST(ArchiveFields, MultiFieldTruncationAtEveryBoundaryFailsOpen) {
  // The v1/v2 truncation sweep, extended to the v3 layout: cutting inside
  // any chunk of any field, at the field-table boundaries, or inside the
  // footer must fail open() with CorruptStream — never crash, never
  // half-open.
  TempFiles tmp;
  const NdArray temp = make_field(DType::kFloat32, {8, 12, 10});
  const NdArray press = make_field(DType::kFloat64, {6, 10, 8}, 20.0);
  const std::string path = tmp.make("truncate");
  ArchiveWriteResult result;
  {
    ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 2, 2));
    ASSERT_TRUE(writer.begin(path).ok());
    for (const NdArray* field : {&temp, &press}) {
      auto session = writer.open_field(field == &temp ? "temp" : "press",
                                       desc_of(*field, 2));
      ASSERT_TRUE(session.ok());
      push_all(session.value(), *field, 2);
      ASSERT_TRUE(session.value().close().ok());
    }
    auto finished = writer.finish();
    ASSERT_TRUE(finished.ok());
    result = std::move(finished).value();
  }
  const auto bytes = slurp(path);
  ASSERT_EQ(bytes.size(), result.archive_bytes);

  std::vector<std::size_t> boundaries{0, 5};
  // After every chunk of every field (entry offsets are absolute).
  for (const auto& chunk : result.chunks)
    boundaries.push_back(chunk.entry.offset + chunk.entry.size);
  const std::size_t manifest_end = bytes.size() - archive::kFooterBytes;
  boundaries.push_back(manifest_end);      // field table complete, footer missing
  boundaries.push_back(manifest_end - 1);  // inside the field table
  boundaries.push_back(bytes.size() - 1);  // mid-footer
  boundaries.push_back(bytes.size() / 2);

  const std::string cut = tmp.make("truncate_cut");
  for (const std::size_t keep : boundaries) {
    ASSERT_LT(keep, bytes.size());
    dump(cut, bytes.data(), keep);
    auto reader = ArchiveReader::open(cut);
    ASSERT_FALSE(reader.ok()) << "opened a " << keep << "-byte truncation";
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruptStream) << keep;
  }
}

TEST(ArchiveFields, CorruptChunkFailsOnlyItsOwnField) {
  // Chunk CRC isolation across fields: flipping a bit in one field's chunk
  // fails exactly the reads that touch it; the sibling field stays readable.
  const NdArray temp = make_field(DType::kFloat32, {8, 12, 10});
  const NdArray press = make_field(DType::kFloat64, {6, 10, 8}, 20.0);
  Buffer bytes;
  ArchiveWriteResult result;
  {
    ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 2, 1));
    ASSERT_TRUE(writer.begin(bytes).ok());
    auto t = writer.open_field("temp", desc_of(temp, 2));
    ASSERT_TRUE(t.ok());
    push_all(t.value(), temp, 8);
    ASSERT_TRUE(t.value().close().ok());
    auto p = writer.open_field("press", desc_of(press, 2));
    ASSERT_TRUE(p.ok());
    push_all(p.value(), press, 6);
    ASSERT_TRUE(p.value().close().ok());
    result = writer.finish().value();
  }
  // Victim: the second field's second chunk (absolute offset in the region).
  const auto& victim = result.fields[1].chunks[1].entry;
  bytes.data()[victim.offset + victim.size / 2] ^= 0x40;

  auto reader = ArchiveReader::open(bytes.data(), bytes.size());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.value().read_all("temp", 2).ok());
  EXPECT_TRUE(reader.value().read_chunk("press", 0).ok());
  auto corrupted = reader.value().read_chunk("press", 1);
  ASSERT_FALSE(corrupted.ok());
  EXPECT_EQ(corrupted.status().code(), StatusCode::kCorruptStream);
  EXPECT_FALSE(reader.value().read_all("press").ok());
  EXPECT_TRUE(reader.value().read_range("press", 4, 2, 2).ok());  // chunk 2 only
}

TEST(ArchiveFields, FieldsWarmStartIndependentlyAcrossBuilds) {
  // Per-field warm keys: a second build of the same two fields through the
  // same writer reuses each field's own carried bounds — no retraining.
  const NdArray temp0 = make_field(DType::kFloat32, {8, 16, 12}, 50.0);
  const NdArray temp1 = make_field(DType::kFloat32, {8, 16, 12}, 51.0);
  const NdArray press0 = make_field(DType::kFloat64, {6, 10, 8}, 20.0);
  const NdArray press1 = make_field(DType::kFloat64, {6, 10, 8}, 20.2);

  ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 2, 2));
  auto build = [&](const NdArray& temp, const NdArray& press, Buffer& out,
                   ArchiveWriteResult& result) {
    ASSERT_TRUE(writer.begin(out).ok());
    auto t = writer.open_field("temp", desc_of(temp, 2));
    ASSERT_TRUE(t.ok());
    push_all(t.value(), temp, 3);
    ASSERT_TRUE(t.value().close().ok());
    auto p = writer.open_field("press", desc_of(press, 2));
    ASSERT_TRUE(p.ok());
    push_all(p.value(), press, 2);
    ASSERT_TRUE(p.value().close().ok());
    auto finished = writer.finish();
    ASSERT_TRUE(finished.ok()) << finished.status().to_string();
    result = std::move(finished).value();
  };

  Buffer step0, step1;
  ArchiveWriteResult r0, r1;
  build(temp0, press0, step0, r0);
  build(temp1, press1, step1, r1);
  EXPECT_EQ(r1.retrained_chunks, 0u)
      << "mildly drifting fields should reuse their carried per-field bounds";
  const std::size_t total_chunks =
      r1.fields[0].chunk_count + r1.fields[1].chunk_count;
  EXPECT_EQ(r1.warm_chunks, total_chunks);
}

TEST(ArchiveFields, SessionMisuseSurfacesAsStatuses) {
  const NdArray field = make_field(DType::kFloat32, {8, 12, 10});
  ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 2, 1));
  Buffer out;

  // open_field before begin.
  auto no_build = writer.open_field("x", desc_of(field));
  ASSERT_FALSE(no_build.ok());
  EXPECT_EQ(no_build.status().code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(writer.begin(out).ok());
  // Double begin.
  Buffer other;
  EXPECT_FALSE(writer.begin(other).ok());
  // write() while a build is active.
  EXPECT_FALSE(writer.write(field.view(), other).ok());

  auto session = writer.open_field("x", desc_of(field, 2));
  ASSERT_TRUE(session.ok());
  // Second open while one is active.
  auto second = writer.open_field("y", desc_of(field, 2));
  ASSERT_FALSE(second.ok());
  // finish() with an open field fails but keeps the build alive.
  EXPECT_FALSE(writer.finish().ok());

  // Wrong dtype, wrong plane shape, oversized slab.
  const NdArray wrong_dtype = make_field(DType::kFloat64, {2, 12, 10});
  EXPECT_EQ(session.value().push(wrong_dtype.view()).code(),
            StatusCode::kInvalidArgument);
  const NdArray wrong_plane = make_field(DType::kFloat32, {2, 11, 10});
  EXPECT_EQ(session.value().push(wrong_plane.view()).code(),
            StatusCode::kInvalidArgument);
  const NdArray too_many = make_field(DType::kFloat32, {9, 12, 10});
  EXPECT_EQ(session.value().push(too_many.view()).code(),
            StatusCode::kInvalidArgument);

  // Premature close reports the missing planes and stays open.
  ASSERT_TRUE(session.value().push(planes_of(field, 0, 3)).ok());
  auto early = session.value().close();
  ASSERT_FALSE(early.ok());
  EXPECT_NE(early.status().message().find("3 of 8"), std::string::npos)
      << early.status().message();
  ASSERT_TRUE(session.value().push(planes_of(field, 3, 5)).ok());
  ASSERT_TRUE(session.value().close().ok());

  // Duplicate field name within one build.
  auto duplicate = writer.open_field("x", desc_of(field, 2));
  ASSERT_FALSE(duplicate.ok());
  EXPECT_NE(duplicate.status().message().find("duplicate"), std::string::npos);

  ASSERT_TRUE(writer.finish().ok());
  // The archive opens and holds exactly field "x".
  auto reader = ArchiveReader::open(out.data(), out.size());
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  ASSERT_EQ(reader.value().fields().size(), 1u);
  EXPECT_EQ(reader.value().fields()[0].name, "x");

  // A session outliving its build degrades to "closed" errors, not UB.
  Buffer abandoned;
  ASSERT_TRUE(writer.begin(abandoned).ok());
  auto stale = writer.open_field("stale", desc_of(field, 2));
  ASSERT_TRUE(stale.ok());
  writer.cancel();
  EXPECT_FALSE(stale.value().open());
  EXPECT_EQ(stale.value().push(planes_of(field, 0, 1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(stale.value().close().ok());
}

TEST(ArchiveFields, V2ArchivesPresentOneSynthesizedField) {
  // Old single-field archives surface through the field API under the
  // default name, so multi-field consumers need no version branches.
  for (const testhelpers::ArchiveFixture& fixture : testhelpers::archive_fixtures()) {
    if (fixture.version != 2) continue;
    SCOPED_TRACE(fixture.name);
    const auto bytes = testhelpers::read_corpus(fixture.name);
    auto reader = ArchiveReader::open(bytes.data(), bytes.size());
    ASSERT_TRUE(reader.ok()) << reader.status().to_string();
    ASSERT_EQ(reader.value().fields().size(), 1u);
    const archive::FieldInfo& info = reader.value().fields()[0];
    EXPECT_EQ(info.name, archive::kDefaultFieldName);
    EXPECT_EQ(info.shape, fixture.shape);
    EXPECT_GT(info.payload_ratio, 0.0);
    const NdArray by_name = reader.value().read_all(archive::kDefaultFieldName).value();
    const NdArray by_index = reader.value().read_all().value();
    ASSERT_EQ(by_name.size_bytes(), by_index.size_bytes());
    EXPECT_EQ(std::memcmp(by_name.data(), by_index.data(), by_index.size_bytes()), 0);
  }
}

}  // namespace
}  // namespace fraz
