/// fraz — command-line front end for the FRaZ fixed-ratio compression stack.
///
/// Subcommands (first positional argument):
///   tune        find the error bound for a target ratio on a raw binary file
///               (--json emits the result machine-readably)
///   quality     find the most aggressive bound meeting a PSNR/SSIM floor
///               (the paper's §VII quality-target extension)
///   compress    compress a raw binary file at a given bound (or tune first)
///   decompress  reconstruct a raw binary file from a .fraz archive
///   inspect     print header metadata of a .fraz archive
///   pack        shard a raw binary file into a chunked, seekable archive
///               compressed in parallel at the target aggregate ratio
///               (exit 0 = aggregate ratio in the band, 2 = out of band,
///               mirroring `tune`'s feasible/closest exit codes).  Repeat
///               --field NAME=PATH[:DIMS[:DTYPE]] to stream several named
///               fields into one v3 multi-field archive — each field is
///               pushed through an ingestion session in chunk-row slabs, so
///               no field is ever fully resident
///   unpack      reconstruct raw data from a chunked archive (whole field,
///               --chunk i, or --range a:b over the slowest axis; --field
///               NAME selects a field of a multi-field archive)
///   info        print a chunked archive's manifest, field table, chunk
///               index, and footer (--json emits the record machine-readably)
///   serve       map a chunked archive once and answer line-delimited read
///               requests (GET field first count, CHUNK field i, INFO,
///               STATS) over stdin/stdout or --port, with a shared
///               decoded-chunk cache and sequential readahead
///   backends    list registered backends with their capabilities
///               (--json emits machine-readable capability records)
///
/// tune/compress/decompress run through the fraz::Engine facade — the same
/// object a service embeds — so the CLI exercises the supported API surface
/// instead of hand-wiring registry + tuner.
///
/// Raw files are flat little-endian scalar dumps (the SDRBench layout);
/// shape and dtype come from --dims / --dtype, exactly as the benchmark
/// distributes them.
///
/// Examples:
///   fraz tune --input CLOUDf48.bin --dims 100x500x500 --dtype f32
///             --compressor sz --target 10
///   fraz compress --input CLOUDf48.bin --dims 100x500x500 --dtype f32
///             --compressor sz --target 10 --output CLOUDf48.fraz
///   fraz decompress --input CLOUDf48.fraz --compressor sz --output out.bin
///   fraz inspect --input CLOUDf48.fraz

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive.hpp"
#include "core/quality_tuner.hpp"
#include "core/serialize.hpp"
#include "core/tuner.hpp"
#include "engine/engine.hpp"
#include "metrics/error_stats.hpp"
#include "ndarray/io.hpp"
#include "pressio/evaluate.hpp"
#include "pressio/registry.hpp"
#include "serve/reader_pool.hpp"
#include "serve/server.hpp"
#include "telemetry/telemetry.hpp"
#include "util/buffer.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/seed.hpp"

namespace {

using namespace fraz;

/// Parse "100x500x500" into a Shape.
Shape parse_dims(const std::string& spec) {
  Shape shape;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t consumed = 0;
    const unsigned long long extent = std::stoull(spec.substr(pos), &consumed);
    require(consumed > 0 && extent > 0, "bad --dims component in '" + spec + "'");
    shape.push_back(static_cast<std::size_t>(extent));
    pos += consumed;
    if (pos < spec.size()) {
      require(spec[pos] == 'x', "--dims must look like 100x500x500");
      ++pos;
    }
  }
  require(!shape.empty() && shape.size() <= 3, "--dims must have 1..3 extents");
  return shape;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw IoError("cannot open '" + path + "'");
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(is.tellg()));
  is.seekg(0);
  is.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  if (!is) throw IoError("short read from '" + path + "'");
  return bytes;
}

void write_file(const std::string& path, const std::uint8_t* data, std::size_t size) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw IoError("cannot open '" + path + "' for writing");
  os.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(size));
  if (!os) throw IoError("write failed for '" + path + "'");
}

/// Shared Engine construction from the common flags.
Engine make_engine(const Cli& cli) {
  EngineConfig config;
  config.compressor = cli.get_string("compressor");
  config.tuner.target_ratio = cli.get_double("target");
  config.tuner.epsilon = cli.get_double("epsilon");
  config.tuner.max_error_bound = cli.get_double("max-bound");
  config.tuner.regions = static_cast<int>(cli.get_int("regions"));
  config.tuner.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  auto engine = Engine::create(std::move(config));
  if (!engine.ok()) throw_status(engine.status());
  return std::move(engine).value();
}

/// Render one backend's capability record as a JSON object.
std::string capabilities_json(const pressio::Compressor& c) {
  const pressio::Capabilities caps = c.capabilities();
  JsonWriter w;
  w.begin_object()
      .field("name", caps.name)
      .field("version", caps.version)
      .field("min_dims", caps.min_dims)
      .field("max_dims", caps.max_dims)
      .field("f32", caps.supports_f32)
      .field("f64", caps.supports_f64)
      .field("thread_safe", caps.thread_safe)
      .field("deterministic", caps.deterministic)
      .field("error_bounded", caps.error_bounded)
      .field("lossless", caps.lossless)
      .field("blocked_mode", caps.blocked_mode)
      .key("options")
      .begin_array();
  for (const auto& key : c.get_options().keys()) w.value(key);
  w.end_array().end_object();
  return std::move(w).str();
}

int cmd_backends(int argc, const char* const* argv) {
  Cli cli("fraz backends");
  cli.add_flag("json", "emit capability records as a JSON array");
  if (!cli.parse(argc, argv)) return 0;

  if (cli.get_flag("json")) {
    std::string out = "[";
    bool first = true;
    for (const auto& name : pressio::registry().names()) {
      if (!first) out += ",";
      out += capabilities_json(*pressio::registry().create(name));
      first = false;
    }
    out += "]";
    std::printf("%s\n", out.c_str());
    return 0;
  }

  std::printf("%-10s %-8s %-6s %-5s %-5s %-12s %-14s %s\n", "backend", "version", "dims",
              "f32", "f64", "error_bound", "deterministic", "options");
  for (const auto& name : pressio::registry().names()) {
    auto c = pressio::registry().create(name);
    const pressio::Capabilities caps = c->capabilities();
    std::string options;
    for (const auto& key : c->get_options().keys()) {
      if (!options.empty()) options += " ";
      options += key;
    }
    std::printf("%-10s %-8s %zu..%zu   %-5s %-5s %-12s %-14s %s\n", caps.name.c_str(),
                caps.version.c_str(), caps.min_dims, caps.max_dims,
                caps.supports_f32 ? "yes" : "no", caps.supports_f64 ? "yes" : "no",
                caps.error_bounded ? "yes" : "no", caps.deterministic ? "yes" : "no",
                options.c_str());
  }
  return 0;
}

int cmd_tune(const Cli& cli) {
  const NdArray field = read_raw(cli.get_string("input"),
                                 dtype_from_name(cli.get_string("dtype")),
                                 parse_dims(cli.get_string("dims")));
  Engine engine = make_engine(cli);
  const auto tuned = engine.tune(cli.get_string("input"), field.view());
  if (!tuned.ok()) throw_status(tuned.status());
  const TuneResult& r = tuned.value();

  if (cli.get_flag("json")) {
    // to_json(r) carries the per-tune probe counters; wrap it with the
    // engine-level aggregates and the registry snapshot so bench
    // trajectories can track tuning cost.
    std::string out = to_json(r);
    out.pop_back();  // strip the closing '}' to append engine counters
    out += ",\"tuner_probe_calls\":" + std::to_string(engine.stats().tuner_probe_calls);
    out += ",\"engine_probe_cache_hits\":" + std::to_string(engine.stats().probe_cache_hits);
    out += ",\"telemetry\":" + telemetry::global().to_json();
    out += "}";
    std::printf("%s\n", out.c_str());
  } else {
    std::printf("compressor      %s\n", engine.compressor_name().c_str());
    std::printf("target ratio    %.3f (epsilon %.3f)\n", engine.config().tuner.target_ratio,
                engine.config().tuner.epsilon);
    std::printf("error bound     %.9g\n", r.error_bound);
    std::printf("achieved ratio  %.3f\n", r.achieved_ratio);
    std::printf("feasible        %s\n", r.feasible ? "yes" : "no (closest reported)");
    std::printf("compress calls  %d (%d cache hits, %d executed) in %.2fs\n",
                r.compress_calls, r.probe_cache_hits,
                r.compress_calls - r.probe_cache_hits, r.seconds);
  }
  return r.feasible ? 0 : 2;
}

int cmd_quality(const Cli& cli) {
  const NdArray field = read_raw(cli.get_string("input"),
                                 dtype_from_name(cli.get_string("dtype")),
                                 parse_dims(cli.get_string("dims")));
  auto compressor = pressio::registry().create(cli.get_string("compressor"));

  QualityTunerConfig config;
  const std::string metric = cli.get_string("metric");
  if (metric == "psnr")
    config.metric = QualityMetric::kPsnrDb;
  else if (metric == "ssim")
    config.metric = QualityMetric::kSsim;
  else
    throw InvalidArgument("--metric must be psnr or ssim");
  config.quality_floor = cli.get_double("floor");
  const QualityTuneResult r = tune_for_quality(*compressor, field.view(), config);

  std::printf("metric floor    %s >= %.4g\n", metric.c_str(), config.quality_floor);
  if (!r.met_floor) {
    std::printf("no error bound meets the floor within the search range\n");
    return 2;
  }
  std::printf("error bound     %.9g\n", r.error_bound);
  std::printf("quality         %.4g\n", r.quality);
  std::printf("achieved ratio  %.3f\n", r.achieved_ratio);
  std::printf("evaluations     %d\n", r.evaluations);
  return 0;
}

int cmd_compress(const Cli& cli) {
  const NdArray field = read_raw(cli.get_string("input"),
                                 dtype_from_name(cli.get_string("dtype")),
                                 parse_dims(cli.get_string("dims")));
  Engine engine = make_engine(cli);

  double bound = cli.get_double("bound");
  Buffer archive;
  if (bound > 0) {
    const Status s = engine.compress_at(bound, field.view(), archive);
    if (!s.ok()) throw_status(s);
  } else {
    // No explicit bound: tune for the target ratio first (cached inside the
    // Engine, so repeated invocations in one process warm-start).
    const auto tuned = engine.tune(cli.get_string("input"), field.view());
    if (!tuned.ok()) throw_status(tuned.status());
    bound = tuned.value().error_bound;
    std::printf("tuned bound %.9g (ratio %.3f, %s)\n", bound,
                tuned.value().achieved_ratio, tuned.value().feasible ? "in band" : "closest");
    const Status s = engine.compress_at(bound, field.view(), archive);
    if (!s.ok()) throw_status(s);
  }
  write_file(cli.get_string("output"), archive.data(), archive.size());

  if (cli.get_flag("verify")) {
    const auto decoded = engine.decompress(archive.data(), archive.size());
    if (!decoded.ok()) throw_status(decoded.status());
    const ErrorStats stats = error_stats(field.view(), decoded.value().view());
    std::printf("verify: max error %.6g (bound %.6g) psnr %.1f dB\n", stats.max_abs_error,
                bound, stats.psnr_db);
    require(stats.max_abs_error <= bound, "bound violated — archive NOT trustworthy");
  }
  std::printf("wrote %s: %zu -> %zu bytes (ratio %.3f)\n", cli.get_string("output").c_str(),
              field.size_bytes(), archive.size(),
              static_cast<double>(field.size_bytes()) / static_cast<double>(archive.size()));
  return 0;
}

int cmd_decompress(const Cli& cli) {
  const auto archive = read_file(cli.get_string("input"));
  Engine engine = make_engine(cli);
  const auto decoded = engine.decompress(archive.data(), archive.size());
  if (!decoded.ok()) throw_status(decoded.status());
  write_raw(cli.get_string("output"), decoded.value().view());
  std::printf("wrote %s: %zu values (%s", cli.get_string("output").c_str(),
              decoded.value().elements(), dtype_name(decoded.value().dtype()).c_str());
  for (std::size_t d : decoded.value().shape()) std::printf(" x%zu", d);
  std::printf(")\n");
  return 0;
}

int cmd_inspect(const Cli& cli) {
  const auto archive = read_file(cli.get_string("input"));
  // Probe every registered backend; the V2 Status API makes "produced by a
  // different backend" an ordinary value instead of exception control flow.
  for (const auto& name : pressio::registry().names()) {
    auto compressor = pressio::registry().create(name);
    NdArray decoded;
    const Status s = compressor->decompress_into(archive.data(), archive.size(), decoded);
    if (s.code() == StatusCode::kUnsupported) continue;  // different backend
    if (!s.ok()) throw_status(s);
    std::printf("compressor  %s\n", name.c_str());
    std::printf("dtype       %s\n", dtype_name(decoded.dtype()).c_str());
    std::printf("shape      ");
    for (std::size_t d : decoded.shape()) std::printf(" %zu", d);
    std::printf("\nvalues      %zu\n", decoded.elements());
    std::printf("ratio       %.3f\n", static_cast<double>(decoded.size_bytes()) /
                                          static_cast<double>(archive.size()));
    return 0;
  }
  std::fprintf(stderr, "no registered backend accepts this archive\n");
  return 1;
}

/// Parse "--range a:b" (half-open plane interval) into first/count.
void parse_range(const std::string& spec, std::size_t& first, std::size_t& count) {
  const std::size_t colon = spec.find(':');
  require(colon != std::string::npos && colon > 0 && colon + 1 < spec.size() &&
              spec.find_first_not_of("0123456789:") == std::string::npos &&
              spec.find(':', colon + 1) == std::string::npos,
          "--range must look like first:end (half-open, slowest axis)");
  try {
    first = static_cast<std::size_t>(std::stoull(spec.substr(0, colon)));
    count = static_cast<std::size_t>(std::stoull(spec.substr(colon + 1)));
  } catch (const std::exception&) {
    throw InvalidArgument("--range bounds do not fit in an integer: '" + spec + "'");
  }
  require(count > first, "--range end must exceed its start");
  count -= first;
}

/// The pack flags shared by the single-field and multi-field paths.
archive::ArchiveWriteConfig pack_config(const Cli& cli) {
  archive::ArchiveWriteConfig config;
  config.engine.compressor = cli.get_string("compressor");
  config.engine.tuner.target_ratio = cli.get_double("target");
  config.engine.tuner.epsilon = cli.get_double("epsilon");
  config.engine.tuner.max_error_bound = cli.get_double("max-bound");
  config.engine.tuner.regions = static_cast<int>(cli.get_int("regions"));
  config.engine.tuner.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.chunk_extent = static_cast<std::size_t>(cli.get_int("chunk-extent"));
  config.threads = static_cast<unsigned>(cli.get_int("threads"));
  return config;
}

/// Restartable tuning campaigns: --bounds-in seeds the writer's warm-bound
/// store before the pack, --bounds-out saves it after.  A missing input
/// store is a cold start, not an error — the first run of a campaign has
/// nothing to restore; a *corrupt* store is a hard error (silently packing
/// cold would waste the probes the caller tried to save).
template <typename Writer>
void load_bounds(const Cli& cli, const Writer& writer) {
  const std::string path = cli.get_string("bounds-in");
  if (path.empty()) return;
  const Status s = writer.bound_store()->load(path);
  if (s.ok()) return;
  if (s.code() == StatusCode::kIoError) {
    std::fprintf(stderr, "warning: no warm-bound store at '%s'; tuning cold\n",
                 path.c_str());
    return;
  }
  throw_status(s);
}

template <typename Writer>
void save_bounds(const Cli& cli, const Writer& writer) {
  const std::string path = cli.get_string("bounds-out");
  if (path.empty()) return;
  const Status s = writer.bound_store()->save(path);
  if (!s.ok()) throw_status(s);
}

/// Render a pack result (and its per-field breakdown) as JSON.
std::string pack_json(const Cli& cli, const archive::ArchiveWriteResult& r) {
  JsonWriter w;
  w.begin_object()
      .field("output", cli.get_string("output"))
      .field("format_version", r.format_version)
      .field("raw_bytes", r.raw_bytes)
      .field("archive_bytes", r.archive_bytes)
      .field("chunk_count", r.chunk_count)
      .field("chunk_extent", r.chunk_extent)
      .field("achieved_ratio", r.achieved_ratio)
      .field("in_band", r.in_band)
      .field("warm_chunks", r.warm_chunks)
      .field("refined_chunks", r.refined_chunks)
      .field("retrained_chunks", r.retrained_chunks)
      .field("rate_fallback_chunks", r.rate_fallback_chunks)
      .field("tuner_probe_calls", r.tuner_probe_calls)
      .field("probe_cache_hits", r.probe_cache_hits)
      .field("peak_buffered_chunks", r.peak_buffered_chunks)
      .field("peak_buffered_bytes", r.peak_buffered_bytes)
      .field("peak_staged_bytes", r.peak_staged_bytes)
      .key("fields")
      .begin_array();
  for (const archive::FieldWriteReport& f : r.fields) {
    w.begin_object()
        .field("name", f.name)
        .field("dtype", dtype_name(f.dtype))
        .field("raw_bytes", f.raw_bytes)
        .field("payload_bytes", f.payload_bytes)
        .field("payload_ratio", f.payload_ratio)
        .field("chunk_count", f.chunk_count)
        .field("chunk_extent", f.chunk_extent)
        .field("warm_chunks", f.warm_chunks)
        .field("refined_chunks", f.refined_chunks)
        .field("retrained_chunks", f.retrained_chunks)
        .field("rate_fallback_chunks", f.rate_fallback_chunks)
        .end_object();
  }
  w.end_array()
      .field("seconds", r.seconds)
      .field_raw("telemetry", telemetry::global().to_json())
      .end_object();
  return std::move(w).str();
}

int report_pack(const Cli& cli, const archive::ArchiveWriteResult& r) {
  if (cli.get_flag("json")) {
    std::printf("%s\n", pack_json(cli, r).c_str());
    return r.in_band ? 0 : 2;
  }
  std::printf("wrote %s (format v%u): %zu -> %zu bytes, %zu field(s)\n",
              cli.get_string("output").c_str(), static_cast<unsigned>(r.format_version),
              r.raw_bytes, r.archive_bytes, r.fields.size());
  for (const archive::FieldWriteReport& f : r.fields)
    std::printf("  field '%s': %zu -> %zu bytes (ratio %.3f) in %zu chunks of %zu "
                "plane(s)\n",
                f.name.c_str(), f.raw_bytes, f.payload_bytes, f.payload_ratio,
                f.chunk_count, f.chunk_extent);
  std::printf("aggregate ratio %.3f vs target %.3f (epsilon %.3f): %s\n",
              r.achieved_ratio, cli.get_double("target"), cli.get_double("epsilon"),
              r.in_band ? "in band" : "OUT OF BAND");
  std::printf("chunks: %zu warm, %zu refined, %zu retrained, %zu rate-fallback; peak %zu "
              "buffered (%zu bytes out, %zu bytes staged in), %.2fs\n",
              r.warm_chunks, r.refined_chunks, r.retrained_chunks, r.rate_fallback_chunks,
              r.peak_buffered_chunks, r.peak_buffered_bytes, r.peak_staged_bytes,
              r.seconds);
  std::printf("tuning: %zu probes executed, %zu served by the probe cache\n",
              r.tuner_probe_calls, r.probe_cache_hits);
  return r.in_band ? 0 : 2;
}

/// One --field occurrence: NAME=PATH[:DIMS[:DTYPE]], dims/dtype defaulting
/// to the global flags.
struct FieldSpec {
  std::string name;
  std::string path;
  Shape dims;
  DType dtype;
};

FieldSpec parse_field_spec(const std::string& spec, const Cli& cli) {
  const std::size_t eq = spec.find('=');
  require(eq != std::string::npos && eq > 0 && eq + 1 < spec.size(),
          "--field must look like NAME=PATH[:DIMS[:DTYPE]]: '" + spec + "'");
  FieldSpec out;
  out.name = spec.substr(0, eq);
  std::string rest = spec.substr(eq + 1);
  std::string dims = cli.get_string("dims");
  std::string dtype = cli.get_string("dtype");
  // Strip optional suffixes from the right so paths may contain colons.
  auto last_token = [&rest]() -> std::string {
    const std::size_t colon = rest.rfind(':');
    return colon == std::string::npos ? std::string() : rest.substr(colon + 1);
  };
  if (const std::string token = last_token(); token == "f32" || token == "f64") {
    dtype = token;
    rest.resize(rest.rfind(':'));
  }
  if (const std::string token = last_token();
      !token.empty() && token.find_first_not_of("0123456789x") == std::string::npos) {
    dims = token;
    rest.resize(rest.rfind(':'));
  }
  require(!rest.empty(), "--field is missing its path: '" + spec + "'");
  out.path = rest;
  out.dims = parse_dims(dims);
  out.dtype = dtype_from_name(dtype);
  return out;
}

/// Multi-field pack: stream every --field through an ingestion session in
/// chunk-row-sized slabs — no field is ever fully resident, in memory terms
/// the pack is O(chunk-row x workers) end to end.
int cmd_pack_fields(const Cli& cli, const std::vector<std::string>& specs) {
  auto writer = archive::ArchiveWriter::create(pack_config(cli));
  if (!writer.ok()) throw_status(writer.status());
  load_bounds(cli, writer.value());
  Status s = writer.value().begin(cli.get_string("output"));
  if (!s.ok()) throw_status(s);
  for (const std::string& raw_spec : specs) {
    const FieldSpec spec = parse_field_spec(raw_spec, cli);
    RawFileReader raw(spec.path, spec.dtype, spec.dims);
    archive::FieldDesc desc;
    desc.dtype = spec.dtype;
    desc.shape = spec.dims;
    auto session = writer.value().open_field(spec.name, desc);
    if (!session.ok()) throw_status(session.status());
    const std::size_t plane_bytes =
        (shape_elements(spec.dims) / spec.dims[0]) * dtype_size(spec.dtype);
    const std::size_t slab_planes =
        std::max<std::size_t>(1, (4u << 20) / std::max<std::size_t>(plane_bytes, 1));
    while (raw.planes_remaining() > 0) {
      s = session.value().push(raw.next(slab_planes));
      if (!s.ok()) throw_status(s);
    }
    const auto report = session.value().close();
    if (!report.ok()) throw_status(report.status());
  }
  const auto written = writer.value().finish();
  if (!written.ok()) throw_status(written.status());
  save_bounds(cli, writer.value());
  return report_pack(cli, written.value());
}

int cmd_pack(const Cli& cli) {
  if (const auto& specs = cli.get_list("field"); !specs.empty())
    return cmd_pack_fields(cli, specs);

  const NdArray field = read_raw(cli.get_string("input"),
                                 dtype_from_name(cli.get_string("dtype")),
                                 parse_dims(cli.get_string("dims")));
  // Stream the archive straight to disk: chunks are written as their
  // compression tasks finish, so peak memory is O(chunk x workers) — the
  // archive itself is never resident.
  auto writer = archive::ArchiveWriter::create(pack_config(cli));
  if (!writer.ok()) throw_status(writer.status());
  load_bounds(cli, writer.value());
  const auto written = writer.value().write(cli.get_string("output"), field.view());
  if (!written.ok()) throw_status(written.status());
  save_bounds(cli, writer.value());
  return report_pack(cli, written.value());
}

int cmd_unpack(const Cli& cli) {
  // Positioned reads only: open() validates just the manifest and footer;
  // chunk payloads are fetched (mmap or buffered) as requests touch them.
  auto reader = archive::ArchiveReader::open(cli.get_string("input"));
  if (!reader.ok()) throw_status(reader.status());
  const auto threads = static_cast<unsigned>(cli.get_int("threads"));

  // --field selects one field of a multi-field archive; the default is the
  // archive's first (and for v1/v2, only) field.
  const auto& field_flags = cli.get_list("field");
  require(field_flags.size() <= 1, "unpack takes at most one --field");
  const std::string field_name =
      field_flags.empty() ? reader.value().fields().front().name : field_flags[0];
  const archive::FieldInfo* field = archive::find_field(reader.value().info(), field_name);
  require(field != nullptr, "no field named '" + field_name + "' in the archive");

  const std::int64_t chunk = cli.get_int("chunk");
  const std::string range = cli.get_string("range");
  require(chunk < 0 || range.empty(), "--chunk and --range are mutually exclusive");
  if (chunk >= 0 || !range.empty()) {
    Result<NdArray> decoded = [&]() -> Result<NdArray> {
      if (chunk >= 0)
        return reader.value().read_chunk(field_name, static_cast<std::size_t>(chunk));
      std::size_t first = 0, count = 0;
      parse_range(range, first, count);
      return reader.value().read_range(field_name, first, count, threads);
    }();
    if (!decoded.ok()) throw_status(decoded.status());
    write_raw(cli.get_string("output"), decoded.value().view());
    std::printf("wrote %s: %zu values (%s", cli.get_string("output").c_str(),
                decoded.value().elements(), dtype_name(decoded.value().dtype()).c_str());
    for (std::size_t d : decoded.value().shape()) std::printf(" x%zu", d);
    std::printf(")\n");
    return 0;
  }

  // Streaming full unpack: decode a window of chunks per pass (in parallel)
  // and append it to the output, so peak memory is O(window x chunk), never
  // O(raw) — the counterpart of the streaming pack.
  unsigned workers = threads == 0 ? std::thread::hardware_concurrency() : threads;
  if (workers == 0) workers = 1;
  const std::size_t n0 = field->shape[0];
  RawFileWriter out(cli.get_string("output"));
  for (std::size_t c = 0; c < field->chunk_count; c += workers) {
    const std::size_t first = c * field->chunk_extent;
    const std::size_t last = std::min(n0, (c + workers) * field->chunk_extent);
    auto window = reader.value().read_range(field_name, first, last - first, threads);
    if (!window.ok()) throw_status(window.status());
    out.append(window.value().view());
  }
  out.close();
  std::printf("wrote %s: %zu values (%s", cli.get_string("output").c_str(),
              shape_elements(field->shape), dtype_name(field->dtype).c_str());
  for (std::size_t d : field->shape) std::printf(" x%zu", d);
  std::printf(")\n");
  return 0;
}

int cmd_serve(const Cli& cli) {
  serve::ReaderPoolConfig config;
  const std::int64_t cache_mb = cli.get_int("cache-mb");
  require(cache_mb >= 0, "--cache-mb must be >= 0 (0 disables caching)");
  config.cache_bytes = static_cast<std::size_t>(cache_mb) << 20;
  config.prefetch = !cli.get_flag("no-prefetch");
  auto pool = serve::ReaderPool::open(cli.get_string("input"), config);
  if (!pool.ok()) throw_status(pool.status());

  serve::ServeStats stats;
  Status served;
  const std::int64_t port = cli.get_int("port");
  if (port >= 0) {
    require(port <= 65535, "--port must be 0..65535 (0 picks an ephemeral port)");
    served = serve::serve_tcp(
        pool.value(), static_cast<std::uint16_t>(port), &stats, [](std::uint16_t bound) {
          // Announce on stderr so scripted clients can scrape the ephemeral
          // port without disturbing any stdout the caller may be piping.
          std::fprintf(stderr, "serving on 127.0.0.1:%u\n", static_cast<unsigned>(bound));
          std::fflush(stderr);
        });
  } else {
    // inetd-style default: one connection over stdin/stdout.
    serve::StreamTransport transport(std::cin, std::cout);
    served = serve::serve_connection(pool.value(), transport, &stats);
  }
  if (!served.ok()) throw_status(served);
  std::fprintf(stderr, "served %zu request(s), %zu error(s), %zu payload byte(s)\n",
               stats.requests, stats.errors, stats.bytes_out);
  return 0;
}

int cmd_info(const Cli& cli) {
  // Only the manifest and footer are read — info on a TB-scale archive
  // touches KBs of the file.
  auto reader = archive::ArchiveReader::open(cli.get_string("input"));
  if (!reader.ok()) throw_status(reader.status());
  const archive::ArchiveInfo& info = reader.value().info();

  if (cli.get_flag("json")) {
    std::string out = "{";
    out += "\"format_version\":" + std::to_string(info.version);
    out += ",\"compressor\":" + json_escape(info.compressor);
    out += ",\"dtype\":" + json_escape(dtype_name(info.dtype));
    out += ",\"shape\":[";
    for (std::size_t d = 0; d < info.shape.size(); ++d)
      out += (d ? "," : "") + std::to_string(info.shape[d]);
    out += "],\"chunk_extent\":" + std::to_string(info.chunk_extent);
    out += ",\"chunk_count\":" + std::to_string(info.chunk_count);
    out += ",\"target_ratio\":" + std::to_string(info.target_ratio);
    out += ",\"epsilon\":" + std::to_string(info.epsilon);
    out += ",\"raw_bytes\":" + std::to_string(info.raw_bytes);
    out += ",\"archive_bytes\":" + std::to_string(info.archive_bytes);
    out += ",\"achieved_ratio\":" + std::to_string(info.achieved_ratio);
    out += ",\"field_count\":" + std::to_string(info.fields.size());
    out += ",\"fields\":[";
    for (std::size_t f = 0; f < info.fields.size(); ++f) {
      const archive::FieldInfo& field = info.fields[f];
      if (f) out += ",";
      out += "{\"name\":" + json_escape(field.name);
      out += ",\"compressor\":" + json_escape(field.compressor);
      out += ",\"dtype\":" + json_escape(dtype_name(field.dtype));
      out += ",\"shape\":[";
      for (std::size_t d = 0; d < field.shape.size(); ++d)
        out += (d ? "," : "") + std::to_string(field.shape[d]);
      out += "],\"chunk_extent\":" + std::to_string(field.chunk_extent);
      out += ",\"chunk_count\":" + std::to_string(field.chunk_count);
      out += ",\"target_ratio\":" + std::to_string(field.target_ratio);
      out += ",\"epsilon\":" + std::to_string(field.epsilon);
      out += ",\"raw_bytes\":" + std::to_string(field.raw_bytes);
      out += ",\"payload_bytes\":" + std::to_string(field.payload_bytes);
      out += ",\"payload_ratio\":" + std::to_string(field.payload_ratio);
      out += ",\"chunks\":[";
      for (std::size_t i = 0; i < field.chunks.size(); ++i) {
        const archive::ChunkEntry& c = field.chunks[i];
        if (i) out += ",";
        out += "{\"offset\":" + std::to_string(c.offset) +
               ",\"size\":" + std::to_string(c.size) +
               ",\"error_bound\":" + std::to_string(c.error_bound) + "}";
      }
      out += "]}";
    }
    out += "],\"chunks\":[";
    for (std::size_t i = 0; i < info.chunks.size(); ++i) {
      const archive::ChunkEntry& c = info.chunks[i];
      if (i) out += ",";
      out += "{\"offset\":" + std::to_string(c.offset) +
             ",\"size\":" + std::to_string(c.size) +
             ",\"error_bound\":" + std::to_string(c.error_bound) + "}";
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    return 0;
  }

  std::printf("format version  %u\n", static_cast<unsigned>(info.version));
  std::printf("fields          %zu\n", info.fields.size());
  std::printf("aggregate ratio %.3f (%zu -> %zu bytes)\n", info.achieved_ratio,
              info.raw_bytes, info.archive_bytes);
  for (const archive::FieldInfo& field : info.fields) {
    std::printf("field '%s'      %s [%s", field.name.c_str(), field.compressor.c_str(),
                dtype_name(field.dtype).c_str());
    for (std::size_t d : field.shape) std::printf(" x%zu", d);
    std::printf("], %zu chunk(s) of %zu plane(s), target %.3f (epsilon %.3f), "
                "ratio %.3f (%zu -> %zu bytes)\n",
                field.chunk_count, field.chunk_extent, field.target_ratio, field.epsilon,
                field.payload_ratio, field.raw_bytes, field.payload_bytes);
    std::printf("  %-6s %-10s %-10s %s\n", "chunk", "offset", "bytes", "error_bound");
    for (std::size_t i = 0; i < field.chunks.size(); ++i)
      std::printf("  %-6zu %-10zu %-10zu %.9g\n", i, field.chunks[i].offset,
                  field.chunks[i].size, field.chunks[i].error_bound);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: fraz "
                 "<tune|quality|compress|decompress|inspect|pack|unpack|info|serve|"
                 "backends> "
                 "[flags]\nrun 'fraz <subcommand> --help' for flags\n");
    return 1;
  }
  const std::string subcommand = argv[1];
  try {
    if (subcommand == "backends") return cmd_backends(argc - 1, argv + 1);

    Cli cli("fraz " + subcommand);
    cli.add_string("input", "", "input file (raw scalars or .fraz archive)");
    cli.add_string("output", "out.bin", "output file");
    cli.add_string("dims", "0", "raw input shape, e.g. 100x500x500");
    cli.add_string("dtype", "f32", "raw input scalar type: f32|f64");
    cli.add_string("compressor", "sz", "backend: sz|szx|zfp|mgard|fpc|truncate");
    cli.add_double("target", 10.0, "target compression ratio");
    cli.add_double("epsilon", 0.1, "acceptance band around the target");
    cli.add_double("bound", 0.0, "explicit error bound (skip tuning when > 0)");
    cli.add_double("max-bound", 0.0, "U: maximum allowed error bound (0 = auto)");
    cli.add_int("regions", 12, "error-bound search regions (paper default 12)");
    cli.add_int("seed", static_cast<std::int64_t>(kDefaultSearchSeed),
                "deterministic search seed");
    cli.add_flag("verify", "after compress: decompress and check the bound");
    cli.add_flag("json", "tune/pack/info: emit the result as JSON");
    cli.add_int("chunk-extent", 0, "pack: slowest-axis planes per chunk (0 = auto)");
    cli.add_int("threads", 0, "pack/unpack: worker threads (0 = hardware)");
    cli.add_list("field", "pack: NAME=PATH[:DIMS[:DTYPE]], repeatable, streams each "
                          "field into one v3 archive; unpack: field to extract");
    cli.add_int("chunk", -1, "unpack: extract a single chunk by index");
    cli.add_string("range", "", "unpack: slowest-axis plane range first:end");
    cli.add_string("metric", "psnr", "quality: psnr|ssim");
    cli.add_double("floor", 60.0, "quality: minimum acceptable metric value");
    cli.add_string("bounds-in", "", "pack: warm-bound store to restore before tuning");
    cli.add_string("bounds-out", "", "pack: save the warm-bound store here afterwards");
    cli.add_int("cache-mb", 256, "serve: decoded-chunk cache budget in MiB (0 = off)");
    cli.add_flag("no-prefetch", "serve: disable sequential-scan readahead");
    cli.add_int("port", -1, "serve: TCP port (0 = ephemeral; default stdin/stdout)");
    if (!cli.parse(argc - 1, argv + 1)) return 0;
    // Multi-field pack names its inputs per --field; everything else reads
    // one --input file.
    const bool multi_field_pack = subcommand == "pack" && !cli.get_list("field").empty();
    require(multi_field_pack || !cli.get_string("input").empty(), "--input is required");

    if (subcommand == "tune") return cmd_tune(cli);
    if (subcommand == "quality") return cmd_quality(cli);
    if (subcommand == "compress") return cmd_compress(cli);
    if (subcommand == "decompress") return cmd_decompress(cli);
    if (subcommand == "inspect") return cmd_inspect(cli);
    if (subcommand == "pack") return cmd_pack(cli);
    if (subcommand == "unpack") return cmd_unpack(cli);
    if (subcommand == "info") return cmd_info(cli);
    if (subcommand == "serve") return cmd_serve(cli);
    std::fprintf(stderr, "unknown subcommand '%s'\n", subcommand.c_str());
    return 1;
  } catch (const fraz::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Flag parsing helpers (std::stoull and friends) throw standard
    // exceptions; a typo must print usage-style feedback, not terminate().
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
