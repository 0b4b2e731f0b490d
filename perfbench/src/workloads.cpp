#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "archive/archive_file.hpp"
#include "codec/checksum.hpp"
#include "data/datasets.hpp"
#include "serve/reader_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "trace.hpp"
#include "traced_compressor.hpp"
#include "util/json_writer.hpp"

namespace perfbench {
namespace {

using fraz::ArrayView;
using fraz::DType;
using fraz::NdArray;
using fraz::Shape;
using fraz::archive::ArchiveFileReader;
using fraz::archive::ArchiveFileWriter;
using fraz::archive::ArchiveWriteConfig;
using fraz::archive::ArchiveWriteResult;
using fraz::archive::FieldInfo;
using fraz::data::FieldKind;

constexpr double kEpsilon = 0.1;
/// Every archive a pack workload writes is read back this many times; the
/// first read is verified.  Repeats give the read percentiles enough samples.
constexpr int kReadRepeats = 3;
constexpr double kMB = 1e6;
/// Relative slack on the pointwise bound check — the repository's own
/// archive tests allow the same for f32 rounding of the reconstruction.
constexpr double kBoundSlack = 1.0000001;

// ---------------------------------------------------------------- sizing
//
// Sized so one run of each workload fits its time box on 4 cores (see
// README.md for the measurements behind these numbers).

// tune-cold: one pass packs steps 0 and 1 of every mix entry, each pass on
// inputs of its own seed.
constexpr std::size_t kTuneCube = 48;
constexpr std::size_t kTunePlane = 384;

// ingest-warm: per step, a 3D turbulent field plus a 1D f64 particle field.
constexpr std::size_t kIngestCube = 256;
constexpr std::size_t kIngestParticles = std::size_t{1} << 23;
constexpr double kIngestTarget = 10;

// serve-skewed: four archives, 64 chunks each, one shared cache.
constexpr std::size_t kServeCube = 256;
constexpr std::size_t kServeChunks = 64;
constexpr double kServeTarget = 10;
constexpr double kServeZipf = 1.1;
constexpr std::size_t kServeSlots = 64;  ///< Zipf-ranked window starts per archive
constexpr int kServeRepacks = 3;        ///< timed warm re-packs per archive

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// ---------------------------------------------------------------- fields

struct Field {
  std::string name;
  NdArray data;
  double range = 0;
  std::size_t chunk_extent = 0;  ///< 0 = writer policy
};

Field make_field(const std::string& name, FieldKind kind, const Shape& shape,
                 std::uint64_t seed, int step, bool as_f64 = false) {
  const fraz::data::FieldSpec spec{name, kind, shape, seed};
  NdArray f32 = fraz::data::generate_field(spec, step);
  Field field;
  field.name = name;
  if (as_f64) {
    NdArray f64(DType::kFloat64, shape);
    const float* src = f32.typed<float>();
    double* dst = f64.typed<double>();
    for (std::size_t i = 0; i < f32.elements(); ++i) dst[i] = src[i];
    field.data = std::move(f64);
  } else {
    field.data = std::move(f32);
  }
  field.range = fraz::value_range(field.data.view());
  return field;
}

/// Run \p jobs on up to \p threads threads and wait for all of them.
void run_parallel(std::vector<std::function<void()>> jobs, unsigned threads) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t)
    pool.emplace_back([&] {
      for (std::size_t k = next.fetch_add(1); k < jobs.size(); k = next.fetch_add(1)) jobs[k]();
    });
  for (auto& th : pool) th.join();
}

std::size_t plane_elements(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d = 1; d < shape.size(); ++d) n *= shape[d];
  return n;
}

// ------------------------------------------------------------ write path

ArchiveWriteConfig writer_config(const std::string& label, double target, bool traced,
                                 unsigned workers) {
  const BackendSpec& spec = backend_spec(label);
  ArchiveWriteConfig config;
  if (traced) {
    config.engine.compressor = traced_name(label);
  } else {
    config.engine.compressor = spec.inner;
    config.engine.compressor_options = spec.options;
  }
  config.engine.tuner.target_ratio = target;
  config.engine.tuner.epsilon = kEpsilon;
  config.threads = workers;
  return config;
}

[[noreturn]] void fail(const std::string& what, const fraz::Status& status) {
  throw std::runtime_error(what + ": " + status.to_string());
}

struct Packed {
  ArchiveWriteResult result;
  double seconds = 0;
  std::uint32_t crc = 0;
};

std::uint32_t file_crc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return fraz::crc32(bytes.data(), bytes.size());
}

/// Pack \p fields into one v3 archive at \p path, pushing each field in
/// slabs of 1/16 of its planes (the way a simulation hands over data).
Packed pack(ArchiveFileWriter& writer, const std::string& path,
            const std::vector<const Field*>& fields) {
  Packed packed;
  const auto start = std::chrono::steady_clock::now();
  {
    ScopedSpan span("pack", "archive");
    if (auto s = writer.begin(path); !s.ok()) fail("begin", s);
    for (const Field* field : fields) {
      const NdArray& a = field->data;
      fraz::archive::FieldDesc desc{a.dtype(), a.shape(), field->chunk_extent};
      auto session = writer.open_field(field->name, desc);
      if (!session.ok()) fail("open_field", session.status());
      const std::size_t planes = a.shape()[0];
      const std::size_t slab = std::max<std::size_t>(1, planes / 16);
      const std::size_t plane_bytes = plane_elements(a.shape()) * fraz::dtype_size(a.dtype());
      const auto* base = static_cast<const std::uint8_t*>(a.data());
      for (std::size_t p = 0; p < planes; p += slab) {
        Shape shape = a.shape();
        shape[0] = std::min(slab, planes - p);
        if (auto s = session.value().push(ArrayView(base + p * plane_bytes, a.dtype(), shape));
            !s.ok())
          fail("push", s);
      }
      auto closed = session.value().close();
      if (!closed.ok()) fail("close", closed.status());
    }
    auto finished = writer.finish();
    if (!finished.ok()) fail("finish", finished.status());
    packed.result = std::move(finished.value());
  }
  packed.seconds = seconds_since(start);
  packed.crc = file_crc(path);
  return packed;
}

// ------------------------------------------------------------- read path

struct ReadBack {
  double seconds = 0;
  std::vector<double> latency_ms;
  std::vector<std::vector<NdArray>> chunks;  ///< [field][chunk]
  std::vector<FieldInfo> fields;
};

/// Read every chunk of the archive at \p path with \p threads threads, one
/// reader each, timing every chunk read.  One thread reads inline.
ReadBack read_back(const std::string& path, unsigned threads) {
  ReadBack back;
  const auto start = std::chrono::steady_clock::now();
  {
    auto probe = ArchiveFileReader::open(path);
    if (!probe.ok()) fail("open", probe.status());
    back.fields = probe.value().fields();
  }
  std::vector<std::pair<std::size_t, std::size_t>> work;
  back.chunks.resize(back.fields.size());
  for (std::size_t f = 0; f < back.fields.size(); ++f) {
    back.chunks[f].resize(back.fields[f].chunk_count);
    for (std::size_t i = 0; i < back.fields[f].chunk_count; ++i) work.emplace_back(f, i);
  }
  std::vector<double> latency(work.size(), 0);
  std::atomic<std::size_t> next{0};
  std::vector<std::string> errors(threads);
  auto worker = [&](unsigned t) {
    auto reader = ArchiveFileReader::open(path);
    if (!reader.ok()) {
      errors[t] = reader.status().to_string();
      return;
    }
    for (std::size_t k = next.fetch_add(1); k < work.size(); k = next.fetch_add(1)) {
      const auto [f, i] = work[k];
      const double t0 = now_us();
      ScopedSpan span("read_chunk", "archive");
      auto chunk = reader.value().read_chunk(back.fields[f].name, i);
      latency[k] = (now_us() - t0) * 1e-3;
      if (!chunk.ok()) {
        errors[t] = chunk.status().to_string();
        return;
      }
      span.set_bytes(chunk.value().size_bytes());
      back.chunks[f][i] = std::move(chunk.value());
    }
  };
  if (threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (auto& th : pool) th.join();
  }
  back.seconds = seconds_since(start);
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error("read_chunk: " + e);
  back.latency_ms = std::move(latency);
  return back;
}

/// Pointwise-bound and PSNR check of one field's decoded chunks.
struct Check {
  std::size_t violations = 0;
  std::size_t fallback_chunks = 0;  ///< rate-mode chunks (manifest bound 0)
  std::vector<double> psnr_db;
  std::string first_violation;
};

template <typename T>
void compare_chunk(const T* original, const T* decoded, std::size_t n, double& sq_error,
                   double& max_error) {
  for (std::size_t k = 0; k < n; ++k) {
    const double e = std::abs(static_cast<double>(original[k]) - static_cast<double>(decoded[k]));
    sq_error += e * e;
    max_error = std::max(max_error, e);
  }
}

/// Every backend measured here honours its bound pointwise (mgard in its
/// default infinity norm), so every chunk with a recorded bound is checked.
void verify_field(const Field& field, const FieldInfo& info, const std::vector<NdArray>& chunks,
                  Check& check) {
  const NdArray& a = field.data;
  const std::size_t plane = plane_elements(a.shape());
  const std::size_t esize = fraz::dtype_size(a.dtype());
  if (info.dtype != a.dtype() || info.shape != a.shape())
    throw std::runtime_error("verify: field " + field.name + " geometry differs from manifest");
  double sq_error = 0;
  std::size_t plane_at = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const NdArray& c = chunks[i];
    if (c.dtype() != a.dtype() || c.shape().empty() || plane_elements(c.shape()) != plane)
      throw std::runtime_error("verify: chunk shape mismatch in " + field.name);
    const std::size_t n = c.elements();
    const auto* orig = static_cast<const std::uint8_t*>(a.data()) + plane_at * plane * esize;
    double max_error = 0;
    if (a.dtype() == DType::kFloat32)
      compare_chunk(reinterpret_cast<const float*>(orig), c.typed<float>(), n, sq_error,
                    max_error);
    else
      compare_chunk(reinterpret_cast<const double*>(orig), c.typed<double>(), n, sq_error,
                    max_error);
    const double bound = info.chunks[i].error_bound;
    if (bound == 0) {
      ++check.fallback_chunks;
    } else if (max_error > bound * kBoundSlack) {
      ++check.violations;
      if (check.first_violation.empty())
        check.first_violation = field.name + " chunk " + std::to_string(i) + ": max error " +
                                std::to_string(max_error) + " > bound " + std::to_string(bound);
    }
    plane_at += c.shape()[0];
  }
  if (plane_at != a.shape()[0]) throw std::runtime_error("verify: chunks do not tile " + field.name);
  const double mse = sq_error / static_cast<double>(a.elements());
  if (mse > 0 && field.range > 0)
    check.psnr_db.push_back(20 * std::log10(field.range) - 10 * std::log10(mse));
}


// ------------------------------------------------------------ accounting

/// Per-op record: enough to see where probes moved and whether the archive
/// bytes stayed the same.
struct OpRecord {
  long op = 0;
  std::string backend;
  std::string field;
  double target = 0;
  int step = 0;
  bool traced = false;
  double ratio = 0;
  bool in_band = false;
  std::size_t chunks = 0;
  std::size_t probes = 0;
  std::size_t probe_cache_hits = 0;
  std::size_t warm = 0;
  std::size_t retrained = 0;
  std::size_t fallback = 0;
  std::size_t raw_bytes = 0;
  std::size_t archive_bytes = 0;
  double pack_s = 0;
  double unpack_s = 0;
  std::uint32_t crc = 0;
  double psnr_db = 0;
  std::size_t violations = 0;
  std::size_t unchecked_fallback = 0;
  std::string error;
};

/// Totals of the pack → read back → verify ops of one phase.
struct PackTotals {
  double raw_bytes = 0;
  double pack_s = 0;
  double unpack_bytes = 0;
  double unpack_s = 0;
  std::vector<double> read_ms;
  std::size_t archives = 0;
  std::size_t in_band = 0;
  std::vector<double> psnr_db;
  std::size_t chunks = 0;
  std::size_t probes = 0;
  std::size_t probe_cache_hits = 0;
  std::size_t warm = 0;
  std::size_t retrained = 0;
  std::size_t fallback = 0;
  double chunk_s_sum = 0;
  double chunk_s_max = 0;
  std::size_t peak_staged = 0;
  std::size_t peak_buffered = 0;
  double op_wall_s = 0;  ///< pack + read of the ops counted for trace overhead
};

/// Add one archive write to \p t.
void account_pack(PackTotals& t, const ArchiveWriteResult& r, double seconds) {
  t.raw_bytes += static_cast<double>(r.raw_bytes);
  t.pack_s += seconds;
  ++t.archives;
  t.in_band += r.in_band ? 1 : 0;
  t.chunks += r.chunks.size();
  t.probes += r.tuner_probe_calls;
  t.probe_cache_hits += r.probe_cache_hits;
  t.warm += r.warm_chunks;
  t.retrained += r.retrained_chunks;
  t.fallback += r.rate_fallback_chunks;
  for (const auto& c : r.chunks) {
    t.chunk_s_sum += c.seconds;
    t.chunk_s_max = std::max(t.chunk_s_max, c.seconds);
  }
  t.peak_staged = std::max(t.peak_staged, r.peak_staged_bytes);
  t.peak_buffered = std::max(t.peak_buffered, r.peak_buffered_bytes);
}

/// Fill the per-op record from one archive write.
void record_pack(OpRecord& rec, const ArchiveWriteResult& r, double seconds, std::uint32_t crc) {
  rec.ratio = r.achieved_ratio;
  rec.in_band = r.in_band;
  rec.chunks = r.chunks.size();
  rec.probes = r.tuner_probe_calls;
  rec.probe_cache_hits = r.probe_cache_hits;
  rec.warm = r.warm_chunks;
  rec.retrained = r.retrained_chunks;
  rec.fallback = r.rate_fallback_chunks;
  rec.raw_bytes = r.raw_bytes;
  rec.archive_bytes = r.archive_bytes;
  rec.pack_s = seconds;
  rec.crc = crc;
}

struct RunState {
  explicit RunState(const RunConfig& c) : config(c), read_threads(c.workers) {}
  const RunConfig& config;
  long attempted = 0;
  long failed = 0;
  long next_op = 0;
  /// Threads a pack op reads its archive back with.  tune-cold's archives
  /// are too small to split: spawning threads would be most of the read.
  unsigned read_threads = 0;
  std::vector<OpRecord> records;
};

std::string archive_path(const RunState& run, long op, int step) {
  return run.config.work_dir + "/" + run.config.workload + "-op" + std::to_string(op) + "-s" +
         std::to_string(step) + ".fraz";
}

/// Pack one archive through \p writer, read it back with the run's workers,
/// and check every chunk.  Failures are counted and recorded, not thrown.
/// \p overhead says whether the op counts toward the trace-overhead ratio.
OpRecord pack_and_check(RunState& run, ArchiveFileWriter& writer, const std::string& label,
                        const std::vector<const Field*>& fields, double target, int step,
                        bool traced, PackTotals& totals, bool overhead = true) {
  OpRecord rec;
  rec.op = run.next_op++;
  rec.backend = label;
  for (const Field* f : fields) rec.field += (rec.field.empty() ? "" : "+") + f->name;
  rec.target = target;
  rec.step = step;
  rec.traced = traced;
  set_global_context(OpContext{run.config.workload, rec.op, rec.field, label});
  ++run.attempted;
  const std::string path = archive_path(run, rec.op, step);
  try {
    const Packed packed = pack(writer, path, fields);
    record_pack(rec, packed.result, packed.seconds, packed.crc);

    const ReadBack back = read_back(path, run.read_threads);
    double unpack_s = back.seconds;
    std::vector<double> read_ms = back.latency_ms;
    for (int r = 1; r < kReadRepeats; ++r) {
      const ReadBack again = read_back(path, run.read_threads);
      unpack_s += again.seconds;
      read_ms.insert(read_ms.end(), again.latency_ms.begin(), again.latency_ms.end());
    }
    rec.unpack_s = unpack_s;
    Check check;
    for (std::size_t f = 0; f < fields.size(); ++f) {
      if (back.fields[f].name != fields[f]->name)
        throw std::runtime_error("verify: field order differs from the write order");
      verify_field(*fields[f], back.fields[f], back.chunks[f], check);
    }
    rec.violations = check.violations;
    rec.unchecked_fallback = check.fallback_chunks;
    rec.psnr_db = median(check.psnr_db);
    if (check.violations > 0) throw std::runtime_error("bound violated: " + check.first_violation);

    account_pack(totals, packed.result, packed.seconds);
    totals.unpack_bytes += static_cast<double>(packed.result.raw_bytes) * kReadRepeats;
    totals.unpack_s += unpack_s;
    totals.read_ms.insert(totals.read_ms.end(), read_ms.begin(), read_ms.end());
    totals.psnr_db.insert(totals.psnr_db.end(), check.psnr_db.begin(), check.psnr_db.end());
    if (overhead) totals.op_wall_s += packed.seconds + unpack_s;
  } catch (const std::exception& e) {
    rec.error = e.what();
    ++run.failed;
  }
  std::remove(path.c_str());
  run.records.push_back(rec);
  return rec;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMB;  // ru_maxrss is KiB on Linux
}

void put(Outcome& out, const std::string& name, double value, const std::string& unit) {
  out.metrics[name] = Metric{value, unit};
}

/// End-to-end metrics every workload reports from its pack ops.
void put_pack_metrics(Outcome& out, const PackTotals& t) {
  put(out, "pack_mbps", share(t.raw_bytes, t.pack_s) / kMB, "MB/s");
  put(out, "in_band_share", share(static_cast<double>(t.in_band), static_cast<double>(t.archives)),
      "share");
  double psnr_sum = 0;
  for (double p : t.psnr_db) psnr_sum += p;
  put(out, "psnr_db", share(psnr_sum, static_cast<double>(t.psnr_db.size())), "dB");
}

/// Per-layer metrics of the tuning, engine and archive-write layers.
void put_pack_layers(Outcome& out, const PackTotals& t, double probe_s, unsigned workers) {
  const double chunks = static_cast<double>(t.chunks);
  // Probes requested per chunk (executed + cache-served) repeat exactly for
  // a seed; how they split between the two depends on which chunk worker
  // reaches the shared ProbeCache first.
  put(out, "core.probes_per_chunk",
      share(static_cast<double>(t.probes + t.probe_cache_hits), chunks), "count");
  put(out, "core.probe_cache_hit_share",
      share(static_cast<double>(t.probe_cache_hits),
            static_cast<double>(t.probes + t.probe_cache_hits)),
      "share");
  put(out, "core.probe_s", share(probe_s, static_cast<double>(t.archives)), "s");
  put(out, "engine.warm_share", share(static_cast<double>(t.warm), chunks), "share");
  put(out, "engine.retrain_share", share(static_cast<double>(t.retrained), chunks), "share");
  put(out, "engine.rate_fallback_share", share(static_cast<double>(t.fallback), chunks), "share");
  put(out, "archive.chunk_s_max", t.chunk_s_max, "s");
  put(out, "archive.worker_busy_share", share(t.chunk_s_sum, t.pack_s * workers), "share");
  put(out, "archive.peak_staged_mb", static_cast<double>(t.peak_staged) / kMB, "MB");
  put(out, "archive.peak_buffered_mb", static_cast<double>(t.peak_buffered) / kMB, "MB");
}

/// Per-layer metrics read from the recorded spans and the decorators.
void put_span_layers(Outcome& out, const std::vector<Span>& spans,
                     const std::map<std::string, CompressorTotals>& before) {
  const std::vector<double> read_self = self_times_us(spans, "read_chunk", "decompress");
  put(out, "archive.read_self_ms_per_chunk", median(read_self) * 1e-3, "ms");
  const std::vector<double> request_self = self_times_us(spans, "request", "decompress");
  put(out, "serve.request_self_ms", median(request_self) * 1e-3, "ms");
  for (const BackendSpec& spec : backend_specs()) {
    CompressorTotals now = compressor_totals(spec.label);
    const CompressorTotals& was = before.at(spec.label);
    const std::string prefix = "compressors." + spec.label + ".";
    put(out, prefix + "compress_mbps",
        share(static_cast<double>(now.compress_bytes - was.compress_bytes),
              now.compress_s - was.compress_s) / kMB,
        "MB/s");
    put(out, prefix + "decompress_mbps",
        share(static_cast<double>(now.decompress_bytes - was.decompress_bytes),
              now.decompress_s - was.decompress_s) / kMB,
        "MB/s");
    put(out, prefix + "calls",
        static_cast<double>(now.compress_calls - was.compress_calls + now.decompress_calls -
                            was.decompress_calls),
        "count");
  }
}

std::map<std::string, CompressorTotals> snapshot_compressors() {
  std::map<std::string, CompressorTotals> out;
  for (const BackendSpec& spec : backend_specs()) out[spec.label] = compressor_totals(spec.label);
  return out;
}

/// Summed tuning-probe seconds from the library's tune.probe_us.<backend>
/// histograms, under both the plain and the decorated backend names.
double probe_seconds_total() {
  double us = 0;
  for (const std::string name : {"sz", "szx", "zfp", "mgard"})
    us += static_cast<double>(
        fraz::telemetry::global().histogram("tune.probe_us." + name).snapshot().sum);
  for (const BackendSpec& spec : backend_specs())
    us += static_cast<double>(fraz::telemetry::global()
                                  .histogram("tune.probe_us." + traced_name(spec.label))
                                  .snapshot()
                                  .sum);
  return us * 1e-6;
}

/// Per-layer metrics of a pack workload's traced run: counts from the
/// untraced half (\p plain), spans and decorator totals from the traced half.
void put_traced_pack_layers(Outcome& out, const PackTotals& plain, const PackTotals& traced,
                            double probe_s, const std::map<std::string, CompressorTotals>& before,
                            unsigned workers) {
  put_pack_layers(out, plain, probe_s, workers);
  put_span_layers(out, Recorder::instance().spans(), before);
  for (const char* name : {"serve.hit_share", "serve.wait_share", "serve.decodes_per_request",
                           "serve.cache_rotations", "serve.prefetch_issued"})
    put(out, name, 0, std::string(name).find("share") != std::string::npos ? "share" : "count");
  put(out, "telemetry.trace_overhead_share", share(traced.op_wall_s, plain.op_wall_s) - 1,
      "share");
}

void put_read_metrics(Outcome& out, const std::vector<double>& latency_ms, double read_s,
                      double bytes) {
  out.read_samples = latency_ms.size();
  put(out, "read_rps", share(static_cast<double>(latency_ms.size()), read_s), "1/s");
  put(out, "read_p50_ms", percentile(latency_ms, 50), "ms");
  put(out, "read_p99_ms", percentile(latency_ms, 99), "ms");
  put(out, "unpack_mbps", share(bytes, read_s) / kMB, "MB/s");
}

std::string hex32(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

void write_records(fraz::JsonWriter& w, const RunState& run) {
  w.key("ops").begin_array();
  for (const OpRecord& r : run.records) {
    w.begin_object()
        .field("op", r.op)
        .field("backend", r.backend)
        .field("field", r.field)
        .field("target", r.target)
        .field("step", r.step)
        .field("traced", r.traced)
        .field("ratio", r.ratio)
        .field("in_band", r.in_band)
        .field("chunks", r.chunks)
        .field("probes", r.probes)
        .field("probe_cache_hits", r.probe_cache_hits)
        .field("warm", r.warm)
        .field("retrained", r.retrained)
        .field("fallback", r.fallback)
        .field("raw_bytes", r.raw_bytes)
        .field("archive_bytes", r.archive_bytes)
        .field("pack_s", r.pack_s)
        .field("unpack_s", r.unpack_s)
        .field("crc32", hex32(r.crc))
        .field("psnr_db", r.psnr_db)
        .field("bound_violations", r.violations)
        .field("unchecked_fallback_chunks", r.unchecked_fallback);
    if (!r.error.empty()) w.field("error", r.error);
    w.end_object();
  }
  w.end_array();
  w.key("failures").begin_array();
  for (const OpRecord& r : run.records)
    if (!r.error.empty())
      w.begin_object().field("op", r.op).field("backend", r.backend).field("field", r.field)
          .field("cause", r.error).end_object();
  w.end_array();
}

// ------------------------------------------------------------- tune-cold

struct MixEntry {
  const char* label;
  const char* field;
  double target;
};

/// The tuning mix.  Every entry pairs a backend with a field family where
/// tuning dominates: cold global training, warm-start misses between
/// chunks, cross-step drift retrains, and zfp's rate fallback.
const MixEntry kTuneMix[] = {
    {"sz", "cloud", 10},      {"sz", "turbulent", 50}, {"sz-blocked", "turbulent", 50},
    {"zfp", "cosmology", 10}, {"mgard", "turbulent", 10}, {"szx", "cloud", 10},
    {"sz", "smooth2d", 10},
};

/// Per mix entry, steps 0 and 1 of its own field.
using TuneInputs = std::vector<std::vector<Field>>;

FieldKind tune_kind(const std::string& field) {
  if (field == "cloud") return FieldKind::kCloudField3d;
  if (field == "turbulent") return FieldKind::kTurbulent3d;
  if (field == "cosmology") return FieldKind::kCosmoField3d;
  return FieldKind::kSmooth2d;
}

/// The inputs of pass \p pass: every entry gets a field of its own seed.
TuneInputs make_tune_inputs(std::uint64_t seed, int pass, unsigned threads) {
  const std::size_t entries = std::size(kTuneMix);
  TuneInputs in(entries, std::vector<Field>(2));
  std::vector<std::function<void()>> jobs;
  for (std::size_t e = 0; e < entries; ++e) {
    const std::string name = kTuneMix[e].field;
    const Shape shape = name == "smooth2d" ? Shape{kTunePlane, kTunePlane}
                                           : Shape{kTuneCube, kTuneCube, kTuneCube};
    const std::uint64_t field_seed = mix_seed(seed, 100 * static_cast<std::uint64_t>(pass) + e);
    for (int step = 0; step < 2; ++step)
      jobs.push_back([&in, e, name, shape, field_seed, step] {
        in[e][step] = make_field(name, tune_kind(name), shape, field_seed, step);
      });
  }
  run_parallel(std::move(jobs), threads);
  return in;
}

/// One pass over the mix: every entry gets a fresh writer (empty BoundStore
/// and ProbeCache) and packs steps 0 and 1.
void tune_pass(RunState& run, const TuneInputs& in, bool traced, PackTotals& totals) {
  for (std::size_t e = 0; e < std::size(kTuneMix); ++e) {
    const MixEntry& entry = kTuneMix[e];
    ArchiveFileWriter writer(writer_config(entry.label, entry.target, traced, run.config.workers));
    const std::vector<Field>& steps = in[e];
    // Under the decorator zfp loses its rate fallback (see README), so its
    // traced ops do different work and stay out of the overhead ratio.
    const bool overhead = std::string(entry.label) != "zfp";
    for (int step = 0; step < 2; ++step)
      pack_and_check(run, writer, entry.label, {&steps[step]}, entry.target, step, traced, totals,
                     overhead);
  }
}

Outcome run_tune_cold(RunState& run, double& setup_s) {
  Outcome out;
  const RunConfig& c = run.config;
  run.read_threads = 1;
  // Set-up is generating a pass's inputs; every pass does it, untimed, and
  // setup_s is the median.
  std::vector<double> setups;
  auto inputs_for = [&](int pass) {
    const auto start = std::chrono::steady_clock::now();
    TuneInputs in = make_tune_inputs(c.seed, pass, c.workers);
    setups.push_back(seconds_since(start));
    return in;
  };

  PackTotals totals;
  if (!c.trace) {
    // Start another pass only while it is expected to end within the time
    // box (passes take several seconds each).
    const auto start = std::chrono::steady_clock::now();
    double longest = 0;
    for (int pass = 0; pass == 0 || seconds_since(start) + longest <= c.seconds; ++pass) {
      const TuneInputs inputs = inputs_for(pass);
      const auto pass_start = std::chrono::steady_clock::now();
      tune_pass(run, inputs, false, totals);
      longest = std::max(longest, seconds_since(pass_start));
    }
    setup_s = median(setups);
    put_pack_metrics(out, totals);
    put_read_metrics(out, totals.read_ms, totals.unpack_s, totals.unpack_bytes);
    return out;
  }
  const TuneInputs inputs = inputs_for(0);
  setup_s = median(setups);
  const double probe_before = probe_seconds_total();
  tune_pass(run, inputs, false, totals);
  const double probe_s = probe_seconds_total() - probe_before;
  const auto before = snapshot_compressors();
  PackTotals traced;
  Recorder::instance().enable(true);
  tune_pass(run, inputs, true, traced);
  Recorder::instance().enable(false);
  put_traced_pack_layers(out, totals, traced, probe_s, before, c.workers);
  return out;
}

// ----------------------------------------------------------- ingest-warm

const char* const kIngestBackends[] = {"sz", "sz-blocked", "szx"};

/// The ingested step: a 3D turbulent field and a 1D f64 particle field.
std::vector<Field> make_ingest_fields(std::uint64_t seed) {
  std::vector<Field> fields(2);
  run_parallel({[&] {
                  fields[0] = make_field("turbulent", FieldKind::kTurbulent3d,
                                         {kIngestCube, kIngestCube, kIngestCube},
                                         mix_seed(seed, 1), 0);
                },
                [&] {
                  fields[1] = make_field("particles", FieldKind::kParticleCoord1d,
                                         {kIngestParticles}, mix_seed(seed, 2), 0,
                                         /*as_f64=*/true);
                }},
               2);
  return fields;
}

std::vector<const Field*> pointers(const std::vector<Field>& fields) {
  std::vector<const Field*> out;
  for (const Field& f : fields) out.push_back(&f);
  return out;
}

/// One long-lived writer per backend, primed by packing \p fields once.
std::vector<ArchiveFileWriter> primed_writers(RunState& run, const std::vector<Field>& fields,
                                              bool traced) {
  std::vector<ArchiveFileWriter> writers;
  for (const char* label : kIngestBackends) {
    writers.emplace_back(writer_config(label, kIngestTarget, traced, run.config.workers));
    const std::string path = run.config.work_dir + "/prime-" + label + ".fraz";
    pack(writers.back(), path, pointers(fields));
    std::remove(path.c_str());
  }
  return writers;
}

/// Every writer re-ingests the step it was primed with, so each measured
/// pack is a warm hit: one compression per chunk.  Cross-step drift, whose
/// retrains can cost tens of seconds per step at this size, is tune-cold's.
void ingest_round(RunState& run, std::vector<ArchiveFileWriter>& writers,
                  const std::vector<Field>& fields, bool traced, PackTotals& totals) {
  for (std::size_t b = 0; b < writers.size(); ++b)
    pack_and_check(run, writers[b], kIngestBackends[b], pointers(fields), kIngestTarget, 0,
                   traced, totals);
}

Outcome run_ingest_warm(RunState& run, double& setup_s) {
  Outcome out;
  const RunConfig& c = run.config;
  const auto setup_start = std::chrono::steady_clock::now();
  const std::vector<Field> fields = make_ingest_fields(c.seed);
  std::vector<ArchiveFileWriter> writers = primed_writers(run, fields, false);
  setup_s = seconds_since(setup_start);

  PackTotals totals;
  if (!c.trace) {
    const auto start = std::chrono::steady_clock::now();
    for (int round = 0; round == 0 || seconds_since(start) < c.seconds; ++round)
      ingest_round(run, writers, fields, false, totals);
    put_pack_metrics(out, totals);
    put_read_metrics(out, totals.read_ms, totals.unpack_s, totals.unpack_bytes);
    return out;
  }
  const double probe_before = probe_seconds_total();
  ingest_round(run, writers, fields, false, totals);
  const double probe_s = probe_seconds_total() - probe_before;
  std::vector<ArchiveFileWriter> traced_writers = primed_writers(run, fields, true);
  const auto before = snapshot_compressors();
  PackTotals traced;
  Recorder::instance().enable(true);
  ingest_round(run, traced_writers, fields, true, traced);
  Recorder::instance().enable(false);
  put_traced_pack_layers(out, totals, traced, probe_s, before, c.workers);
  return out;
}

// ---------------------------------------------------------- serve-skewed

struct ServeArchive {
  std::string label;
  const Field* field = nullptr;
  std::string path;
  std::vector<std::uint8_t> reference;  ///< decoded field, bytes
  std::size_t plane_bytes = 0;
  std::size_t planes = 0;
  std::size_t extent = 0;
};

struct ServeSet {
  std::vector<Field> fields;  ///< turbulent, cosmology
  std::vector<ServeArchive> archives;
  PackTotals cold;    ///< the cold builds (where serve-skewed tunes)
  PackTotals totals;  ///< the warm re-packs that are served
  std::size_t decoded_bytes = 0;
};

/// Build the four archives and decode each once as the reference for
/// byte-for-byte response checks.
void build_serve_set(RunState& run, ServeSet& set, bool traced, const std::string& tag) {
  const struct {
    const char* label;
    std::size_t field;
  } plan[] = {{"sz", 0}, {"sz-blocked", 0}, {"szx", 0}, {"zfp", 1}};
  for (const auto& p : plan) {
    ServeArchive a;
    a.label = p.label;
    a.field = &set.fields[p.field];
    a.path = run.config.work_dir + "/serve-" + tag + "-" + a.label + ".fraz";
    ArchiveFileWriter writer(writer_config(a.label, kServeTarget, traced, run.config.workers));
    set_global_context(OpContext{run.config.workload, run.next_op, a.field->name, a.label});
    ++run.attempted;
    OpRecord rec;
    rec.op = run.next_op++;
    rec.backend = a.label;
    rec.field = a.field->name;
    rec.target = kServeTarget;
    rec.traced = traced;
    try {
      // The cold build tunes every chunk; the timed re-packs through the same
      // writer are warm hits, and the last one is the archive that gets
      // served.  A single re-pack takes well under a second, too short to
      // time steadily.
      const Packed cold = pack(writer, a.path, {a.field});
      account_pack(set.cold, cold.result, cold.seconds);
      Packed packed;
      for (int r = 0; r < kServeRepacks; ++r) {
        packed = pack(writer, a.path, {a.field});
        account_pack(set.totals, packed.result, packed.seconds);
      }
      record_pack(rec, packed.result, packed.seconds, packed.crc);
      const ReadBack back = read_back(a.path, run.config.workers);
      rec.unpack_s = back.seconds;
      Check check;
      verify_field(*a.field, back.fields[0], back.chunks[0], check);
      rec.violations = check.violations;
      rec.unchecked_fallback = check.fallback_chunks;
      rec.psnr_db = median(check.psnr_db);
      if (check.violations > 0) throw std::runtime_error("bound violated: " + check.first_violation);
      const NdArray& d = a.field->data;
      a.plane_bytes = plane_elements(d.shape()) * fraz::dtype_size(d.dtype());
      a.planes = d.shape()[0];
      a.extent = back.fields[0].chunk_extent;
      a.reference.reserve(d.size_bytes());
      for (const NdArray& chunk : back.chunks[0]) {
        const auto* bytes = static_cast<const std::uint8_t*>(chunk.data());
        a.reference.insert(a.reference.end(), bytes, bytes + chunk.size_bytes());
      }
      set.decoded_bytes += a.reference.size();
      set.totals.psnr_db.insert(set.totals.psnr_db.end(), check.psnr_db.begin(),
                                check.psnr_db.end());
      set.archives.push_back(std::move(a));
    } catch (const std::exception& e) {
      rec.error = e.what();
      ++run.failed;
    }
    run.records.push_back(rec);
  }
}

/// Zipf(s) over n ranks as a cumulative table.
std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double sum = 0;
  for (std::size_t r = 0; r < n; ++r) cdf[r] = (sum += 1.0 / std::pow(static_cast<double>(r + 1), s));
  for (double& v : cdf) v /= sum;
  return cdf;
}

struct ServeLoad {
  std::vector<double> latency_ms;
  double seconds = 0;
  double bytes = 0;
  long requests = 0;
  long failed = 0;
  std::string first_failure;
  std::size_t pool_requests = 0;
  std::size_t cache_hits = 0;
  std::size_t wait_hits = 0;
  std::size_t decoded = 0;
  std::size_t prefetch = 0;
  std::size_t rotations = 0;
};

/// Closed loop: \p clients threads, the last one scanning sequentially, the
/// rest reading chunk-sized windows at Zipf-ranked unaligned offsets.
ServeLoad serve_load(const RunState& run, const ServeSet& set, double seconds, std::uint64_t seed) {
  ServeLoad load;
  const unsigned clients = run.config.workers;
  auto cache = std::make_shared<fraz::serve::ChunkCache>(set.decoded_bytes / 4);
  std::vector<std::shared_ptr<fraz::serve::ReaderPool>> pools;
  for (const ServeArchive& a : set.archives) {
    fraz::serve::ReaderPoolConfig pc;
    pc.cache = cache;
    auto pool = fraz::serve::ReaderPool::open(a.path, pc);
    if (!pool.ok()) fail("ReaderPool::open", pool.status());
    pools.push_back(pool.value());
  }
  // Zipf rank r goes to archive r mod 4, so every backend gets the same
  // share of hot windows; a seeded permutation per archive picks which
  // window slot each of its ranks lands on.
  const std::size_t archives = set.archives.size();
  const std::size_t items = archives * kServeSlots;
  const std::vector<double> cdf = zipf_cdf(items, kServeZipf);
  std::vector<std::vector<std::size_t>> slot_of(archives, std::vector<std::size_t>(kServeSlots));
  std::mt19937_64 shuffle_rng(mix_seed(seed, 7));
  for (auto& perm : slot_of) {
    for (std::size_t i = 0; i < kServeSlots; ++i) perm[i] = i;
    std::shuffle(perm.begin(), perm.end(), shuffle_rng);
  }

  std::vector<std::vector<double>> latencies(clients);
  std::vector<double> bytes(clients, 0);
  std::vector<long> failures(clients, 0);
  std::vector<std::string> first_failure(clients);
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::chrono::steady_clock::time_point deadline;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      std::vector<fraz::serve::ReaderHandle> handles;
      for (const auto& pool : pools) handles.push_back(pool->handle());
      std::mt19937_64 rng(mix_seed(seed, 100 + t));
      std::uniform_real_distribution<double> uniform(0.0, 1.0);
      const bool scanner = t + 1 == clients;
      std::size_t scan_archive = t % archives;
      std::size_t scan_plane = 0;
      OpContext context{run.config.workload, static_cast<long>(t), "", ""};
      set_thread_context(&context);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      while (std::chrono::steady_clock::now() < deadline) {
        std::size_t ai = 0, first = 0;
        if (scanner) {
          const ServeArchive& a = set.archives[scan_archive];
          if (scan_plane + a.extent > a.planes) {
            scan_archive = (scan_archive + 1) % archives;
            scan_plane = 0;
          }
          ai = scan_archive;
          first = scan_plane;
          scan_plane += set.archives[ai].extent;
        } else {
          const double u = uniform(rng);
          const std::size_t rank = static_cast<std::size_t>(
              std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
          const std::size_t item = std::min(rank, items - 1);
          ai = item % archives;
          const std::size_t slot = slot_of[ai][item / archives];
          const ServeArchive& a = set.archives[ai];
          const std::size_t stride = a.planes / kServeSlots;
          const std::size_t jitter =
              1 + mix_seed(seed, item) % std::max<std::size_t>(1, a.extent - 1);
          first = std::min(slot * stride + jitter, a.planes - a.extent);
        }
        const ServeArchive& a = set.archives[ai];
        context.field = a.field->name;
        context.backend = a.label;
        const double t0 = now_us();
        fraz::Result<NdArray> window = [&] {
          ScopedSpan span("request", "serve");
          return handles[ai].read_range(std::size_t{0}, first, a.extent);
        }();
        latencies[t].push_back((now_us() - t0) * 1e-3);
        const std::size_t offset = first * a.plane_bytes;
        const std::size_t size = a.extent * a.plane_bytes;
        if (!window.ok() || window.value().size_bytes() != size ||
            std::memcmp(window.value().data(), a.reference.data() + offset, size) != 0) {
          if (failures[t]++ == 0)
            first_failure[t] = a.label + " planes " + std::to_string(first) + ": " +
                               (window.ok() ? "bytes differ from reference"
                                            : window.status().to_string());
          continue;
        }
        bytes[t] += static_cast<double>(size);
      }
      set_thread_context(nullptr);
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  const auto start = std::chrono::steady_clock::now();
  deadline = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true);
  for (auto& th : threads) th.join();
  load.seconds = seconds_since(start);
  for (auto& pool : pools) pool->drain_prefetches();
  for (unsigned t = 0; t < clients; ++t) {
    load.latency_ms.insert(load.latency_ms.end(), latencies[t].begin(), latencies[t].end());
    load.bytes += bytes[t];
    load.failed += failures[t];
    if (load.first_failure.empty()) load.first_failure = first_failure[t];
  }
  load.requests = static_cast<long>(load.latency_ms.size());
  for (const auto& pool : pools) {
    const auto s = pool->stats();
    load.pool_requests += s.requests;
    load.cache_hits += s.cache_hits;
    load.wait_hits += s.wait_hits;
    load.decoded += s.decoded_chunks;
    load.prefetch += s.prefetch_issued;
  }
  load.rotations = cache->stats().rotations;
  return load;
}

ServeSet make_serve_fields(std::uint64_t seed) {
  ServeSet set;
  const Shape cube{kServeCube, kServeCube, kServeCube};
  set.fields.resize(2);
  run_parallel({[&] {
                  set.fields[0] = make_field("turbulent", FieldKind::kTurbulent3d, cube,
                                             mix_seed(seed, 11), 0);
                },
                [&] {
                  set.fields[1] = make_field("cosmology", FieldKind::kCosmoField3d, cube,
                                             mix_seed(seed, 12), 0);
                }},
               2);
  for (Field& f : set.fields) f.chunk_extent = kServeCube / kServeChunks;
  return set;
}

void count_load(RunState& run, const ServeLoad& load) {
  run.attempted += load.requests;
  run.failed += load.failed;
  if (load.failed > 0) {
    OpRecord rec;
    rec.op = run.next_op++;
    rec.backend = "serve";
    rec.error = std::to_string(load.failed) + " of " + std::to_string(load.requests) +
                " responses wrong; first: " + load.first_failure;
    run.records.push_back(rec);
  }
}

Outcome run_serve_skewed(RunState& run, double& setup_s) {
  Outcome out;
  const RunConfig& c = run.config;
  const auto setup_start = std::chrono::steady_clock::now();
  ServeSet set = make_serve_fields(c.seed);
  const double probe_before = probe_seconds_total();
  build_serve_set(run, set, false, "plain");
  const double probe_s = probe_seconds_total() - probe_before;
  setup_s = seconds_since(setup_start);
  if (set.archives.size() != 4) throw std::runtime_error("serve-skewed: set-up failed");

  if (!c.trace) {
    const ServeLoad load = serve_load(run, set, c.seconds, c.seed);
    count_load(run, load);
    put_pack_metrics(out, set.totals);
    put_read_metrics(out, load.latency_ms, load.seconds, load.bytes);
    for (const ServeArchive& a : set.archives) std::remove(a.path.c_str());
    return out;
  }
  const ServeLoad plain = serve_load(run, set, c.seconds / 2, c.seed);
  count_load(run, plain);
  ServeSet traced_set = make_serve_fields(c.seed);
  const auto before = snapshot_compressors();
  Recorder::instance().enable(true);
  build_serve_set(run, traced_set, true, "traced");
  if (traced_set.archives.size() != 4) throw std::runtime_error("serve-skewed: traced set-up failed");
  const ServeLoad load = serve_load(run, traced_set, c.seconds / 2, c.seed);
  Recorder::instance().enable(false);
  count_load(run, load);
  put_pack_layers(out, set.cold, probe_s, c.workers);
  put_span_layers(out, Recorder::instance().spans(), before);
  const double requests = static_cast<double>(load.requests);
  put(out, "serve.hit_share",
      share(static_cast<double>(load.cache_hits), static_cast<double>(load.pool_requests)), "share");
  put(out, "serve.wait_share",
      share(static_cast<double>(load.wait_hits), static_cast<double>(load.pool_requests)), "share");
  put(out, "serve.decodes_per_request", share(static_cast<double>(load.decoded), requests), "count");
  put(out, "serve.cache_rotations", static_cast<double>(load.rotations), "count");
  put(out, "serve.prefetch_issued", static_cast<double>(load.prefetch), "count");
  put(out, "telemetry.trace_overhead_share",
      share(static_cast<double>(plain.requests) / plain.seconds, requests / load.seconds) - 1,
      "share");
  for (const ServeSet* s : {&set, &traced_set})
    for (const ServeArchive& a : s->archives) std::remove(a.path.c_str());
  return out;
}

}  // namespace

std::size_t working_set_bytes(const std::string& workload) {
  if (workload == "tune-cold") return kTuneCube * kTuneCube * kTuneCube * 4 * 2;
  if (workload == "ingest-warm")
    return kIngestCube * kIngestCube * kIngestCube * 4 + kIngestParticles * 8;
  return 4 * kServeCube * kServeCube * kServeCube * 4;
}

bool known_workload(const std::string& name) {
  return name == "tune-cold" || name == "ingest-warm" || name == "serve-skewed";
}

Outcome run_workload(const RunConfig& config) {
  RunState run(config);
  double setup_s = 0;
  Outcome out;
  if (config.workload == "tune-cold")
    out = run_tune_cold(run, setup_s);
  else if (config.workload == "ingest-warm")
    out = run_ingest_warm(run, setup_s);
  else
    out = run_serve_skewed(run, setup_s);
  if (!config.trace) {
    put(out, "peak_rss_mb", peak_rss_mb(), "MB");
    put(out, "setup_s", setup_s, "s");
  }
  out.attempted = run.attempted;
  out.failed = run.failed;
  fraz::JsonWriter w;
  w.begin_object();
  w.field("setup_s", setup_s).field("attempted", run.attempted).field("failed", run.failed);
  w.field("read_samples", out.read_samples)
      .field("read_p99_samples_beyond", samples_beyond(out.read_samples, 99));
  write_records(w, run);
  w.end_object();
  out.report = w.str();
  return out;
}

}  // namespace perfbench
