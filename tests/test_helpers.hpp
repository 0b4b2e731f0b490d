#ifndef FRAZ_TESTS_TEST_HELPERS_HPP
#define FRAZ_TESTS_TEST_HELPERS_HPP

/// Shared fixtures for the compressor and tuner tests: small deterministic
/// fields with realistic structure (smooth + texture) in 1D/2D/3D and both
/// scalar types, error measurement helpers, per-process scratch files, and a
/// forwarding plugin that stands in for a user backend wrapping a built-in.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <condition_variable>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "archive/archive.hpp"
#include "ndarray/ndarray.hpp"
#include "opt/thread_pool.hpp"
#include "pressio/registry.hpp"
#include "util/buffer.hpp"

namespace fraz::testhelpers {

/// Smooth-plus-texture field of the requested rank and dtype.  Deterministic.
inline NdArray make_field(DType dtype, const Shape& shape, double amplitude = 50.0) {
  NdArray a(dtype, shape);
  const std::size_t n = a.elements();
  // Precompute extents for coordinate recovery.
  std::vector<std::size_t> extent(shape.begin(), shape.end());
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t rest = i;
    double coords[3] = {0, 0, 0};
    for (std::size_t d = extent.size(); d-- > 0;) {
      coords[d] = static_cast<double>(rest % extent[d]);
      rest /= extent[d];
    }
    const double v = amplitude * (std::sin(0.11 * coords[0]) * std::cos(0.07 * coords[1]) +
                                  0.5 * std::sin(0.23 * coords[2])) +
                     0.01 * amplitude * std::sin(3.7 * coords[0] + 1.3 * coords[1]);
    a.set_flat(i, v);
  }
  return a;
}

/// Maximum absolute pointwise error between two arrays of the same shape.
inline double max_error(const NdArray& a, const NdArray& b) {
  double m = 0;
  for (std::size_t i = 0; i < a.elements(); ++i)
    m = std::max(m, std::abs(a.at_flat(i) - b.at_flat(i)));
  return m;
}

/// Mean squared pointwise error.
inline double mean_squared_error(const NdArray& a, const NdArray& b) {
  double s = 0;
  for (std::size_t i = 0; i < a.elements(); ++i) {
    const double d = a.at_flat(i) - b.at_flat(i);
    s += d * d;
  }
  return s / static_cast<double>(a.elements());
}

/// Scratch files removed on scope exit.  Names carry the process id, so two
/// runs of one test binary from the same directory never touch each other's
/// files.
class TempFiles {
public:
  TempFiles() = default;
  TempFiles(const TempFiles&) = delete;
  TempFiles& operator=(const TempFiles&) = delete;
  ~TempFiles() {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

  /// A fresh path for \p name, relative to the working directory.
  std::string make(const std::string& name) {
    paths_.push_back("fraz_test_" + std::to_string(::getpid()) + "_" + name + ".tmp");
    return paths_.back();
  }

private:
  std::vector<std::string> paths_;
};

/// The ids of the threads that called record(), in call order.  Shared by a
/// plugin and its clones, so it sees every probe worker's calls.  With a
/// rendezvous of k > 1, the first calls wait (up to five seconds) until k
/// distinct threads have called, so a batch that can run in parallel is
/// seen to, however late the scheduler starts its helpers; a batch that
/// cannot runs on after the wait.
class ThreadLog {
public:
  explicit ThreadLog(std::size_t rendezvous = 1) : rendezvous_(rendezvous) {}

  void record() {
    std::unique_lock<std::mutex> lock(mutex_);
    ids_.push_back(std::this_thread::get_id());
    distinct_.insert(ids_.back());
    if (met_) return;
    if (distinct_.size() >= rendezvous_) {
      met_ = true;
      met_cv_.notify_all();
      return;
    }
    met_cv_.wait_for(lock, std::chrono::seconds(5), [&] { return met_; });
    met_ = true;  // met or timed out: later calls never wait
  }
  std::vector<std::thread::id> ids() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ids_;
  }
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    ids_.clear();
    distinct_.clear();
    met_ = false;
  }

private:
  const std::size_t rendezvous_;
  mutable std::mutex mutex_;
  std::condition_variable met_cv_;
  std::vector<std::thread::id> ids_;
  std::set<std::thread::id> distinct_;
  bool met_ = false;
};

/// The ids of \p pool's worker threads: one task per worker, each held
/// until every worker has started one, so no worker can take two.
inline std::set<std::thread::id> pool_thread_ids(ThreadPool& pool) {
  std::mutex mutex;
  std::condition_variable all_started;
  std::set<std::thread::id> ids;
  std::vector<std::future<void>> tasks;
  for (unsigned w = 0; w < pool.size(); ++w)
    tasks.push_back(pool.submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      ids.insert(std::this_thread::get_id());
      all_started.notify_all();
      all_started.wait(lock, [&] { return ids.size() == pool.size(); });
    }));
  for (auto& task : tasks) task.get();
  return ids;
}

/// A user plugin that forwards every call to a built-in backend under its
/// own registry name — what a tracing or metering wrapper looks like to the
/// framework.  Capabilities are the inner backend's, except the name and,
/// when given, the declared bound lattice.  With a ThreadLog, every
/// compress_into records its calling thread.
class ForwardingPlugin final : public pressio::Compressor {
public:
  ForwardingPlugin(std::string name, const std::string& inner,
                   std::optional<pressio::BoundLattice> lattice,
                   std::shared_ptr<ThreadLog> log = nullptr)
      : name_(std::move(name)),
        inner_(pressio::registry().create(inner)),
        lattice_(lattice),
        log_(std::move(log)) {}
  ForwardingPlugin(const ForwardingPlugin& other)
      : name_(other.name_),
        inner_(other.inner_->clone()),
        lattice_(other.lattice_),
        log_(other.log_) {}

  std::string name() const override { return name_; }
  pressio::Capabilities capabilities() const override {
    pressio::Capabilities c = inner_->capabilities();
    c.name = name_;
    if (lattice_) c.bound_lattice = *lattice_;
    return c;
  }
  pressio::Options get_options() const override { return inner_->get_options(); }
  void set_options(const pressio::Options& options) override { inner_->set_options(options); }
  void set_error_bound(double bound) override { inner_->set_error_bound(bound); }
  double error_bound() const override { return inner_->error_bound(); }
  Status compress_into(const ArrayView& input, Buffer& out) const noexcept override {
    if (log_) log_->record();
    return inner_->compress_into(input, out);
  }
  Status decompress_into(const std::uint8_t* data, std::size_t size,
                         NdArray& out) const noexcept override {
    return inner_->decompress_into(data, size, out);
  }
  pressio::CompressorPtr clone() const override {
    return std::make_unique<ForwardingPlugin>(*this);
  }

private:
  std::string name_;
  pressio::CompressorPtr inner_;
  std::optional<pressio::BoundLattice> lattice_;
  std::shared_ptr<ThreadLog> log_;
};

/// Register a ForwardingPlugin as \p name (once per process).
inline void register_forwarding_plugin(const std::string& name, const std::string& inner,
                                       std::optional<pressio::BoundLattice> lattice = {},
                                       std::shared_ptr<ThreadLog> log = nullptr) {
  if (pressio::registry().contains(name)) return;
  pressio::registry().register_factory(name, [name, inner, lattice, log] {
    return std::make_unique<ForwardingPlugin>(name, inner, lattice, log);
  });
}

/// Path of a checked-in file under tests/corpus/.
inline std::string corpus_path(const std::string& rel) {
  return std::string(FRAZ_TEST_CORPUS_DIR) + "/" + rel;
}

/// Bytes of a checked-in file under tests/corpus/ (empty when missing).
inline std::vector<std::uint8_t> read_corpus(const std::string& rel) {
  std::ifstream in(corpus_path(rel), std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// One frozen read-compat archive in tests/corpus/archive_format/.  No
/// writer emits v1 or v2 any more; these files were written by the last
/// writers that did, and each is pinned by the CRC-32 of its file bytes and
/// of its decoded array, so the read path can never drift.
struct ArchiveFixture {
  const char* name;            ///< path under tests/corpus/
  unsigned version;            ///< on-disk format version
  const char* compressor;
  DType dtype;
  Shape shape;
  std::size_t file_bytes;
  std::uint32_t file_crc;
  std::uint32_t decoded_crc;   ///< CRC-32 of read_all()'s bytes
  std::size_t chunk_region;    ///< offset of the chunk region
  std::size_t region_bytes;    ///< bytes of the chunk region
};

/// Every frozen v1/v2 fixture.  The sz/zfp ones are the inputs of the
/// archive tests: v1_sz_f32 packs make_field(f32, {8, 14, 10}) with sz at
/// ratio 6, ε 0.2, extent 2; the v2 trio are the single-field golden
/// archives (sz f32 {24, 16, 12} at ratio 6, ε 0.2, extent 2, 2 workers,
/// then a drifted step at amplitude 51 through the same writer; zfp f64
/// {12, 20, 14} at ratio 8, ε 0.2, extent 3).
inline const std::vector<ArchiveFixture>& archive_fixtures() {
  static const std::vector<ArchiveFixture> fixtures{
      {"archive_format/v1_sz_f32.fraz", 1, "sz", DType::kFloat32, {8, 14, 10}, 983,
       0xd6940aaeu, 0x5b95f475u, 102, 841},
      {"archive_format/v2_sz_f32_step0.fraz", 2, "sz", DType::kFloat32, {24, 16, 12}, 3451,
       0x8208fb7du, 0xdd33525du, 0, 3177},
      {"archive_format/v2_sz_f32_step1.fraz", 2, "sz", DType::kFloat32, {24, 16, 12}, 3424,
       0xe1792933u, 0x61e89f0bu, 0, 3150},
      {"archive_format/v2_zfp_f64.fraz", 2, "zfp", DType::kFloat64, {12, 20, 14}, 3520,
       0xbf6d43ffu, 0x4de9ce0bu, 0, 3373},
      {"archive_format/archive_v2.fraz", 2, "truncate", DType::kFloat32, {6, 8, 4}, 468,
       0xb27c452fu, 0xb3edff32u, 0, 348},
  };
  return fixtures;
}

/// The fixture at \p name (a path under tests/corpus/); aborts when absent.
inline const ArchiveFixture& archive_fixture(const std::string& name) {
  for (const ArchiveFixture& fixture : archive_fixtures())
    if (name == fixture.name) return fixture;
  std::abort();
}

/// Tuner-independent check of an archive's chunks: compressing each chunk's
/// input planes of \p field with the archive's backend at the bound its
/// manifest records must reproduce that chunk's bytes exactly.  Returns ""
/// when every chunk does, else a description of the first that does not.
/// Chunks recording bound 0 (ZFP rate-fallback payloads, which honour no
/// pointwise bound) carry no bound to recompress at and are skipped.
inline std::string chunk_reproduction_mismatch(const std::uint8_t* bytes, std::size_t size,
                                               const NdArray& field) {
  auto opened = archive::ArchiveReader::open(bytes, size);
  if (!opened.ok()) return "open failed: " + opened.status().to_string();
  const archive::ArchiveInfo& info = opened.value().info();
  if (info.shape != field.shape()) return "archive shape differs from the input";
  auto compressor = pressio::registry().create(info.compressor);
  const std::size_t n0 = field.shape()[0];
  const std::size_t plane_bytes = field.size_bytes() / n0;
  Buffer expected;
  for (std::size_t i = 0; i < info.chunks.size(); ++i) {
    const archive::ChunkEntry& entry = info.chunks[i];
    if (entry.error_bound == 0) continue;
    const std::size_t first = i * info.chunk_extent;
    Shape rows = field.shape();
    rows[0] = std::min(info.chunk_extent, n0 - first);
    const ArrayView input(static_cast<const std::uint8_t*>(field.data()) + first * plane_bytes,
                          field.dtype(), rows);
    compressor->set_error_bound(entry.error_bound);
    if (!compressor->compress_into(input, expected).ok())
      return "chunk " + std::to_string(i) + ": compression failed";
    const std::uint8_t* stored = bytes + info.chunk_region + entry.offset;
    if (expected.size() != entry.size ||
        !std::equal(expected.data(), expected.data() + expected.size(), stored))
      return "chunk " + std::to_string(i) + " differs from its input compressed at its bound";
  }
  return "";
}

}  // namespace fraz::testhelpers

#endif  // FRAZ_TESTS_TEST_HELPERS_HPP
