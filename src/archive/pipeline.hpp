#ifndef FRAZ_ARCHIVE_PIPELINE_HPP
#define FRAZ_ARCHIVE_PIPELINE_HPP

/// \file pipeline.hpp
/// The write core of `fraz::archive`: the byte sinks a build appends to (a
/// growable Buffer, or a file the sink owns) and the push-based archive
/// assembler every build runs.  The matching read-side core (`ChunkSource` +
/// `ReaderCore`) lives in `archive/reader_core.hpp`.
///
/// The assembler is the engine behind both the push-based FieldSession API
/// and the single-array `write(ArrayView)` path: callers push slabs, the
/// assembler stages exactly one chunk row per open field and dispatches each
/// completed row into the parallel chunk pipeline, which admits rows under a
/// bounded window (submitted-but-unemitted ≤ workers + 1) and emits payloads
/// to the sink strictly in index order — which is what lets a file be
/// written append-only while keeping the bytes identical to an in-memory
/// pack at any worker count, and what bounds writer input memory to
/// O(chunk-row × workers) however the data arrives.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "archive/format.hpp"
#include "engine/engine.hpp"
#include "ndarray/ndarray.hpp"
#include "util/buffer.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"

namespace fraz::archive::detail {

/// Writer-internal engines tune single-threaded: archive parallelism comes
/// from chunks.  Tuned bounds are identical at any thread count (lockstep
/// region rounds, serial refinement), so this moves time, never bytes.  The
/// chunk-0 engine stays serial too although no chunk worker runs while it
/// trains: its probe batches would wake the shared pool, whose threads each
/// keep a malloc arena of compressor scratch alive (tune-cold benchmark on
/// a 4-core x86-64 host: peak RSS ~19 MB -> ~28 MB, pack speed within
/// run-to-run noise).
EngineConfig serial_tuning(EngineConfig config);

/// Append-only destination of one archive build.
class ByteSink {
public:
  virtual ~ByteSink() = default;
  /// Append \p size bytes; a non-ok Status aborts the build.
  virtual Status append(const std::uint8_t* data, std::size_t size) noexcept = 0;
  /// Flush and close the destination once the archive is complete.
  virtual Status finish() noexcept = 0;
  /// Total bytes appended so far.
  virtual std::size_t bytes_written() const noexcept = 0;
};

/// Sink over a caller-owned Buffer (the in-memory transport).
class BufferSink final : public ByteSink {
public:
  explicit BufferSink(Buffer& out) noexcept : out_(out) {}
  Status append(const std::uint8_t* data, std::size_t size) noexcept override {
    try {
      out_.append(data, size);
      return Status();
    } catch (...) {
      return status_from_current_exception();
    }
  }
  Status finish() noexcept override { return Status(); }
  std::size_t bytes_written() const noexcept override { return out_.size(); }

private:
  Buffer& out_;
};

/// Sink over a file it owns (the streaming file transport).  Failures
/// capture errno at the failing call — fwrite for appends, fflush/fclose for
/// finish() — so the returned Status carries the OS error detail instead of
/// whatever a later library call left behind.  A sink destroyed before a
/// successful finish() closes and removes its partial file: a half-written
/// archive would fail open() anyway, and campaigns retry by path.
class FileSink final : public ByteSink {
public:
  /// Create or truncate \p path; throws IoError carrying the OS detail.
  static std::unique_ptr<FileSink> create(const std::string& path);

  FileSink(std::FILE* file, std::string path) noexcept
      : file_(file), path_(std::move(path)) {}
  ~FileSink() override;

  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  Status append(const std::uint8_t* data, std::size_t size) noexcept override;
  /// Flush and close; on failure the partial file is removed.
  Status finish() noexcept override;
  std::size_t bytes_written() const noexcept override { return written_; }

private:
  std::FILE* file_;  ///< null once finished
  std::string path_;
  std::size_t written_ = 0;
};

class ChunkPipeline;

/// Transport-independent build of one complete v3 archive through a
/// ByteSink.  Fields are ingested one at a time: open_field() declares the
/// geometry (and invalidates stale per-chunk warm keys), push() stages
/// planes into the current chunk row and dispatches completed rows to the
/// parallel pipeline, close_field() drains the field, finish() appends the
/// field-table manifest and footer.
///
/// \p state carries the persistent warm knowledge between builds: the
/// per-field chunk-0 tuning engine, the shared BoundStore of per-(field,
/// chunk) warm bounds (every worker engine adopts it, each chunk
/// reading/writing only its own deterministic key), and the shared probe
/// dedup cache.  This is the single write path behind ArchiveWriter, whatever
/// sink it writes to.
class ArchiveAssembler {
public:
  ArchiveAssembler(const ArchiveWriteConfig& config, WriterWarmState& state,
                   ByteSink& sink);
  ~ArchiveAssembler();

  ArchiveAssembler(const ArchiveAssembler&) = delete;
  ArchiveAssembler& operator=(const ArchiveAssembler&) = delete;

  Status open_field(const std::string& name, const FieldDesc& desc) noexcept;
  Status push(const ArrayView& slab) noexcept;
  Result<FieldWriteReport> close_field() noexcept;
  Result<ArchiveWriteResult> finish() noexcept;

private:
  struct OpenField;

  /// Dispatch the staged chunk row (tuning + seeding the field first when it
  /// is chunk 0) and stage the next row.
  Status submit_stage() noexcept;

  const ArchiveWriteConfig config_;
  WriterWarmState& state_;
  ByteSink& sink_;
  Timer timer_;

  std::unique_ptr<OpenField> open_;
  std::vector<FieldInfo> manifest_fields_;   ///< closed fields, write order
  std::vector<FieldWriteReport> reports_;
  std::vector<ChunkReport> all_chunks_;
  std::size_t chunk_bytes_emitted_ = 0;      ///< absolute base of the next field
  std::size_t total_raw_bytes_ = 0;
  std::size_t tuner_probe_calls_ = 0;
  std::size_t probe_cache_hits_ = 0;
  std::size_t peak_buffered_chunks_ = 0;
  std::size_t peak_buffered_bytes_ = 0;
  std::size_t peak_staged_bytes_ = 0;
  bool finished_ = false;
  Status failed_;               ///< sticky: first failure poisons the build
};

}  // namespace fraz::archive::detail

#endif  // FRAZ_ARCHIVE_PIPELINE_HPP
