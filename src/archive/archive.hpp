#ifndef FRAZ_ARCHIVE_ARCHIVE_HPP
#define FRAZ_ARCHIVE_ARCHIVE_HPP

/// \file archive.hpp
/// Chunked, seekable super-frame archive over the fixed-ratio pipeline.
///
/// FRaZ's ratio guarantee is framed per whole field, but production stores
/// (cf. C-Blosc2's super-chunk/frame design) shard data into independently
/// compressed, checksummed chunks so large campaigns get parallel compression
/// and random access without full decompression.  An archive shards each
/// field along its slowest dimension, compresses every chunk through a
/// `fraz::Engine` on the shared thread pool, and enforces the fixed ratio at
/// the *archive* level: per-chunk ratios may drift inside (or even out of)
/// the band, the aggregate raw/archive ratio is what must land in ρt(1±ε)
/// and is recorded in the footer.
///
/// **One writer, one reader.**  ArchiveWriter picks its byte sink from the
/// argument it is given — a caller-owned `Buffer&` or a file path, which it
/// streams append-only as chunks finish (output memory O(largest chunk ×
/// workers), so archives may exceed RAM).  ArchiveReader picks its byte
/// source from its factory — caller memory (zero-copy), or a file read
/// through mmap or positioned reads, touching only the footer and manifest
/// at open and exactly the chunks a request covers after.  Buffer and file
/// builds of the same data are byte-identical at any worker count.
///
/// **Ingestion is push-based.**  Data enters through a FieldSession:
/// `begin()` starts a build, `open_field(name, desc)` declares one field's
/// geometry, and the caller push()es planes or slabs as they arrive —
/// simulation time steps, instrument planes — in any slab granularity.  The
/// session assembles chunk rows and hands each completed row to the parallel
/// chunk pipeline immediately, so writer *input* memory is O(chunk-row ×
/// workers), never O(field).  `write(ArrayView)` is begin() plus one session
/// fed a single slab under kDefaultFieldName.
///
/// Every writer emits format v3 (any number of named fields); v1 and v2
/// archives stay readable.  The wire formats are documented in
/// `archive/format.hpp`.
///
/// Seekability: the manifest and footer carry their own CRCs, chunk CRCs live
/// in the manifest, and chunk payloads are validated only when touched — a
/// flipped bit in chunk i fails exactly the reads that cover chunk i.
///
/// Determinism: chunk boundaries depend only on (shape, dtype, chunk_extent),
/// every chunk warm-starts from the same chunk-0 bound, and every tuning pass
/// (the lockstep region search, the serial local refinement) picks the same
/// bound at any thread count — so packing with 1 worker and N workers yields
/// byte-identical archives, whether the data arrived as one array or plane
/// by plane.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "archive/format.hpp"
#include "archive/reader_core.hpp"
#include "engine/engine.hpp"
#include "ndarray/ndarray.hpp"
#include "util/buffer.hpp"
#include "util/status.hpp"

namespace fraz::archive {

namespace detail {
class ArchiveAssembler;
class ByteSink;
}  // namespace detail

/// Construction-time configuration of an archive writer.
struct ArchiveWriteConfig {
  /// Backend + tuning knobs; engine.tuner.target_ratio/epsilon define the
  /// archive-level acceptance band.  Tuner thread parallelism is forced to 1
  /// inside the writer — archive parallelism comes from chunks (see
  /// detail::serial_tuning).  Tuned bounds do not depend on the tuner's
  /// thread count, so it never changes the archive bytes.
  EngineConfig engine;
  /// Slowest-axis planes per chunk; 0 picks a policy from the shape alone
  /// (~16 chunks, at least 4 KiB of raw data each).  Per-field overrides go
  /// through FieldDesc::chunk_extent.
  std::size_t chunk_extent = 0;
  /// Chunk-compression workers; 0 selects hardware concurrency.  Never
  /// affects the output bytes.
  unsigned threads = 0;
  /// When the backend is "zfp" and a chunk's accuracy-mode ratio misses the
  /// acceptance band (ZFP's bit-plane treads are too coarse on small chunks
  /// — the expressibility limit the paper reports in §VI-B.3), recompress
  /// that chunk in fixed-rate mode at a rate targeting its share of the
  /// aggregate band.  Rate-mode chunks trade the pointwise error bound for
  /// the ratio guarantee; disable to keep every chunk error-bounded.
  bool zfp_rate_fallback = true;
};

/// Geometry of one field to be ingested through a FieldSession.
struct FieldDesc {
  DType dtype{};
  /// Full logical shape, slowest axis first.  push() delivers slabs of
  /// complete slowest-axis planes until shape[0] planes have arrived.
  Shape shape;
  /// Slowest-axis planes per chunk; 0 defers to the writer config (and its
  /// auto policy).
  std::size_t chunk_extent = 0;
};

/// Writer-side detail of one chunk (ChunkEntry plus how it was produced).
struct ChunkReport {
  ChunkEntry entry;
  /// Accuracy-mode bound the chunk was tuned at — equal to entry.error_bound
  /// except for rate-fallback chunks, whose manifest entry records 0 (no
  /// pointwise guarantee) while this bound still seeds the next write.
  double tuned_bound = 0;
  double ratio = 0;           ///< raw/compressed of this chunk alone
  double seconds = 0;         ///< wall time of this chunk's compression task
  bool warm = false;          ///< served by the shared warm-start bound
  bool refined = false;       ///< warm bound missed; local refinement landed
  bool retrained = false;     ///< chunk paid global training
  bool in_band = false;       ///< chunk ratio inside the band (informational)
  bool rate_fallback = false; ///< rescued by the ZFP fixed-rate fallback
};

/// Writer-side outcome of one field's ingestion session.
struct FieldWriteReport {
  std::string name;
  DType dtype{};
  Shape shape;
  std::size_t chunk_extent = 0;
  std::size_t chunk_count = 0;
  std::size_t raw_bytes = 0;
  std::size_t payload_bytes = 0;  ///< compressed chunk bytes of this field
  double payload_ratio = 0;       ///< raw / payload — the manifest's per-field ratio
  bool in_band = false;           ///< payload_ratio within the band (informational)
  std::size_t warm_chunks = 0;
  std::size_t refined_chunks = 0;
  std::size_t retrained_chunks = 0;
  std::size_t rate_fallback_chunks = 0;
  std::vector<ChunkReport> chunks;  ///< offsets absolute within the chunk region
};

/// Outcome of one archive write.  The flat members mirror
/// the archive totals (and fields[0]'s geometry), `fields` the per-field
/// breakdown.
struct ArchiveWriteResult {
  std::uint8_t format_version = 0;  ///< always kFormatVersionMultiField
  std::size_t chunk_count = 0;      ///< fields[0]'s chunk count
  std::size_t chunk_extent = 0;     ///< fields[0]'s chunk extent
  std::size_t raw_bytes = 0;        ///< total across every field
  std::size_t archive_bytes = 0;
  double achieved_ratio = 0;  ///< raw / archive — the footer's aggregate ratio
  bool in_band = false;       ///< aggregate ratio within ρt(1±ε)
  std::size_t warm_chunks = 0;
  std::size_t refined_chunks = 0;
  std::size_t retrained_chunks = 0;
  std::size_t rate_fallback_chunks = 0;
  /// Compressor probes actually spent tuning this write (chunk-0 training
  /// plus every chunk engine's tuning), cache-served probes excluded.
  std::size_t tuner_probe_calls = 0;
  /// Tuning probes the writer's shared probe cache served for free.
  std::size_t probe_cache_hits = 0;
  /// Peak number of chunk payloads the writer held in memory at once
  /// (claimed-but-unemitted); bounded by workers + 1, which is what makes
  /// a path build's memory O(largest chunk × workers).
  std::size_t peak_buffered_chunks = 0;
  /// Peak bytes of completed-but-unemitted chunk payloads.
  std::size_t peak_buffered_bytes = 0;
  /// Peak bytes of raw *input* the writer owned at once: queued and
  /// in-compression chunk rows plus the session's staging row.  Bounded by
  /// (workers + 2) chunk rows — the push path never materializes a field.
  std::size_t peak_staged_bytes = 0;
  double seconds = 0;
  std::vector<ChunkReport> chunks;       ///< every chunk, all fields, in write order
  std::vector<FieldWriteReport> fields;  ///< per-field breakdown, in write order
};

/// Warm-start state a writer carries across write() calls and field
/// sessions, whatever sink each build writes to: the persistent
/// chunk-0 tuning engine plus the thread-safe stores every per-worker chunk
/// engine adopts — a BoundStore holding the freshest feasible bound under a
/// deterministic per-(field, chunk) key (the time dimension of Algorithm 3;
/// one key per chunk so worker scheduling can never change which bound a
/// chunk sees, one namespace per field so fields warm-start independently),
/// and the ProbeCache that dedups tuning probes across chunks, fields, and
/// writes.
struct WriterWarmState {
  explicit WriterWarmState(const EngineConfig& engine_config);

  Engine tune_engine;   ///< persistent per-field chunk-0 warm start
  BoundStorePtr bounds;
  ProbeCachePtr probes;

  /// Chunk-grid geometry a field's per-chunk warm keys were minted for; an
  /// ingest of the same field with a different geometry invalidates them
  /// (the chunk index would map onto different planes).
  struct FieldGeometry {
    Shape shape;
    std::size_t extent = 0;
    std::size_t chunk_count = 0;
  };
  std::map<std::string, FieldGeometry> fields;
};

/// Handle to one field's in-progress ingestion: push planes/slabs as they
/// arrive, then close().  Obtained from a writer's open_field(); the handle
/// tracks its build weakly, so a session that outlives the build (after
/// cancel() or writer destruction) degrades to "session is closed" errors
/// instead of dangling.  Move-only; always close() before dropping — an
/// unclosed field keeps its build from finishing.
class FieldSession {
public:
  FieldSession() noexcept = default;  ///< disengaged
  FieldSession(FieldSession&& other) noexcept = default;
  FieldSession& operator=(FieldSession&& other) noexcept = default;
  FieldSession(const FieldSession&) = delete;
  FieldSession& operator=(const FieldSession&) = delete;
  ~FieldSession() = default;

  bool open() const noexcept { return !assembler_.expired(); }

  /// Ingest \p slab: one or more complete slowest-axis planes, shaped
  /// {k, rest...} with the field's trailing extents and dtype.  Completed
  /// chunk rows dispatch to the parallel pipeline immediately; push blocks
  /// only when the pipeline's bounded window is full (which is what bounds
  /// the writer's input memory).  The slab is copied — the caller may reuse
  /// its buffer the moment push returns.
  Status push(const ArrayView& slab) noexcept;

  /// Finish the field: waits for its chunks to be compressed and emitted.
  /// Fails (and stays open) if fewer than shape[0] planes were pushed.
  Result<FieldWriteReport> close() noexcept;

private:
  friend class ArchiveWriter;
  explicit FieldSession(std::weak_ptr<detail::ArchiveAssembler> assembler) noexcept
      : assembler_(std::move(assembler)) {}

  std::weak_ptr<detail::ArchiveAssembler> assembler_;
};

/// Shards fields along their slowest dimension and compresses the chunks in
/// parallel, one Engine per worker.  Warm-starting is Algorithm 3's reuse
/// applied twice: within a field, every chunk starts from the bound tuned on
/// that field's chunk 0; across write() calls / sessions for the same field
/// name (a time series packed through one writer), each chunk starts from
/// the bound *it* used last step.  Both seeds depend only on (field, chunk)
/// identity — never on which worker handles a chunk — so a whole campaign
/// pays full ratio training roughly once per field and the archives stay
/// byte-identical at any worker count.
class ArchiveWriter {
public:
  /// Non-throwing factory; unknown backends / invalid tuner configs come
  /// back as a Status.
  static Result<ArchiveWriter> create(ArchiveWriteConfig config) noexcept;

  /// Throwing convenience constructor (setup code, tests).
  explicit ArchiveWriter(ArchiveWriteConfig config);

  ArchiveWriter(ArchiveWriter&&) noexcept;
  ArchiveWriter& operator=(ArchiveWriter&&) noexcept;
  /// Abandons an active build (see cancel()).
  ~ArchiveWriter();

  const ArchiveWriteConfig& config() const noexcept { return config_; }

  /// Compress \p data into a complete archive holding one field named
  /// kDefaultFieldName: begin() + one session fed the whole array +
  /// finish().  Into the caller's reusable \p out (unspecified on failure),
  /// or streamed to \p path (created or truncated; removed on failure).
  /// Fails while a begin() build is active.
  Result<ArchiveWriteResult> write(const ArrayView& data, Buffer& out) noexcept;
  Result<ArchiveWriteResult> write(const std::string& path, const ArrayView& data) noexcept;

  /// Start a build into \p out (cleared; it must outlive the build) or
  /// streamed to the file at \p path (created or truncated).  Fails if a
  /// build is already in progress.
  Status begin(Buffer& out) noexcept;
  Status begin(const std::string& path) noexcept;

  /// Declare the next field of the current build and get its ingestion
  /// session.  One field is open at a time; names must be unique within the
  /// build (and are the warm-start namespace across builds).
  Result<FieldSession> open_field(const std::string& name, const FieldDesc& desc) noexcept;

  /// Seal the build: write the field-table manifest and footer, then flush
  /// and close a file sink.  Every opened field must have been closed.  On
  /// an assembler failure the build stays active — close the offending
  /// field and retry, or cancel(); on a filesystem failure the partial file
  /// is removed.
  Result<ArchiveWriteResult> finish() noexcept;

  /// Abandon an in-progress build: a Buffer is left holding a partial,
  /// unreadable archive; a partial file is closed and removed.  No-op when
  /// no build is active.
  void cancel() noexcept;

  /// The writer's persistent per-(field, chunk) warm-bound store — the state
  /// worth saving between tuning-campaign runs (see BoundStore::save/load).
  const BoundStorePtr& bound_store() const noexcept { return state_->bounds; }

private:
  /// Start a build appending to \p sink.
  Status start(std::unique_ptr<detail::ByteSink> sink) noexcept;
  /// One session fed \p data, then finish(); cancels the build on failure.
  Result<ArchiveWriteResult> write_single(const ArrayView& data) noexcept;

  ArchiveWriteConfig config_;
  /// Heap-allocated so sessions and assemblers can hold stable references
  /// across writer moves.
  std::unique_ptr<WriterWarmState> state_;
  std::unique_ptr<detail::ByteSink> sink_;           ///< active build only
  std::shared_ptr<detail::ArchiveAssembler> build_;  ///< active build only
};

/// Random-access reader over an archive in caller memory or in a file.
/// open() validates footer and manifest only — chunk payloads are fetched
/// and checked (CRC + backend validation) by exactly the reads that touch
/// them, so corruption in one chunk leaves every other chunk readable.
/// Reads all format versions; the unnamed read methods serve fields()[0]
/// (the only field of a v1/v2 archive).  Not thread-safe (one serial decode
/// engine per field); serve::ReaderPool shares one reader's source across
/// threads.
class ArchiveReader {
public:
  /// Open \p size bytes at \p data, zero-copy: the reader does not own the
  /// bytes, which must outlive it.
  static Result<ArchiveReader> open(const std::uint8_t* data, std::size_t size) noexcept;

  /// Open the archive file at \p path: mmap'd (the POSIX default) or read
  /// through positioned reads, per \p mode.
  static Result<ArchiveReader> open(const std::string& path,
                                    FileReadMode mode = FileReadMode::kAuto) noexcept;

  ArchiveReader(ArchiveReader&&) noexcept;
  ArchiveReader& operator=(ArchiveReader&&) noexcept;
  ~ArchiveReader();

  const ArchiveInfo& info() const noexcept { return core_.info(); }

  /// Field table of the archive (one synthesized entry for v1/v2).
  const std::vector<FieldInfo>& fields() const noexcept { return core_.fields(); }

  /// True when this reader serves fetches through an mmap'd file view.
  bool mapped() const noexcept { return source_->mapped(); }

  /// The reader's byte source.  Thread-safe for concurrent fetches; this is
  /// what lets serve::ReaderPool decode chunks from many threads over one
  /// open archive.
  const detail::ChunkSource& chunk_source() const noexcept { return *source_; }

  /// Shape of chunk \p i ({extent_i, rest...}; the last chunk may be short).
  Shape chunk_shape(std::size_t i) const;
  Shape chunk_shape(const std::string& field, std::size_t i) const;

  /// Decompress a whole field.  \p threads > 1 decodes chunks in parallel,
  /// one Engine per worker; 0 selects hardware concurrency.
  Result<NdArray> read_all(unsigned threads = 1) noexcept;
  Result<NdArray> read_all(const std::string& field, unsigned threads = 1) noexcept;

  /// Decompress exactly chunk \p i of a field, validating only its bytes.
  Result<NdArray> read_chunk(std::size_t i) noexcept;
  Result<NdArray> read_chunk(const std::string& field, std::size_t i) noexcept;

  /// Decompress the slowest-axis plane range [first, first + count) of a
  /// field, touching (and validating) only the chunks that cover it.  Wide
  /// ranges decode their chunks in parallel when \p threads allows (same
  /// semantics as read_all; output ordering and per-chunk CRC isolation
  /// preserved).
  Result<NdArray> read_range(std::size_t first, std::size_t count,
                             unsigned threads = 1) noexcept;
  Result<NdArray> read_range(const std::string& field, std::size_t first,
                             std::size_t count, unsigned threads = 1) noexcept;

private:
  ArchiveReader(std::unique_ptr<const detail::ChunkSource> source,
                detail::ReaderCore core) noexcept;

  /// The one open path: footer, then manifest, then per-field engines.
  static Result<ArchiveReader> open_source(
      std::unique_ptr<const detail::ChunkSource> source) noexcept;

  std::unique_ptr<const detail::ChunkSource> source_;  ///< memory, mmap or pread
  detail::ReaderCore core_;                            ///< per-field read dispatch
};

}  // namespace fraz::archive

#endif  // FRAZ_ARCHIVE_ARCHIVE_HPP
