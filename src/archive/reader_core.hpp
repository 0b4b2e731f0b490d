#ifndef FRAZ_ARCHIVE_READER_CORE_HPP
#define FRAZ_ARCHIVE_READER_CORE_HPP

/// \file reader_core.hpp
/// The shared decode core of `fraz::archive`: the ChunkSource positioned-read
/// abstraction and its two byte sources (caller memory, a file), the chunk
/// decode/validate helpers, and ReaderCore — the per-field dispatch (field
/// lookup, chunk/range/whole-field reads) that ArchiveReader fronts and the
/// serve subsystem shares.  ReaderCore is the *serial* path: it owns one
/// Engine per field plus one fetch scratch and is not thread-safe (wrap
/// access, or use serve::ReaderPool which checks engines out per decode).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "archive/format.hpp"
#include "engine/engine.hpp"
#include "ndarray/ndarray.hpp"
#include "util/buffer.hpp"
#include "util/status.hpp"

namespace fraz::archive {

/// How ArchiveReader::open(path) accesses the file's bytes.
enum class FileReadMode {
  kAuto,      ///< mmap where the platform supports it, else buffered reads
  kMmap,      ///< require mmap; open() fails where unavailable
  kBuffered,  ///< portable positioned reads (also exercised by tests on POSIX)
};

}  // namespace fraz::archive

namespace fraz::archive::detail {

/// Positioned-read abstraction of one archive's bytes.
class ChunkSource {
public:
  virtual ~ChunkSource() = default;
  /// Total bytes of the archive.
  virtual std::size_t size() const noexcept = 0;
  /// True when fetches are served from an mmap'd view of a file.
  virtual bool mapped() const noexcept { return false; }
  /// Return a pointer to \p size bytes at absolute offset \p offset.
  /// Zero-copy transports ignore \p scratch and return into their own
  /// storage; buffered transports fill \p scratch and return its data.  The
  /// pointer stays valid until the next fetch through the same scratch.
  /// Throws CorruptStream (range) or IoError (transport failure).
  virtual const std::uint8_t* fetch(std::size_t offset, std::size_t size,
                                    Buffer& scratch) const = 0;
};

/// Zero-copy source over bytes already in memory.
class MemorySource final : public ChunkSource {
public:
  MemorySource(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}
  std::size_t size() const noexcept override { return size_; }
  const std::uint8_t* fetch(std::size_t offset, std::size_t size,
                            Buffer& scratch) const override;

private:
  const std::uint8_t* data_;
  std::size_t size_;
};

/// Open \p path as a source: an mmap'd view, or positioned reads per
/// \p mode.  Throws IoError / CorruptStream / Unsupported.
std::unique_ptr<ChunkSource> open_file_source(const std::string& path, FileReadMode mode);

/// Shape of chunk \p i of \p field ({extent_i, rest...}; last chunk short).
Shape chunk_shape(const FieldInfo& field, std::size_t i);

/// Validate chunk \p i's CRC and decode it (throwing helper shared by every
/// reader).  \p chunk_region is the archive's chunk-region base offset;
/// \p scratch backs the fetch for buffered transports.
NdArray decode_chunk(Engine& engine, const ChunkSource& source, const FieldInfo& field,
                     std::size_t chunk_region, std::size_t i, Buffer& scratch);

/// Decode the slowest-axis planes [first, first + count) of \p field into
/// \p out (whose shape must already be {count, rest...}), touching and
/// validating only the chunks that cover the range.  \p threads > 1 decodes
/// the touched chunks in parallel, one Engine per worker, each writing its
/// disjoint plane window of \p out; \p serial_engine serves the
/// single-threaded path.  Backs both read_all (first = 0, count = n0) and
/// read_range for every field.
Status read_planes(const ChunkSource& source, const FieldInfo& field,
                   std::size_t chunk_region, Engine& serial_engine,
                   Buffer& serial_scratch, std::size_t first, std::size_t count,
                   unsigned threads, NdArray& out) noexcept;

/// The per-field read dispatch every reader shares: parsed metadata, one
/// serial decode Engine per field, and the name -> index / chunk / range /
/// whole-field entry points over a caller-supplied ChunkSource.  The
/// transport (raw pointer, mmap, positioned reads) stays with the owning
/// reader; ReaderCore only ever sees fetches.
class ReaderCore {
public:
  ReaderCore() = default;  ///< disengaged (moved-from readers)

  /// Build the per-field engines for \p info's backends.
  static Result<ReaderCore> create(ArchiveInfo info) noexcept;

  const ArchiveInfo& info() const noexcept { return info_; }
  const std::vector<FieldInfo>& fields() const noexcept { return info_.fields; }

  /// Index of the field named \p name, or InvalidArgument.
  Result<std::size_t> field_index(const std::string& name) const noexcept;

  /// Shape of chunk \p i of a field; throws on unknown names / bad indices
  /// (mirrors the readers' throwing chunk_shape contract).
  Shape shape_of_chunk(std::size_t field, std::size_t i) const;
  Shape shape_of_chunk(const std::string& field, std::size_t i) const;

  /// Decompress exactly chunk \p i of a field through \p source.
  Result<NdArray> read_chunk(const ChunkSource& source, std::size_t field,
                             std::size_t i) noexcept;
  Result<NdArray> read_chunk(const ChunkSource& source, const std::string& field,
                             std::size_t i) noexcept;

  /// Decompress the slowest-axis plane range [first, first + count).
  Result<NdArray> read_range(const ChunkSource& source, std::size_t field,
                             std::size_t first, std::size_t count,
                             unsigned threads) noexcept;
  Result<NdArray> read_range(const ChunkSource& source, const std::string& field,
                             std::size_t first, std::size_t count,
                             unsigned threads) noexcept;

  /// Decompress a whole field (read_range over every plane).
  Result<NdArray> read_all(const ChunkSource& source, std::size_t field,
                           unsigned threads) noexcept;
  Result<NdArray> read_all(const ChunkSource& source, const std::string& field,
                           unsigned threads) noexcept;

private:
  explicit ReaderCore(ArchiveInfo info, std::vector<Engine> engines)
      : info_(std::move(info)), engines_(std::move(engines)) {}

  ArchiveInfo info_;
  std::vector<Engine> engines_;  ///< serial decode path, one per field
  Buffer scratch_;               ///< fetch scratch for the serial path
};

}  // namespace fraz::archive::detail

#endif  // FRAZ_ARCHIVE_READER_CORE_HPP
