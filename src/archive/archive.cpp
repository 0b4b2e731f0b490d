#include "archive/archive.hpp"

#include <algorithm>

#include "archive/pipeline.hpp"
#include "util/error.hpp"

namespace fraz::archive {

// ------------------------------------------------------------ field session

Status FieldSession::push(const ArrayView& slab) noexcept {
  const std::shared_ptr<detail::ArchiveAssembler> assembler = assembler_.lock();
  if (!assembler) return Status::invalid_argument("archive: field session is closed");
  return assembler->push(slab);
}

Result<FieldWriteReport> FieldSession::close() noexcept {
  const std::shared_ptr<detail::ArchiveAssembler> assembler = assembler_.lock();
  if (!assembler) return Status::invalid_argument("archive: field session is closed");
  Result<FieldWriteReport> report = assembler->close_field();
  if (report.ok()) assembler_.reset();
  return report;
}

// ------------------------------------------------------------------- writer

ArchiveWriter::ArchiveWriter(ArchiveWriteConfig config)
    : config_(std::move(config)),
      state_(std::make_unique<WriterWarmState>(config_.engine)) {
  // Fail construction, not the first write: the manifest records the
  // backend's registry name in a length-prefixed field capped at 256 bytes.
  if (config_.engine.compressor.empty() || config_.engine.compressor.size() > 256)
    throw InvalidArgument("archive: compressor name must be 1..256 bytes to be recorded");
}

ArchiveWriter::ArchiveWriter(ArchiveWriter&&) noexcept = default;

ArchiveWriter& ArchiveWriter::operator=(ArchiveWriter&& other) noexcept {
  if (this != &other) {
    // Join the active build before the sink and warm state it uses go away.
    cancel();
    config_ = std::move(other.config_);
    state_ = std::move(other.state_);
    sink_ = std::move(other.sink_);
    build_ = std::move(other.build_);
  }
  return *this;
}

ArchiveWriter::~ArchiveWriter() { cancel(); }

Result<ArchiveWriter> ArchiveWriter::create(ArchiveWriteConfig config) noexcept {
  try {
    return ArchiveWriter(std::move(config));
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<ArchiveWriteResult> ArchiveWriter::write(const ArrayView& data,
                                                Buffer& out) noexcept {
  const Status s = begin(out);
  if (!s.ok()) return s;
  return write_single(data);
}

Result<ArchiveWriteResult> ArchiveWriter::write(const std::string& path,
                                                const ArrayView& data) noexcept {
  const Status s = begin(path);
  if (!s.ok()) return s;
  return write_single(data);
}

Result<ArchiveWriteResult> ArchiveWriter::write_single(const ArrayView& data) noexcept {
  Result<ArchiveWriteResult> result = [&]() -> Result<ArchiveWriteResult> {
    // The single-array path IS one field session: the whole array pushed as
    // one slab.  This stages one extra memcpy pass over the input (chunk
    // rows are owned by the pipeline, so pushed data never needs to outlive
    // push()) — measured noise next to chunk compression
    // (bench_archive_stream), and the price of one write path.
    FieldDesc desc;
    desc.dtype = data.dtype();
    desc.shape = data.shape();
    Result<FieldSession> session = open_field(kDefaultFieldName, desc);
    if (!session.ok()) return session.status();
    const Status pushed = session.value().push(data);
    if (!pushed.ok()) return pushed;
    const Result<FieldWriteReport> closed = session.value().close();
    if (!closed.ok()) return closed.status();
    return finish();
  }();
  if (!result.ok()) cancel();
  return result;
}

Status ArchiveWriter::begin(Buffer& out) noexcept {
  try {
    if (build_)
      return Status::invalid_argument(
          "archive: a build is already in progress; finish() or cancel() first");
    out.clear();
    return start(std::make_unique<detail::BufferSink>(out));
  } catch (...) {
    return status_from_current_exception();
  }
}

Status ArchiveWriter::begin(const std::string& path) noexcept {
  try {
    // Checked before the file is created so a busy writer never truncates.
    if (build_)
      return Status::invalid_argument(
          "archive: a build is already in progress; finish() or cancel() first");
    return start(detail::FileSink::create(path));
  } catch (...) {
    return status_from_current_exception();
  }
}

Status ArchiveWriter::start(std::unique_ptr<detail::ByteSink> sink) noexcept {
  try {
    build_ = std::make_shared<detail::ArchiveAssembler>(config_, *state_, *sink);
    sink_ = std::move(sink);
    return Status();
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<FieldSession> ArchiveWriter::open_field(const std::string& name,
                                               const FieldDesc& desc) noexcept {
  if (!build_)
    return Status::invalid_argument("archive: no build in progress; call begin() first");
  const Status s = build_->open_field(name, desc);
  if (!s.ok()) return s;
  return FieldSession(std::weak_ptr<detail::ArchiveAssembler>(build_));
}

Result<ArchiveWriteResult> ArchiveWriter::finish() noexcept {
  if (!build_)
    return Status::invalid_argument("archive: no build in progress; call begin() first");
  Result<ArchiveWriteResult> result = build_->finish();
  // Assembler-level failure (field still open, sticky pipeline error): keep
  // the build so the caller can close the field and retry, or cancel().
  if (!result.ok()) return result;
  build_.reset();
  const Status sealed = sink_->finish();
  sink_.reset();
  if (!sealed.ok()) return sealed;
  return result;
}

void ArchiveWriter::cancel() noexcept {
  // The assembler joins its pipeline workers before the sink they emit
  // through is destroyed; an unfinished file sink removes its partial file.
  build_.reset();
  sink_.reset();
}

// ------------------------------------------------------------------- reader

ArchiveReader::ArchiveReader(std::unique_ptr<const detail::ChunkSource> source,
                             detail::ReaderCore core) noexcept
    : source_(std::move(source)), core_(std::move(core)) {}

ArchiveReader::ArchiveReader(ArchiveReader&&) noexcept = default;
ArchiveReader& ArchiveReader::operator=(ArchiveReader&&) noexcept = default;
ArchiveReader::~ArchiveReader() = default;

Result<ArchiveReader> ArchiveReader::open(const std::uint8_t* data,
                                          std::size_t size) noexcept {
  try {
    return open_source(std::make_unique<detail::MemorySource>(data, size));
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<ArchiveReader> ArchiveReader::open(const std::string& path,
                                          FileReadMode mode) noexcept {
  try {
    return open_source(detail::open_file_source(path, mode));
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<ArchiveReader> ArchiveReader::open_source(
    std::unique_ptr<const detail::ChunkSource> source) noexcept {
  try {
    // Validate only the trust anchors up front: footer, then manifest.
    const std::size_t size = source->size();
    const std::size_t tail_size = std::min(size, kFooterBytes);
    Buffer tail_scratch, manifest_scratch;
    const std::uint8_t* tail = source->fetch(size - tail_size, tail_size, tail_scratch);
    const Footer footer = parse_footer(tail, tail_size, size);
    const std::uint8_t* manifest =
        source->fetch(footer.manifest_offset, footer.manifest_size, manifest_scratch);
    ArchiveInfo info = parse_manifest(manifest, footer.manifest_size, footer);

    // ReaderCore creates one serial-path Engine per field eagerly, so an
    // archive whose backend is not registered fails open(), not the first
    // read.
    auto core = detail::ReaderCore::create(std::move(info));
    if (!core.ok()) return core.status();
    return ArchiveReader(std::move(source), std::move(core).value());
  } catch (...) {
    return status_from_current_exception();
  }
}

Shape ArchiveReader::chunk_shape(std::size_t i) const {
  return core_.shape_of_chunk(std::size_t{0}, i);
}

Shape ArchiveReader::chunk_shape(const std::string& field, std::size_t i) const {
  return core_.shape_of_chunk(field, i);
}

Result<NdArray> ArchiveReader::read_chunk(std::size_t i) noexcept {
  return core_.read_chunk(*source_, std::size_t{0}, i);
}

Result<NdArray> ArchiveReader::read_chunk(const std::string& field,
                                          std::size_t i) noexcept {
  return core_.read_chunk(*source_, field, i);
}

Result<NdArray> ArchiveReader::read_range(std::size_t first, std::size_t count,
                                          unsigned threads) noexcept {
  return core_.read_range(*source_, std::size_t{0}, first, count, threads);
}

Result<NdArray> ArchiveReader::read_range(const std::string& field, std::size_t first,
                                          std::size_t count, unsigned threads) noexcept {
  return core_.read_range(*source_, field, first, count, threads);
}

Result<NdArray> ArchiveReader::read_all(unsigned threads) noexcept {
  return core_.read_all(*source_, std::size_t{0}, threads);
}

Result<NdArray> ArchiveReader::read_all(const std::string& field,
                                        unsigned threads) noexcept {
  return core_.read_all(*source_, field, threads);
}

}  // namespace fraz::archive
