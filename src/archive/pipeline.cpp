#include "archive/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>

#include "codec/checksum.hpp"
#include "core/loss.hpp"
#include "opt/thread_pool.hpp"
#include "pressio/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace fraz::archive::detail {

namespace {

// Process-wide pack-plane metrics.  ArchiveWriteResult keeps its own plain
// counters (CI gates warm_chunks on them); these registry twins are bumped at
// the same sites so METRICS / --json expositions see every pipeline.
telemetry::Counter& chunks_counter() {
  static telemetry::Counter& c = telemetry::global().counter("pack.chunks");
  return c;
}

telemetry::Counter& warm_chunks_counter() {
  static telemetry::Counter& c = telemetry::global().counter("pack.warm_chunks");
  return c;
}

telemetry::Counter& refined_chunks_counter() {
  static telemetry::Counter& c = telemetry::global().counter("pack.refined_chunks");
  return c;
}

telemetry::Counter& retrained_chunks_counter() {
  static telemetry::Counter& c = telemetry::global().counter("pack.retrained_chunks");
  return c;
}

telemetry::Counter& rate_fallback_counter() {
  static telemetry::Counter& c =
      telemetry::global().counter("pack.rate_fallback_chunks");
  return c;
}

telemetry::Gauge& staged_bytes_gauge() {
  static telemetry::Gauge& g = telemetry::global().gauge("pack.staged_bytes");
  return g;
}

/// Field keys inside the writer's shared BoundStore.  The tune key is stable
/// across builds so the persistent engine warm-starts a whole time series of
/// the same field, and every chunk gets its OWN key — per-(field, chunk)
/// keys are what make sharing one store across workers deterministic: a
/// chunk's warm bound depends only on its field and index, never on which
/// worker got it — and what lets each field of a multi-field archive
/// warm-start independently.
std::string field_tune_key(const std::string& field) {
  return "archive:" + field + ":chunk0";
}

std::string chunk_field_key(const std::string& field, std::size_t i) {
  return "archive:" + field + ":chunk:" + std::to_string(i);
}

/// Chunk boundaries must depend on the data geometry only (never on worker
/// count), so 1-thread and N-thread packs produce identical archives.
std::size_t auto_chunk_extent(std::size_t n0, std::size_t plane_bytes) {
  constexpr std::size_t kTargetChunks = 16;
  constexpr std::size_t kMinChunkBytes = 4096;
  std::size_t extent = (n0 + kTargetChunks - 1) / kTargetChunks;
  if (extent * plane_bytes < kMinChunkBytes)
    extent = (kMinChunkBytes + plane_bytes - 1) / plane_bytes;
  return std::min(std::max<std::size_t>(extent, 1), n0);
}

unsigned resolve_workers(unsigned requested, std::size_t tasks) {
  unsigned w = requested == 0 ? std::thread::hardware_concurrency() : requested;
  if (w == 0) w = 1;
  return static_cast<unsigned>(std::min<std::size_t>(w, tasks));
}

/// Deterministic estimate of the non-chunk archive bytes one chunk is
/// responsible for (its manifest entry plus a share of the manifest header
/// and footer), so the rate fallback targets the chunk's share of the
/// *aggregate* band rather than the naive payload ratio.
double per_chunk_overhead(const Shape& shape, std::size_t chunk_count) {
  const double fixed = 112.0 + 10.0 * static_cast<double>(shape.size());
  return 26.0 + fixed / static_cast<double>(chunk_count);
}

/// The ZFP band-miss rescue: when accuracy mode cannot express the band on a
/// small chunk (its bit-plane treads quantize the reachable ratios), retry
/// in fixed-rate mode, where the output size is a near-linear function of
/// the rate and any ratio is expressible.  Deterministic secant iteration on
/// the rate; keeps whichever archive (accuracy or best rate) lands closest
/// to the chunk's target bytes.  On success with a closer rate-mode archive,
/// \p out is replaced and \p fell_back set.
Status zfp_rate_rescue(pressio::Compressor& rate_backend, const ArrayView& slice,
                       double target_ratio, double epsilon, double overhead_bytes,
                       Buffer& out, bool& fell_back) noexcept {
  try {
    const double raw = static_cast<double>(slice.size_bytes());
    const double target = std::max(raw / target_ratio - overhead_bytes, 24.0);
    const double elements = static_cast<double>(slice.elements());
    const double max_rate = static_cast<double>(dtype_size(slice.dtype())) * 8.0;
    const double min_rate = 1.0 / 16.0;
    double best_diff = std::abs(static_cast<double>(out.size()) - target);
    Buffer trial, best;
    bool improved = false;
    double rate = std::clamp((target - 40.0) * 8.0 / elements, min_rate, max_rate);
    double prev_rate = 0, prev_size = 0;
    for (int iter = 0; iter < 6; ++iter) {
      rate_backend.set_options(
          pressio::Options{{"zfp:mode", std::string("rate")}, {"zfp:rate", rate}});
      const Status s = rate_backend.compress_into(slice, trial);
      if (!s.ok()) return s;
      const double size = static_cast<double>(trial.size());
      const double diff = std::abs(size - target);
      if (diff < best_diff) {
        best_diff = diff;
        best.swap(trial);
        improved = true;
      }
      if (ratio_acceptable(raw / (size + overhead_bytes), target_ratio, epsilon)) break;
      double next;
      if (prev_size > 0 && size != prev_size)
        next = rate + (target - size) * (rate - prev_rate) / (size - prev_size);
      else
        next = rate * (target / std::max(size, 1.0));
      prev_rate = rate;
      prev_size = size;
      rate = std::clamp(next, min_rate, max_rate);
      if (rate == prev_rate) break;
    }
    if (improved) {
      out.swap(best);
      fell_back = true;
    }
    return Status();
  } catch (...) {
    return status_from_current_exception();
  }
}

/// Everything the pipeline tracks per chunk before emission.
struct Slot {
  Buffer bytes;
  CompressOutcome outcome;
  std::uint32_t crc = 0;  ///< computed by the worker, outside the lock
  double ratio = 0;
  double seconds = 0;
  bool rate_fallback = false;
  bool ready = false;
};

/// What one field's pipeline hands back to the assembler at close.
struct PipelineOutcome {
  std::vector<ChunkReport> chunks;
  std::size_t region_bytes = 0;       ///< compressed bytes this field emitted
  std::size_t peak_buffered_chunks = 0;
  std::size_t peak_buffered_bytes = 0;
  std::size_t peak_staged_bytes = 0;  ///< peak raw chunk-row bytes held at once
  std::size_t tuner_probe_calls = 0;  ///< summed over the worker engines
  std::size_t probe_cache_hits = 0;
};

}  // namespace

/// The shared parallel chunk pipeline, push mode: the assembler submits
/// owned chunk rows in index order; submit() admits rows under a bounded
/// window (submitted-but-unemitted ≤ workers + 1 — which bounds both the
/// raw rows staged and the compressed payloads buffered) and the completion
/// path drains ready chunks to the sink strictly in index order —
/// append-only for the sink, bounded memory for the writer, bytes
/// independent of worker count and transport.  Every worker engine adopts
/// the warm state's BoundStore and ProbeCache; chunk i reads and commits
/// only its own (field, i) key, pre-seeded by the assembler, so the shared
/// stores never make bytes scheduling-dependent.
class ChunkPipeline {
public:
  ChunkPipeline(const ArchiveWriteConfig& config, const WriterWarmState& state,
                std::string field_name, const Shape& field_shape,
                std::size_t chunk_count, std::size_t base_offset, ByteSink& sink)
      : config_(config),
        state_(state),
        field_name_(std::move(field_name)),
        chunk_count_(chunk_count),
        base_offset_(base_offset),
        sink_(sink),
        workers_(resolve_workers(config.threads, chunk_count)),
        window_(static_cast<std::size_t>(workers_) + 1),
        try_rate_fallback_(config.zfp_rate_fallback && config.engine.compressor == "zfp"),
        overhead_(per_chunk_overhead(field_shape, chunk_count)) {
    slots_.resize(chunk_count_);
    outcome_.chunks.resize(chunk_count_);
    pool_ = std::make_unique<ThreadPool>(workers_);
    futures_.reserve(workers_);
    for (unsigned w = 0; w < workers_; ++w)
      futures_.push_back(pool_->submit([this] { worker(); }));
  }

  ~ChunkPipeline() {
    if (!joined_) {
      // Abandoned build: poison the pipeline so workers drop the backlog
      // instead of compressing and emitting it, then join.
      {
        LockGuard lock(mutex_);
        fail_locked(Status::internal("archive: build abandoned"));
      }
      (void)shut_down();
    }
  }

  ChunkPipeline(const ChunkPipeline&) = delete;
  ChunkPipeline& operator=(const ChunkPipeline&) = delete;

  /// Take ownership of the next chunk row.  Blocks while the window is full
  /// — this back-pressure is the writer's input-memory bound.
  Status submit(NdArray row) noexcept {
    try {
      UniqueLock lock(mutex_);
      while (!failed_ && live_chunks_ >= window_) space_cv_.wait(lock);
      if (failed_) return failure_;
      if (submit_next_ >= chunk_count_)
        return Status::internal("archive: more chunk rows than the field declared");
      ++live_chunks_;
      outcome_.peak_buffered_chunks = std::max(outcome_.peak_buffered_chunks, live_chunks_);
      staged_bytes_ += row.size_bytes();
      outcome_.peak_staged_bytes = std::max(outcome_.peak_staged_bytes, staged_bytes_);
      staged_bytes_gauge().add(static_cast<std::int64_t>(row.size_bytes()));
      queue_.emplace_back(submit_next_++, std::move(row));
      work_cv_.notify_one();
      return Status();
    } catch (...) {
      return status_from_current_exception();
    }
  }

  /// Drain the pipeline and return the field's chunk reports.
  Result<PipelineOutcome> finish() noexcept {
    try {
      const Status join_status = shut_down();
      if (!join_status.ok()) return join_status;
      // Post-join the workers are gone, so the lock is uncontended — taking
      // it anyway keeps the guarded-state contract uniform.
      LockGuard lock(mutex_);
      if (failed_) return failure_;
      if (write_head_ != chunk_count_)
        return Status::internal(
            "archive: chunk pipeline closed before every chunk was emitted");
      outcome_.region_bytes = emitted_bytes_;
      return std::move(outcome_);
    } catch (...) {
      return status_from_current_exception();
    }
  }

private:
  Status shut_down() noexcept {
    if (joined_) return Status();
    {
      LockGuard lock(mutex_);
      closed_ = true;
    }
    work_cv_.notify_all();
    Status status;
    for (auto& f : futures_) {
      try {
        f.get();
      } catch (...) {
        status = status_from_current_exception();
      }
    }
    futures_.clear();
    pool_.reset();
    joined_ = true;
    return status;
  }

  void fail_locked(Status status) FRAZ_REQUIRES(mutex_) {
    if (!failed_) {
      failed_ = true;
      failure_ = std::move(status);
    }
    work_cv_.notify_all();
    space_cv_.notify_all();
  }

  /// Fold one engine's tuning spend into the pipeline totals — called
  /// exactly once per worker exit path, always under the lock.
  void account_tuning_locked(const Engine& engine) FRAZ_REQUIRES(mutex_) {
    outcome_.tuner_probe_calls += engine.stats().tuner_probe_calls;
    outcome_.probe_cache_hits += engine.stats().probe_cache_hits;
  }

  void worker() {
    auto created = Engine::create(serial_tuning(config_.engine));
    if (!created.ok()) {
      LockGuard lock(mutex_);
      fail_locked(created.status());
      return;
    }
    Engine engine = std::move(created).value();
    engine.adopt_bound_store(state_.bounds);
    engine.adopt_probe_cache(state_.probes);
    pressio::CompressorPtr rate_backend;  // lazy, per-worker (not thread-safe)
    for (;;) {
      std::size_t i = 0;
      NdArray row;
      {
        UniqueLock lock(mutex_);
        while (!failed_ && !closed_ && queue_.empty()) work_cv_.wait(lock);
        if (failed_ || (queue_.empty() && closed_)) {
          account_tuning_locked(engine);
          return;
        }
        i = queue_.front().first;
        row = std::move(queue_.front().second);
        queue_.pop_front();
      }

      Timer chunk_timer;
      const ArrayView slice = row.view();
      const std::string chunk_key = chunk_field_key(field_name_, i);
      Buffer bytes;
      CompressOutcome chunk_outcome;
      Status status;
      bool fell_back = false;
      {
        TELEM_SPAN("pack.compress_us");
        status = engine.compress(chunk_key, slice, bytes, &chunk_outcome);
        if (status.ok() && try_rate_fallback_ && !chunk_outcome.in_band) {
          // The rescue backend inherits the user's zfp options; the rate
          // search overrides only zfp:mode / zfp:rate per probe.
          try {
            if (!rate_backend)
              rate_backend =
                  pressio::registry().create("zfp", config_.engine.compressor_options);
            status =
                zfp_rate_rescue(*rate_backend, slice, config_.engine.tuner.target_ratio,
                                config_.engine.tuner.epsilon, overhead_, bytes, fell_back);
          } catch (...) {
            status = status_from_current_exception();
          }
        }
      }
      // Checksum and ratio are per-payload and deterministic — compute them
      // here so the lock below covers only ordering and emission.
      const std::uint32_t crc = status.ok() ? crc32(bytes.data(), bytes.size()) : 0;
      const double ratio = status.ok() && bytes.size() > 0
                               ? static_cast<double>(slice.size_bytes()) /
                                     static_cast<double>(bytes.size())
                               : 0;
      const double seconds = chunk_timer.seconds();
      const std::size_t row_bytes = row.size_bytes();
      row = NdArray();  // release the raw input row before taking the lock

      LockGuard lock(mutex_);
      staged_bytes_ -= row_bytes;
      staged_bytes_gauge().sub(static_cast<std::int64_t>(row_bytes));
      if (!status.ok()) {
        fail_locked(std::move(status));
        account_tuning_locked(engine);
        return;
      }
      if (failed_) {
        account_tuning_locked(engine);
        return;
      }
      Slot& slot = slots_[i];
      slot.bytes = std::move(bytes);
      slot.outcome = chunk_outcome;
      slot.crc = crc;
      slot.ratio = ratio;
      slot.seconds = seconds;
      slot.rate_fallback = fell_back;
      slot.ready = true;
      live_bytes_ += slot.bytes.size();
      outcome_.peak_buffered_bytes = std::max(outcome_.peak_buffered_bytes, live_bytes_);
      // Drain every ready chunk at the write head: emission is strictly in
      // index order regardless of completion order.
      while (write_head_ < chunk_count_ && slots_[write_head_].ready) {
        Slot& head = slots_[write_head_];
        const std::size_t head_size = head.bytes.size();
        ChunkReport& report = outcome_.chunks[write_head_];
        report.entry.offset = base_offset_ + emitted_bytes_;
        report.entry.size = head_size;
        // A rate-mode payload honours no pointwise bound — record 0 in the
        // manifest so readers cannot mistake the abandoned accuracy bound
        // for a guarantee; the tuned bound still seeds the next write.
        report.entry.error_bound = head.rate_fallback ? 0 : head.outcome.error_bound;
        report.tuned_bound = head.outcome.error_bound;
        report.entry.crc = head.crc;
        report.ratio = head.ratio;
        report.seconds = head.seconds;
        report.warm = head.outcome.warm;
        report.refined = head.outcome.refined;
        report.retrained = head.outcome.retrained;
        report.rate_fallback = head.rate_fallback;
        report.in_band = ratio_acceptable(report.ratio, config_.engine.tuner.target_ratio,
                                          config_.engine.tuner.epsilon);
        chunks_counter().add();
        if (report.warm) warm_chunks_counter().add();
        if (report.refined) refined_chunks_counter().add();
        if (report.retrained) retrained_chunks_counter().add();
        if (report.rate_fallback) rate_fallback_counter().add();
        Status sink_status;
        {
          TELEM_SPAN("pack.emit_us");
          sink_status = sink_.append(head.bytes.data(), head_size);
        }
        if (!sink_status.ok()) {
          fail_locked(sink_status);
          account_tuning_locked(engine);
          return;
        }
        emitted_bytes_ += head_size;
        live_bytes_ -= head_size;
        --live_chunks_;
        Buffer().swap(head.bytes);  // release the payload's memory
        ++write_head_;
      }
      space_cv_.notify_all();
    }
  }

  const ArchiveWriteConfig& config_;
  const WriterWarmState& state_;
  const std::string field_name_;
  const std::size_t chunk_count_;
  const std::size_t base_offset_;  ///< this field's base within the chunk region
  ByteSink& sink_;
  const unsigned workers_;
  const std::size_t window_;
  const bool try_rate_fallback_;
  const double overhead_;

  Mutex mutex_;
  CondVar work_cv_;   ///< workers wait for queued rows
  CondVar space_cv_;  ///< submit waits for window space
  std::deque<std::pair<std::size_t, NdArray>> queue_ FRAZ_GUARDED_BY(mutex_);
  std::vector<Slot> slots_ FRAZ_GUARDED_BY(mutex_);
  PipelineOutcome outcome_ FRAZ_GUARDED_BY(mutex_);
  std::size_t submit_next_ FRAZ_GUARDED_BY(mutex_) = 0;
  std::size_t write_head_ FRAZ_GUARDED_BY(mutex_) = 0;
  /// submitted but not yet emitted
  std::size_t live_chunks_ FRAZ_GUARDED_BY(mutex_) = 0;
  /// completed-but-unemitted payload bytes
  std::size_t live_bytes_ FRAZ_GUARDED_BY(mutex_) = 0;
  /// queued + in-compression raw row bytes
  std::size_t staged_bytes_ FRAZ_GUARDED_BY(mutex_) = 0;
  std::size_t emitted_bytes_ FRAZ_GUARDED_BY(mutex_) = 0;
  bool closed_ FRAZ_GUARDED_BY(mutex_) = false;
  bool failed_ FRAZ_GUARDED_BY(mutex_) = false;
  Status failure_ FRAZ_GUARDED_BY(mutex_);
  /// Touched only by the owner thread (submit/finish caller), never by
  /// workers — not lock-guarded.
  bool joined_ = false;

  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::future<void>> futures_;
};

EngineConfig serial_tuning(EngineConfig config) {
  config.tuner.threads = 1;
  return config;
}

// ---------------------------------------------------------------- assembler

/// One field mid-ingestion: its geometry, the single staged chunk row, and
/// the pipeline compressing completed rows.
struct ArchiveAssembler::OpenField {
  std::string name;
  DType dtype{};
  Shape shape;
  std::size_t extent = 0;
  std::size_t chunk_count = 0;
  std::size_t plane_bytes = 0;
  std::size_t stage_row_bytes = 0;  ///< full chunk-row allocation (memory bound)
  std::size_t pushed_planes = 0;    ///< total planes received
  std::size_t staged_planes = 0;    ///< planes in the current stage row
  std::size_t next_chunk = 0;       ///< index of the row being staged
  bool tuned = false;
  NdArray stage;                    ///< the ONE chunk row being assembled
  std::unique_ptr<ChunkPipeline> pipeline;
  EngineStats tune_stats_before;    ///< tune-engine counters at open
};

ArchiveAssembler::ArchiveAssembler(const ArchiveWriteConfig& config,
                                   WriterWarmState& state, ByteSink& sink)
    : config_(config), state_(state), sink_(sink) {}

ArchiveAssembler::~ArchiveAssembler() = default;

Status ArchiveAssembler::open_field(const std::string& name,
                                    const FieldDesc& desc) noexcept {
  try {
    if (!failed_.ok()) return failed_;
    if (finished_) return Status::invalid_argument("archive: build already finished");
    if (open_)
      return Status::invalid_argument("archive: field '" + open_->name +
                                      "' is still open; close it first");
    if (name.empty() || name.size() > 256)
      return Status::invalid_argument("archive: field name must be 1..256 bytes");
    if (manifest_fields_.size() >= kMaxFields)
      return Status::invalid_argument("archive: at most " +
                                      std::to_string(kMaxFields) +
                                      " fields per archive");
    for (const FieldInfo& field : manifest_fields_)
      if (field.name == name)
        return Status::invalid_argument("archive: duplicate field name '" + name + "'");
    if (desc.shape.empty() || desc.shape.size() > 8)
      return Status::invalid_argument("archive: field rank must be 1..8");
    if (shape_elements(desc.shape) == 0)
      return Status::invalid_argument("archive: cannot pack an empty array");

    auto field = std::make_unique<OpenField>();
    field->name = name;
    field->dtype = desc.dtype;
    field->shape = desc.shape;
    const std::size_t n0 = desc.shape[0];
    field->plane_bytes =
        (shape_elements(desc.shape) / n0) * dtype_size(desc.dtype);
    const std::size_t requested =
        desc.chunk_extent > 0 ? desc.chunk_extent : config_.chunk_extent;
    field->extent = requested > 0 ? std::min(requested, n0)
                                  : auto_chunk_extent(n0, field->plane_bytes);
    field->chunk_count = (n0 + field->extent - 1) / field->extent;
    field->stage_row_bytes = std::min(field->extent, n0) * field->plane_bytes;

    // A geometry change re-maps chunk indices onto different planes, so the
    // per-chunk warm keys of the previous geometry are meaningless — drop
    // them (the chunk-0 tune key survives: it tracks the field, not a chunk).
    const double target = config_.engine.tuner.target_ratio;
    WriterWarmState::FieldGeometry& geometry = state_.fields[name];
    if (geometry.shape != desc.shape || geometry.extent != field->extent) {
      for (std::size_t i = 0; i < geometry.chunk_count; ++i)
        state_.bounds->erase(chunk_field_key(name, i), target);
      geometry.shape = desc.shape;
      geometry.extent = field->extent;
      geometry.chunk_count = field->chunk_count;
    }

    Shape row_shape = desc.shape;
    row_shape[0] = std::min(field->extent, n0);
    field->stage = NdArray(desc.dtype, std::move(row_shape));
    field->tune_stats_before = state_.tune_engine.stats();
    open_ = std::move(field);
    return Status();
  } catch (...) {
    return status_from_current_exception();
  }
}

Status ArchiveAssembler::push(const ArrayView& slab) noexcept {
  try {
    if (!failed_.ok()) return failed_;
    if (!open_) return Status::invalid_argument("archive: no field session is open");
    OpenField& field = *open_;
    if (slab.dtype() != field.dtype)
      return Status::invalid_argument("archive: slab dtype does not match field '" +
                                      field.name + "'");
    if (slab.dims() != field.shape.size())
      return Status::invalid_argument("archive: slab rank does not match field '" +
                                      field.name + "'");
    for (std::size_t d = 1; d < field.shape.size(); ++d)
      if (slab.shape()[d] != field.shape[d])
        return Status::invalid_argument(
            "archive: slab plane shape does not match field '" + field.name + "'");
    const std::size_t planes = slab.shape()[0];
    if (planes == 0)
      return Status::invalid_argument("archive: slab must hold at least one plane");
    if (field.pushed_planes + planes > field.shape[0])
      return Status::invalid_argument(
          "archive: field '" + field.name + "' overflows its declared " +
          std::to_string(field.shape[0]) + " planes");

    // Stage planes into the current chunk row; dispatch each row the moment
    // it completes.  The slab is copied, so the caller's buffer is free for
    // the next acquisition as soon as push returns.
    const auto* src = static_cast<const std::uint8_t*>(slab.data());
    std::size_t remaining = planes;
    while (remaining > 0) {
      const std::size_t room = field.stage.shape()[0] - field.staged_planes;
      const std::size_t take = std::min(room, remaining);
      {
        // Only the staging copy — submit_stage (tuning + pipeline hand-off)
        // is accounted by the compress/emit spans downstream.
        TELEM_SPAN("pack.stage_us");
        std::memcpy(static_cast<std::uint8_t*>(field.stage.data()) +
                        field.staged_planes * field.plane_bytes,
                    src, take * field.plane_bytes);
      }
      src += take * field.plane_bytes;
      field.staged_planes += take;
      field.pushed_planes += take;
      remaining -= take;
      if (field.staged_planes == field.stage.shape()[0]) {
        const Status s = submit_stage();
        if (!s.ok()) {
          failed_ = s;
          return s;
        }
      }
    }
    return Status();
  } catch (...) {
    return status_from_current_exception();
  }
}

Status ArchiveAssembler::submit_stage() noexcept {
  try {
    OpenField& field = *open_;
    if (!field.tuned) {
      // Chunk 0 is complete: run the field's shared ratio training (or its
      // warm confirmation) and seed every chunk key BEFORE any worker
      // compresses.  Deterministic per-chunk snapshot: each key holds
      // exactly the bound its compression will warm-start from — its own
      // previous-build bound when one is stored (the time dimension of
      // Algorithm 3), else the fresh chunk-0 bound.  Seeds depend only on
      // (field, chunk index), so the bytes a chunk compresses to cannot
      // depend on which worker handled it or on how many workers ran.
      Result<TuneResult> tuned =
          state_.tune_engine.tune(field_tune_key(field.name), field.stage.view());
      if (!tuned.ok()) return tuned.status();
      const double shared_bound = tuned.value().error_bound;
      const double target = config_.engine.tuner.target_ratio;
      for (std::size_t i = 0; i < field.chunk_count; ++i) {
        const std::string key = chunk_field_key(field.name, i);
        if (state_.bounds->get(key, target) <= 0)
          state_.bounds->put(key, target, shared_bound);
      }
      field.pipeline = std::make_unique<ChunkPipeline>(
          config_, state_, field.name, field.shape, field.chunk_count,
          chunk_bytes_emitted_, sink_);
      field.tuned = true;
    }

    NdArray row = std::move(field.stage);
    ++field.next_chunk;
    field.staged_planes = 0;
    if (field.next_chunk < field.chunk_count) {
      Shape row_shape = field.shape;
      row_shape[0] = std::min(field.extent,
                              field.shape[0] - field.next_chunk * field.extent);
      field.stage = NdArray(field.dtype, std::move(row_shape));
    } else {
      field.stage = NdArray();
    }
    return field.pipeline->submit(std::move(row));
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<FieldWriteReport> ArchiveAssembler::close_field() noexcept {
  try {
    if (!failed_.ok()) return failed_;
    if (!open_) return Status::invalid_argument("archive: no field session is open");
    OpenField& field = *open_;
    if (field.pushed_planes != field.shape[0])
      return Status::invalid_argument(
          "archive: field '" + field.name + "' is incomplete: " +
          std::to_string(field.pushed_planes) + " of " +
          std::to_string(field.shape[0]) + " planes pushed");

    Result<PipelineOutcome> piped = field.pipeline->finish();
    if (!piped.ok()) {
      failed_ = piped.status();
      return failed_;
    }
    PipelineOutcome outcome = std::move(piped).value();

    FieldInfo manifest_field;
    manifest_field.name = field.name;
    manifest_field.compressor = config_.engine.compressor;
    manifest_field.dtype = field.dtype;
    manifest_field.shape = field.shape;
    manifest_field.chunk_extent = field.extent;
    manifest_field.chunk_count = field.chunk_count;
    manifest_field.target_ratio = config_.engine.tuner.target_ratio;
    manifest_field.epsilon = config_.engine.tuner.epsilon;
    manifest_field.raw_bytes = shape_elements(field.shape) * dtype_size(field.dtype);
    manifest_field.payload_bytes = outcome.region_bytes;
    manifest_field.payload_ratio = static_cast<double>(manifest_field.raw_bytes) /
                                   static_cast<double>(manifest_field.payload_bytes);
    manifest_field.chunks.reserve(outcome.chunks.size());
    for (const ChunkReport& report : outcome.chunks)
      manifest_field.chunks.push_back(report.entry);

    FieldWriteReport report;
    report.name = field.name;
    report.dtype = field.dtype;
    report.shape = field.shape;
    report.chunk_extent = field.extent;
    report.chunk_count = field.chunk_count;
    report.raw_bytes = manifest_field.raw_bytes;
    report.payload_bytes = manifest_field.payload_bytes;
    report.payload_ratio = manifest_field.payload_ratio;
    report.in_band = ratio_acceptable(report.payload_ratio,
                                      config_.engine.tuner.target_ratio,
                                      config_.engine.tuner.epsilon);
    for (const ChunkReport& chunk : outcome.chunks) {
      report.warm_chunks += chunk.warm;
      report.refined_chunks += chunk.refined;
      report.retrained_chunks += chunk.retrained;
      report.rate_fallback_chunks += chunk.rate_fallback;
    }
    report.chunks = std::move(outcome.chunks);
    all_chunks_.insert(all_chunks_.end(), report.chunks.begin(), report.chunks.end());

    const EngineStats& tune_after = state_.tune_engine.stats();
    tuner_probe_calls_ += outcome.tuner_probe_calls +
                          (tune_after.tuner_probe_calls -
                           field.tune_stats_before.tuner_probe_calls);
    probe_cache_hits_ += outcome.probe_cache_hits +
                         (tune_after.probe_cache_hits -
                          field.tune_stats_before.probe_cache_hits);
    peak_buffered_chunks_ = std::max(peak_buffered_chunks_, outcome.peak_buffered_chunks);
    peak_buffered_bytes_ = std::max(peak_buffered_bytes_, outcome.peak_buffered_bytes);
    peak_staged_bytes_ = std::max(peak_staged_bytes_,
                                  outcome.peak_staged_bytes + field.stage_row_bytes);
    chunk_bytes_emitted_ += manifest_field.payload_bytes;
    total_raw_bytes_ += manifest_field.raw_bytes;

    manifest_fields_.push_back(std::move(manifest_field));
    reports_.push_back(std::move(report));
    open_.reset();
    return reports_.back();
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<ArchiveWriteResult> ArchiveAssembler::finish() noexcept {
  try {
    if (!failed_.ok()) return failed_;
    if (finished_) return Status::invalid_argument("archive: build already finished");
    if (open_)
      return Status::invalid_argument("archive: field '" + open_->name +
                                      "' is still open; close it before finish");
    if (manifest_fields_.empty())
      return Status::invalid_argument("archive: build holds no fields");

    const auto append = [&](const Buffer& block) {
      const Status s = sink_.append(block.data(), block.size());
      if (!s.ok()) failed_ = s;
      return s;
    };

    Buffer manifest;
    encode_manifest_fields(manifest_fields_, manifest);
    if (!append(manifest).ok()) return failed_;

    ArchiveWriteResult result;
    const FieldInfo& first = manifest_fields_.front();
    result.format_version = kFormatVersionMultiField;
    result.chunk_count = first.chunk_count;
    result.chunk_extent = first.chunk_extent;
    result.raw_bytes = total_raw_bytes_;
    result.archive_bytes = sink_.bytes_written() + kFooterBytes;
    result.achieved_ratio = static_cast<double>(result.raw_bytes) /
                            static_cast<double>(result.archive_bytes);
    result.in_band = ratio_acceptable(result.achieved_ratio,
                                      config_.engine.tuner.target_ratio,
                                      config_.engine.tuner.epsilon);
    for (const FieldWriteReport& report : reports_) {
      result.warm_chunks += report.warm_chunks;
      result.refined_chunks += report.refined_chunks;
      result.retrained_chunks += report.retrained_chunks;
      result.rate_fallback_chunks += report.rate_fallback_chunks;
    }
    result.tuner_probe_calls = tuner_probe_calls_;
    result.probe_cache_hits = probe_cache_hits_;
    result.peak_buffered_chunks = peak_buffered_chunks_;
    result.peak_buffered_bytes = peak_buffered_bytes_;
    result.peak_staged_bytes = peak_staged_bytes_;
    result.chunks = std::move(all_chunks_);
    result.fields = std::move(reports_);

    Buffer footer;
    encode_footer(chunk_bytes_emitted_, manifest.size(), result.raw_bytes,
                  result.archive_bytes, result.achieved_ratio, footer);
    if (!append(footer).ok()) return failed_;

    result.seconds = timer_.seconds();
    finished_ = true;
    return result;
  } catch (...) {
    return status_from_current_exception();
  }
}

}  // namespace fraz::archive::detail

namespace fraz::archive {

WriterWarmState::WriterWarmState(const EngineConfig& engine_config)
    : tune_engine(detail::serial_tuning(engine_config)),
      bounds(std::make_shared<BoundStore>()),
      probes(std::make_shared<ProbeCache>()) {
  tune_engine.adopt_bound_store(bounds);
  tune_engine.adopt_probe_cache(probes);
}

}  // namespace fraz::archive

