#ifndef FRAZ_CORE_PROBE_HPP
#define FRAZ_CORE_PROBE_HPP

/// \file probe.hpp
/// The shared probe layer under every tuner: one place that spends
/// compressor evaluations, batched onto the shared thread pool and
/// deduplicated through a cache keyed by (data fingerprint, compressor
/// configuration, error bound).
///
/// The paper observes that probe evaluations dominate tuning cost and that
/// overlapping regions re-evaluate the same bounds (§V-C).  Before this
/// layer, four independent loops — the batch Tuner, the quality tuner, the
/// online tuner, and the archive pipeline's per-chunk engines — each paid
/// their own probes and held their own scratch.  Now the Tuner drives
/// ask/tell SearchStates in lockstep rounds and submits one probe batch per
/// round; identical (data, config, bound) triples anywhere in the process
/// cost exactly one compression, and a deterministic backend makes a cached
/// ratio indistinguishable from a fresh one — so caching can never change a
/// tuned bound, only the number of compressions spent reaching it.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ndarray/ndarray.hpp"
#include "pressio/compressor.hpp"
#include "util/buffer.hpp"
#include "util/thread_annotations.hpp"

namespace fraz {

namespace telemetry {
class Counter;
class Histogram;
}  // namespace telemetry

/// Fidelity metric a quality probe can measure (used by tune_for_quality).
enum class QualityMetric {
  kPsnrDb,  ///< peak signal-to-noise ratio in dB (higher = better)
  kSsim,    ///< structural similarity in [0, 1] (higher = better); 2D/3D only
};

/// Strided-fingerprint contract (data_fingerprint below): buffers at most
/// this large hash every byte; larger ones hash the total length plus
/// kFingerprintWindows evenly spaced kFingerprintWindowBytes-byte windows,
/// the first anchored at offset 0 and the last ending at the final byte.
inline constexpr std::size_t kFingerprintFullPassBytes = 1u << 20;
inline constexpr std::size_t kFingerprintWindows = 64;
inline constexpr std::size_t kFingerprintWindowBytes = 256;

/// 64-bit content fingerprint of an array: dtype, shape, and the data.
/// Buffers up to kFingerprintFullPassBytes are hashed in full; larger ones
/// are sampled per the strided contract above, so the cost is bounded
/// (~16 KiB of reads) no matter how large the probe input grows.  Two
/// buffers that differ only in bytes outside the sampled windows therefore
/// collide BY DESIGN — acceptable for the probe cache, whose entries are
/// keyed per (compressor config, bound) and whose worst case is a stale
/// ratio estimate, never a correctness failure.
std::uint64_t data_fingerprint(const ArrayView& data) noexcept;

/// Fingerprint of a compressor's identity and configuration (name plus the
/// full option map).  The probe axis — the error bound — is keyed
/// separately, so a prototype's current bound setting does not matter.
std::uint64_t compressor_fingerprint(const pressio::Compressor& compressor);

/// One cached probe observation.
struct ProbeRecord {
  double ratio = 0;       ///< raw bytes / compressed bytes at the probed bound
  double quality = 0;     ///< metric value (quality probes only; else 0)
};

/// Thread-safe dedup cache of probe observations.  Bounded by a
/// two-generation scheme: entries live in a *current* generation; when that
/// generation reaches half the budget it becomes the *previous* generation
/// (dropping whatever the old previous one still held), and a hit in the
/// previous generation promotes the entry back into the current one.  An
/// entry touched at least once per generation therefore survives
/// indefinitely, while cold entries age out — long multi-field campaigns
/// keep their hot probes instead of losing everything to a wholesale clear.
/// Eviction is deterministic (driven purely by the insert sequence) and can
/// never change a tuned bound, only the number of compressions spent.
class ProbeCache {
public:
  explicit ProbeCache(std::size_t max_entries = 1u << 16);

  /// Look up the record for (context key, bound[, metric tag]); true on hit.
  /// A hit in the previous generation promotes the entry.
  bool lookup(std::uint64_t context, double bound, ProbeRecord& out) const noexcept;
  /// Insert an observation (overwrites an identical key).
  void insert(std::uint64_t context, double bound, const ProbeRecord& record);

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t entries = 0;
  };
  Stats stats() const noexcept;
  void clear() noexcept;

private:
  static std::uint64_t slot(std::uint64_t context, double bound) noexcept;
  /// Rotate generations once the current one fills its half-budget.
  void rotate_if_full_locked() const FRAZ_REQUIRES(mutex_);

  mutable Mutex mutex_;
  // lookup() promotes hot entries, so both generations mutate under a const
  // interface; the mutex makes that promotion safe.
  mutable std::unordered_map<std::uint64_t, ProbeRecord> current_
      FRAZ_GUARDED_BY(mutex_);
  mutable std::unordered_map<std::uint64_t, ProbeRecord> previous_
      FRAZ_GUARDED_BY(mutex_);
  std::size_t generation_budget_;  ///< max entries per generation (half the total)
  mutable std::size_t hits_ FRAZ_GUARDED_BY(mutex_) = 0;
  mutable std::size_t misses_ FRAZ_GUARDED_BY(mutex_) = 0;
};

using ProbeCachePtr = std::shared_ptr<ProbeCache>;

/// One probe's outcome as seen by a search: the observation plus whether the
/// cache (or an identical probe earlier in the same batch) already paid it.
struct ProbeOutcome {
  ProbeRecord record;
  bool from_cache = false;
};

/// Executes probes for one compressor configuration: clones workers on
/// demand (kept in an internal context pool so scratch buffers reach their
/// zero-allocation steady state), batches misses onto the shared thread
/// pool, and consults/feeds the shared ProbeCache.  Thread-safe; one
/// executor may serve concurrent searches over different data.
class ProbeExecutor {
public:
  /// \param prototype cloned once per worker context on demand.
  /// \param cache shared dedup cache (non-null).
  /// \param threads concurrency cap for one batch; 0 = hardware, 1 = inline.
  ProbeExecutor(const pressio::Compressor& prototype, ProbeCachePtr cache,
                unsigned threads);

  /// Cache context key for \p data under this executor's compressor config.
  /// Compute once per search and reuse across its rounds.
  std::uint64_t context_key(const ArrayView& data) const noexcept;

  /// Evaluate ratio probes for one batch of bounds (one search round).
  /// Results are positionally aligned with \p bounds.  Duplicate bounds in
  /// the batch and cache hits cost nothing; misses run concurrently up to
  /// the thread cap on the shared pool, the calling thread included (so a
  /// batch issued from inside a pool task cannot stall).  Throws on
  /// compression failure.
  std::vector<ProbeOutcome> probe_ratios(const ArrayView& data, std::uint64_t context,
                                         const std::vector<double>& bounds);

  /// Single ratio probe (prediction / warm / refinement paths).  When \p out
  /// is non-null, a probe that runs the compressor compresses into *out, so
  /// a caller that keeps the winning probe's bytes as its archive pays no
  /// second compression; a cache hit leaves *out untouched.
  ProbeOutcome probe_ratio(const ArrayView& data, std::uint64_t context, double bound,
                           Buffer* out = nullptr);

  /// Compress + decompress + metric probe for the quality tuner.  Cached
  /// under a metric-tagged key; record.quality carries the metric value and
  /// record.ratio the compression ratio of the same pass.
  ProbeOutcome probe_quality(const ArrayView& data, std::uint64_t context, double bound,
                             QualityMetric metric);

  const ProbeCachePtr& cache() const noexcept { return cache_; }
  /// Compressor invocations actually spent by this executor.
  std::size_t executed() const noexcept;
  /// Probes served without a compressor invocation.
  std::size_t cache_hits() const noexcept;

private:
  /// Per-worker state: a backend clone plus reusable scratch.
  struct Context {
    pressio::CompressorPtr compressor;
    Buffer scratch;
    NdArray decoded;
  };

  std::unique_ptr<Context> checkout();
  void checkin(std::unique_ptr<Context> context);
  ProbeRecord execute_ratio(Context& context, const ArrayView& data, double bound,
                            Buffer& out);

  pressio::CompressorPtr prototype_;
  std::uint64_t config_fingerprint_;
  ProbeCachePtr cache_;
  unsigned threads_;

  // Backend-labeled telemetry handles, resolved once in the constructor from
  // the prototype's name ("tune.probe_us.sz", "tune.probes_executed.szx",
  // ...).  These add a per-backend dimension so probe cost is attributable
  // to the compressor that paid it; the generic unlabeled metrics stay — CI
  // asserts them.  The span name string must outlive every SpanTimer that
  // borrows its c_str(), hence the owned member.
  std::string probe_span_name_;
  telemetry::Histogram* probe_hist_backend_;
  telemetry::Counter* probes_executed_backend_;
  telemetry::Counter* cache_hits_backend_;

  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Context>> idle_ FRAZ_GUARDED_BY(mutex_);
  std::size_t executed_ FRAZ_GUARDED_BY(mutex_) = 0;
  std::size_t cache_hits_ FRAZ_GUARDED_BY(mutex_) = 0;
};

}  // namespace fraz

#endif  // FRAZ_CORE_PROBE_HPP
