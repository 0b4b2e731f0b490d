#ifndef FRAZ_ENGINE_ENGINE_HPP
#define FRAZ_ENGINE_ENGINE_HPP

/// \file engine.hpp
/// The fraz::Engine facade: one object that owns the whole fixed-ratio
/// pipeline — registry-constructed backend, tuner, and a bound cache — so
/// consumers stop hand-wiring registry + Tuner + metrics for every use.
///
/// The cache is the paper's Algorithm 3 time-step reuse promoted into the
/// API: bounds are keyed by (field, target ratio), and every tune through
/// the Engine warm-starts from the last feasible bound for that key.  A
/// climate campaign that calls `compress("CLOUD", step_t)` per time step
/// pays full training once and a single confirmation probe afterwards.
///
/// All entry points are non-throwing (Status / Result), matching the
/// CompressorV2 contract — an Engine is what a long-running service embeds,
/// and a service treats failure as data, not as control flow.

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "core/probe.hpp"
#include "core/tuner.hpp"
#include "engine/bound_store.hpp"
#include "pressio/compressor.hpp"
#include "pressio/evaluate.hpp"
#include "util/buffer.hpp"
#include "util/status.hpp"

namespace fraz {

/// Construction-time configuration of an Engine.
struct EngineConfig {
  /// Registered backend name ("sz", "zfp", "mgard", "truncate", or a
  /// user-registered plugin).
  std::string compressor = "sz";
  /// Applied to the backend at construction (Registry::create(name, opts)).
  pressio::Options compressor_options;
  /// Tuning knobs; tuner.target_ratio is the default target for requests
  /// that do not name one.
  TunerConfig tuner;
};

/// Aggregate counters of one Engine's lifetime.
struct EngineStats {
  std::size_t tunes = 0;            ///< tune() / compress() tuning passes
  std::size_t warm_hits = 0;        ///< satisfied by the cached bound alone
  std::size_t refines = 0;          ///< brought into band by local refinement
  std::size_t retrains = 0;         ///< fell back to global training
  std::size_t compress_calls = 0;   ///< archive-producing compressions
  std::size_t decompress_calls = 0;
  /// Compressor invocations actually spent inside tuning (probes the shared
  /// cache served for free are excluded — they cost no compression).
  std::size_t tuner_probe_calls = 0;
  /// Tuning probes the shared probe cache answered without a compression.
  std::size_t probe_cache_hits = 0;
};

/// Per-field slice of an Engine's counters, keyed by the field name handed
/// to tune()/compress() — what a multi-field campaign reports per stream.
/// (compress_at and decompress are field-less and tracked only in the
/// aggregate EngineStats.)
struct EngineFieldStats {
  std::size_t tunes = 0;
  std::size_t warm_hits = 0;
  std::size_t refines = 0;
  std::size_t retrains = 0;
  std::size_t compress_calls = 0;
};

/// Per-call detail of one Engine::compress (what the archive writer records
/// in its chunk index).
struct CompressOutcome {
  double error_bound = 0;     ///< bound the archive was produced at
  double achieved_ratio = 0;  ///< raw bytes / archive bytes of this call
  bool warm = false;          ///< served by the cached bound (archive-as-probe)
  bool retrained = false;     ///< global training ran for this call
  bool in_band = false;       ///< achieved ratio within the acceptance band
  /// The cached bound missed and local refinement (Tuner::retune) brought
  /// the call into band without global training.
  bool refined = false;
};

/// Facade over registry + tuner + bound cache.  Not thread-safe; give each
/// worker its own Engine.  The two caches — the warm BoundStore and the
/// dedup ProbeCache — ARE thread-safe and are meant to be shared: sibling
/// worker Engines adopt one store so every worker warm-starts from the
/// freshest feasible bounds and identical probes are paid once
/// (adopt_bound_store / adopt_probe_cache).
class Engine {
public:
  /// Non-throwing factory: unknown backend names or invalid options come
  /// back as a Status.
  static Result<Engine> create(EngineConfig config) noexcept;

  /// Throwing convenience constructor (setup code, tests).
  explicit Engine(EngineConfig config);

  const EngineConfig& config() const noexcept { return config_; }
  const std::string& compressor_name() const noexcept { return config_.compressor; }

  /// Introspection of the owned backend.
  pressio::Capabilities capabilities() const { return compressor_->capabilities(); }

  /// Find the error bound for \p data at the config's default target ratio,
  /// warm-starting from the cache entry for \p field.
  Result<TuneResult> tune(const std::string& field, const ArrayView& data) noexcept {
    return tune(field, data, config_.tuner.target_ratio);
  }

  /// Same, at an explicit target ratio (cached separately per target).
  Result<TuneResult> tune(const std::string& field, const ArrayView& data,
                          double target_ratio) noexcept;

  /// Tune (cached) then compress \p data into the caller's reusable \p out.
  /// On the warm path the archive itself is the acceptance probe, so an
  /// in-band frame costs exactly one compression.  When the cached bound's
  /// achieved ratio drifts out of the band, Tuner::retune refines locally
  /// from that measured miss (keeping the in-band probe's bytes as the
  /// archive, so a refined drift costs 1 + k compressions for k refinement
  /// probes) and falls back to global training only when refinement gives
  /// up.  When \p outcome is non-null it receives the bound/ratio/path of
  /// this call.
  Status compress(const std::string& field, const ArrayView& data, Buffer& out,
                  CompressOutcome* outcome = nullptr) noexcept;

  /// Compress at an explicit error bound, bypassing tuning and cache.
  Status compress_at(double error_bound, const ArrayView& data, Buffer& out) noexcept;

  /// Decompress an archive produced by this Engine's backend.
  Result<NdArray> decompress(const std::uint8_t* data, std::size_t size) noexcept;

  /// Tune (cached) then run the full fidelity evaluation at the tuned bound.
  Result<pressio::FidelityReport> evaluate(const std::string& field,
                                           const ArrayView& data) noexcept;

  /// Last feasible bound cached for (field, default target); 0 when none.
  double cached_bound(const std::string& field) const noexcept {
    return cached_bound(field, config_.tuner.target_ratio);
  }
  double cached_bound(const std::string& field, double target_ratio) const noexcept;

  /// Inject a known-good bound into the cache (e.g. a bound tuned on a
  /// sibling chunk or restored from a previous run), so the next call for
  /// \p field warm-starts from it instead of paying full training.  A
  /// non-positive \p bound is ignored.
  void seed_bound(const std::string& field, double bound) noexcept {
    seed_bound(field, config_.tuner.target_ratio, bound);
  }
  void seed_bound(const std::string& field, double target_ratio, double bound) noexcept;

  /// Drop every cached bound (e.g. at a simulation restart).  Affects the
  /// adopted store — siblings sharing it forget too.
  void clear_cache() noexcept { bounds_->clear(); }

  /// Share warm-bound knowledge with sibling Engines: replace this Engine's
  /// store with \p store (non-null).  Existing entries of the old store are
  /// not migrated.
  void adopt_bound_store(BoundStorePtr store) noexcept;
  const BoundStorePtr& bound_store() const noexcept { return bounds_; }

  /// Share the probe dedup cache with sibling Engines / tuners (non-null).
  void adopt_probe_cache(ProbeCachePtr cache) noexcept;
  const ProbeCachePtr& probe_cache() const noexcept { return probe_cache_; }

  const EngineStats& stats() const noexcept { return stats_; }

  /// Per-field breakdown of the aggregate counters (empty until a field is
  /// tuned or compressed through this Engine).
  const std::map<std::string, EngineFieldStats>& field_stats() const noexcept {
    return field_stats_;
  }

private:
  /// The tuner of one call at \p target_ratio, over the shared probe cache.
  Tuner make_tuner(double target_ratio) const;
  /// Fold one tuning pass into the counters and apply Algorithm 3's carry
  /// rule (only an in-band bound is cached for the next call).
  void record_tune(const std::string& field, double target_ratio, const TuneResult& result);

  EngineConfig config_;
  pressio::CompressorPtr compressor_;
  BoundStorePtr bounds_;        ///< last feasible bound per (field, target)
  ProbeCachePtr probe_cache_;   ///< dedup cache fed to every tuning pass
  EngineStats stats_;
  std::map<std::string, EngineFieldStats> field_stats_;
};

}  // namespace fraz

#endif  // FRAZ_ENGINE_ENGINE_HPP
