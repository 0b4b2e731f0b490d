#ifndef FRAZ_CORE_TUNER_HPP
#define FRAZ_CORE_TUNER_HPP

/// \file tuner.hpp
/// The FRaZ tuner: the paper's primary contribution.
///
/// Given a black-box error-bounded compressor (any pressio::Compressor), a
/// dataset, and a target compression ratio ρt with acceptance band ε, the
/// tuner finds an error bound e whose achieved ratio ρr(e) satisfies
/// ρt(1−ε) <= ρr(e) <= ρt(1+ε), subject to an optional maximum allowed error
/// bound U.  It implements:
///
/// - **Algorithm 1 (worker task)**: probe a predicted bound first; if it is
///   already acceptable, stop; otherwise run the cutoff-modified global
///   search on the worker's error-bound region.  Extension: a missed
///   prediction is a measured (bound, ratio) point next to the answer, and
///   the ratio is locally near-monotone in the bound even where the global
///   curve is not (paper Fig. 3), so retune() first refines locally — a
///   capped bracketed secant search from the miss — and runs the global
///   search only when that gives up.
/// - **Algorithm 2 (training)**: split [lo, U] into K overlapping regions,
///   search them in parallel, cancel outstanding work as soon as any region
///   lands in the acceptance band, and fall back to the closest observed
///   ratio when the target is infeasible.
/// - **Algorithm 3 (parallel by field / time-step reuse)**: tune the first
///   time-step, then reuse the found bound for subsequent steps, retraining
///   only when the reused bound drifts out of the band; fields are tuned in
///   parallel.
///
/// All randomness is seeded; identical inputs and configuration produce
/// identical tuned bounds.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/loss.hpp"
#include "core/probe.hpp"
#include "core/regions.hpp"
#include "ndarray/ndarray.hpp"
#include "pressio/compressor.hpp"
#include "util/buffer.hpp"
#include "util/seed.hpp"
#include "util/status.hpp"

namespace fraz {

/// Outcome of one archive-as-probe pass (see warm_archive_probe).
struct WarmArchive {
  double ratio = 0;     ///< achieved compression ratio of the archive in `out`
  bool in_band = false; ///< ratio within the acceptance band of the target
};

/// Probe cap of the local refinement retune() runs before global training.
inline constexpr int kRefineProbeCap = 8;
/// Largest factor one unbracketed refinement step may move the bound by.
inline constexpr double kRefineMaxStepFactor = 16.0;

/// Algorithm 3's warm path, shared by Engine::compress and
/// OnlineTuner::push_into: compress \p data at \p bound into the caller's
/// reusable \p out and check the achieved ratio against the acceptance band
/// — the archive itself is the acceptance probe, so an in-band frame costs
/// exactly one compression.  Non-throwing; on failure \p out is unspecified.
Status warm_archive_probe(pressio::Compressor& compressor, const ArrayView& data,
                          double bound, double target_ratio, double epsilon, Buffer& out,
                          WarmArchive& result) noexcept;

/// Tuning configuration (defaults follow the paper where it states one).
struct TunerConfig {
  /// ρt — requested compression ratio.
  double target_ratio = 10.0;
  /// ε — acceptable relative deviation of the achieved ratio (paper uses 0.1
  /// in its convergence studies).
  double epsilon = 0.1;
  /// U — maximum allowed error bound.  0 selects the data's value range
  /// (the largest bound that can still matter).
  double max_error_bound = 0.0;
  /// Lower end of the search range.  0 selects U * 1e-9.
  double min_error_bound = 0.0;
  /// K — regions per dataset; the paper found 12 tasks a good tradeoff.
  int regions = 12;
  /// α — fractional overlap between adjacent regions (paper: 10%).
  double overlap = 0.1;
  /// Iteration cap per region (the paper bounds iterations, not time).
  int max_evals_per_region = 24;
  /// Worker threads for probe/field parallelism; 0 = hardware concurrency.
  /// Probe batches run on the shared opt thread pool capped at this count;
  /// the tuned bound is bit-identical at every thread count (the region
  /// searches advance in deterministic lockstep rounds).
  unsigned threads = 0;
  /// Deterministic seed.
  std::uint64_t seed = kDefaultSearchSeed;
  /// Search in log(error bound) space (extension over the paper, see
  /// DESIGN.md): compression-ratio curves typically span several decades of
  /// the bound axis, so the paper's linear region split leaves low-bound
  /// ratios inside a sliver of the first region.  Splitting and searching in
  /// log space resolves every decade equally; regions still overlap exactly
  /// as in Fig. 5.  Set false for the paper's literal linear behaviour.
  bool log_scale_search = true;
};

/// Outcome of one region's search.
struct RegionOutcome {
  Region region{};
  double best_bound = 0;    ///< e with ratio closest to target in this region
  double best_ratio = 0;    ///< ρr at best_bound
  int compress_calls = 0;   ///< probes this region's search consumed
  int cache_hits = 0;       ///< of those, served by the probe cache for free
  bool hit_cutoff = false;  ///< landed inside the acceptance band
  bool cancelled = false;   ///< stopped early because another region won
};

/// Result of tuning one dataset.
struct TuneResult {
  double error_bound = 0;    ///< recommended error bound e
  double achieved_ratio = 0; ///< ρr(e)
  bool feasible = false;     ///< true when inside the acceptance band
  bool from_prediction = false;  ///< satisfied by the warm-start probe alone
  /// Landed in band by local refinement around a missed bound (retune()),
  /// without global training.
  bool refined = false;
  int compress_calls = 0;    ///< probes the search consumed (cache hits included)
  int probe_cache_hits = 0;  ///< probes served without a compressor invocation
  double seconds = 0;        ///< wall time of the tuning
  std::vector<RegionOutcome> regions;  ///< per-region detail (empty unless
                                       ///< global training ran)
};

/// Per-time-step outcome within a series.
struct StepOutcome {
  TuneResult result;
  bool retrained = false;  ///< global training ran (the reused bound missed the
                           ///< band and local refinement gave up)
};

/// Result of tuning a time series of one field.
struct SeriesResult {
  std::vector<StepOutcome> steps;
  int retrain_count = 0;  ///< steps that ran global training
  int refine_count = 0;   ///< steps that local refinement brought into band
  int total_compress_calls = 0;      ///< probes consumed (cache hits included)
  int total_probe_cache_hits = 0;    ///< of those, served by the probe cache
  double seconds = 0;
};

/// The FRaZ autotuner.  Holds a prototype compressor (cloned per probe
/// worker, see pressio::Compressor's thread-safety contract) and a
/// configuration.
///
/// Since the ask/tell refactor the K region searches (paper Alg. 2) advance
/// in deterministic lockstep rounds: each round asks every live region for
/// its next proposal, evaluates the batch through a ProbeExecutor (dedup
/// cache + shared thread pool), tells each region its observation, and
/// cancels every region the moment one lands in the acceptance band.  The
/// tuned bound is therefore bit-identical at any thread count, and losing
/// regions stop after the winner's round instead of draining their budgets.
class Tuner {
public:
  Tuner(const pressio::Compressor& prototype, TunerConfig config);

  /// Share a probe cache with other consumers (an Engine, an OnlineTuner):
  /// identical (data, config, bound) probes anywhere in the process are then
  /// paid once.  \p cache must not be null.
  Tuner(const pressio::Compressor& prototype, TunerConfig config, ProbeCachePtr cache);

  const TunerConfig& config() const noexcept { return config_; }

  /// The dedup cache this tuner consults and feeds.
  const ProbeCachePtr& probe_cache() const noexcept { return cache_; }

  /// Algorithms 1+2: full parallel training on a single dataset.
  TuneResult tune(const ArrayView& data) const;

  /// Algorithm 1 entry: probe \p predicted_bound first (0 = no prediction),
  /// then, on a miss, retune() from it.
  TuneResult tune_with_prediction(const ArrayView& data, double predicted_bound) const;

  /// The one retrain entry point, for a bound already measured out of band:
  /// \p missed_bound compressed \p data to \p missed_ratio, outside the
  /// acceptance band.  Records the miss in the probe cache (nothing probes
  /// that bound again), then runs a deterministic, serial, bracketed secant
  /// search in log(bound) / log(ratio) space starting from it: secant steps
  /// from the local slope (slope 1 at first), each clamped to
  /// kRefineMaxStepFactor and to the [lo, U] range; once a probe lands across
  /// the band, Illinois regula falsi with an interior safeguard.  It stops on
  /// the first in-band probe (result.refined) and gives up after
  /// kRefineProbeCap probes, at a range edge with no bracket, or when the
  /// bracket collapses because the ratio jumps over the whole band — and
  /// then runs global training unchanged (the result equals tune()'s, with
  /// the refinement probes added to its counts).
  ///
  /// When \p archive is non-null, refinement probes that run the compressor
  /// compress into it, so a caller can ship the winning probe's bytes as its
  /// archive.  On return *archive holds the compressed bytes of
  /// result.error_bound, or is empty when it does not (a cache-served
  /// winner, or global training ran) and the caller must compress itself.
  TuneResult retune(const ArrayView& data, double missed_bound, double missed_ratio,
                    Buffer* archive = nullptr) const;

  /// Algorithm 3 (time dimension): warm-start successive steps with the
  /// previous step's bound; retrain only on drift.
  SeriesResult tune_series(const std::vector<ArrayView>& steps) const;

  /// Algorithm 3 (field dimension): tune several fields' series in parallel.
  std::map<std::string, SeriesResult> tune_fields(
      const std::map<std::string, std::vector<ArrayView>>& fields) const;

private:
  /// Resolve the [lo, hi] search range for \p data per config defaults.
  Region search_range(const ArrayView& data) const;

  /// Full lockstep training with the probe-cache context already computed
  /// (a context is a full pass over the data — callers that probed first
  /// hand theirs down instead of paying the fingerprint twice).
  TuneResult train(const ArrayView& data, std::uint64_t context) const;

  /// retune() with the probe-cache context already computed.
  TuneResult refine_or_train(const ArrayView& data, std::uint64_t context,
                             double missed_bound, double missed_ratio,
                             Buffer* archive) const;

  /// The local search of retune(); result.refined tells whether it landed in
  /// band (its counts hold the probes spent either way).
  TuneResult refine(const ArrayView& data, std::uint64_t context, double missed_bound,
                    double missed_ratio, Buffer* archive) const;

  pressio::CompressorPtr prototype_;
  TunerConfig config_;
  ProbeCachePtr cache_;
  /// Thread-safe probe front end; mutable so const tuning entry points can
  /// spend probes (tune() is logically const: identical inputs, identical
  /// results, cache state only affects cost).
  mutable ProbeExecutor executor_;
};

}  // namespace fraz

#endif  // FRAZ_CORE_TUNER_HPP
