#include "core/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>

#include "opt/global_search.hpp"
#include "opt/thread_pool.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace fraz {

namespace {

/// Mix a stream index into the base seed (splitmix-style) so every region /
/// field / step gets an independent but reproducible random stream.
std::uint64_t substream(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Local refinement tuning.  Slopes below kMinSlope (plateaus, a locally
/// decreasing curve) are floored so an unbracketed step still moves toward
/// the band; regula falsi keeps each point this far inside its bracket; a
/// bracket narrower than kCollapse in log(bound) with no in-band probe means
/// the ratio jumps over the whole band there.
constexpr double kMinSlope = 0.1;
constexpr double kInterior = 0.1;
constexpr double kCollapse = 1e-3;

/// One refinement observation: x = log(bound), f = log(ratio / target).
struct LogPoint {
  double x = 0;
  double f = 0;
};

}  // namespace

Status warm_archive_probe(pressio::Compressor& compressor, const ArrayView& data,
                          double bound, double target_ratio, double epsilon, Buffer& out,
                          WarmArchive& result) noexcept {
  try {
    compressor.set_error_bound(bound);
  } catch (...) {
    return status_from_current_exception();
  }
  const Status s = compressor.compress_into(data, out);
  if (!s.ok()) return s;
  result.ratio = static_cast<double>(data.size_bytes()) / static_cast<double>(out.size());
  result.in_band = ratio_acceptable(result.ratio, target_ratio, epsilon);
  return Status();
}

Tuner::Tuner(const pressio::Compressor& prototype, TunerConfig config)
    : Tuner(prototype, config, std::make_shared<ProbeCache>()) {}

Tuner::Tuner(const pressio::Compressor& prototype, TunerConfig config, ProbeCachePtr cache)
    : prototype_(prototype.clone()),
      config_(config),
      cache_(std::move(cache)),
      executor_(prototype, cache_, config_.threads) {
  require(config_.target_ratio > 1.0, "Tuner: target_ratio must exceed 1");
  require(config_.epsilon > 0 && config_.epsilon < 1, "Tuner: epsilon in (0, 1)");
  require(config_.regions >= 1, "Tuner: regions must be >= 1");
  require(config_.overlap >= 0 && config_.overlap < 1, "Tuner: overlap in [0, 1)");
  require(config_.max_evals_per_region >= 1, "Tuner: max_evals_per_region >= 1");
}

Region Tuner::search_range(const ArrayView& data) const {
  double hi = config_.max_error_bound;
  if (hi <= 0) {
    hi = value_range(data);
    if (hi <= 0) hi = 1.0;  // constant field: any bound behaves the same
  }
  double lo = config_.min_error_bound;
  if (lo <= 0) lo = hi * 1e-9;
  require(lo < hi, "Tuner: min_error_bound must be below max_error_bound");
  return Region{lo, hi};
}

TuneResult Tuner::tune(const ArrayView& data) const {
  return train(data, executor_.context_key(data));
}

TuneResult Tuner::train(const ArrayView& data, std::uint64_t context) const {
  require(prototype_->supports_dims(data.dims()),
          "Tuner: compressor '" + prototype_->name() + "' does not support this rank");
  Timer timer;
  if (prototype_->capabilities().lossless) {
    // A lossless backend (fpc) has a flat ratio curve: the bound never
    // changes the bytes, so one probe reveals the only achievable ratio and
    // a region search would spend its whole budget learning nothing.
    const double bound = search_range(data).hi;
    const ProbeOutcome probe = executor_.probe_ratio(data, context, bound);
    TuneResult result;
    result.error_bound = bound;
    result.achieved_ratio = probe.record.ratio;
    result.feasible =
        ratio_acceptable(probe.record.ratio, config_.target_ratio, config_.epsilon);
    result.compress_calls = 1;
    result.probe_cache_hits = probe.from_cache ? 1 : 0;
    result.seconds = timer.seconds();
    return result;
  }
  const Region range = search_range(data);
  // Optionally work in log(bound) space: the region split and the global
  // search then resolve every decade of the bound axis equally well.
  const bool log_scale = config_.log_scale_search;
  const double search_lo = log_scale ? std::log(range.lo) : range.lo;
  const double search_hi = log_scale ? std::log(range.hi) : range.hi;
  auto to_bound = [log_scale](double x) { return log_scale ? std::exp(x) : x; };
  const auto regions =
      make_error_bound_regions(search_lo, search_hi, config_.regions, config_.overlap);
  const double cutoff = loss_cutoff(config_.target_ratio, config_.epsilon);

  // One ask/tell stepper per region (paper Alg. 2), all advancing in
  // lockstep: each round collects one proposal from every live region,
  // evaluates the batch through the probe executor (dedup cache, shared
  // pool), and feeds the observations back.  The round structure replaces
  // the seed's one-blocked-thread-per-region layout and its racy
  // cancellation: the winner's round is the last round, deterministically,
  // so losing regions no longer drain their full budgets.
  std::vector<opt::SearchState> states;
  states.reserve(regions.size());
  std::vector<RegionOutcome> outcomes(regions.size());
  std::vector<double> best_dist(regions.size(), std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < regions.size(); ++i) {
    opt::SearchOptions search;
    search.max_calls = config_.max_evals_per_region;
    search.cutoff = cutoff;
    search.seed = substream(config_.seed, i);
    states.emplace_back(regions[i].lo, regions[i].hi, search);
    // Report the region in bound units even when searching in log space.
    outcomes[i].region = Region{to_bound(regions[i].lo), to_bound(regions[i].hi)};
  }

  std::vector<std::size_t> round_region;
  std::vector<double> round_x, round_bounds;
  bool any_hit = false;
  while (!any_hit) {
    round_region.clear();
    round_x.clear();
    round_bounds.clear();
    for (std::size_t i = 0; i < states.size(); ++i) {
      double x;
      if (!states[i].done() && states[i].ask(x)) {
        round_region.push_back(i);
        round_x.push_back(x);
        round_bounds.push_back(to_bound(x));
      }
    }
    if (round_region.empty()) break;  // every region exhausted its budget

    const std::vector<ProbeOutcome> probes =
        executor_.probe_ratios(data, context, round_bounds);
    for (std::size_t k = 0; k < round_region.size(); ++k) {
      const std::size_t i = round_region[k];
      const double ratio = probes[k].record.ratio;
      states[i].tell(round_x[k], ratio_loss(ratio, config_.target_ratio));
      RegionOutcome& outcome = outcomes[i];
      ++outcome.compress_calls;
      outcome.cache_hits += probes[k].from_cache;
      const double dist = std::abs(ratio - config_.target_ratio);
      if (dist < best_dist[i]) {
        best_dist[i] = dist;
        outcome.best_bound = round_bounds[k];
        outcome.best_ratio = ratio;
      }
      if (states[i].done() && states[i].result().hit_cutoff) {
        outcome.hit_cutoff = true;
        any_hit = true;
      }
    }
  }
  if (any_hit)
    for (std::size_t i = 0; i < states.size(); ++i)
      if (!states[i].done()) outcomes[i].cancelled = true;

  // Result selection: prefer in-band outcomes; otherwise the observation
  // closest to the target ratio across every region (paper Alg. 2 tail).
  TuneResult result;
  result.regions = std::move(outcomes);
  double select_dist = std::numeric_limits<double>::infinity();
  for (const RegionOutcome& o : result.regions) {
    result.compress_calls += o.compress_calls;
    result.probe_cache_hits += o.cache_hits;
    if (o.compress_calls == 0) continue;
    const double dist = std::abs(o.best_ratio - config_.target_ratio);
    const bool better =
        (o.hit_cutoff && !result.feasible) || (o.hit_cutoff == result.feasible && dist < select_dist);
    if (better) {
      result.feasible = result.feasible || o.hit_cutoff;
      select_dist = dist;
      result.error_bound = o.best_bound;
      result.achieved_ratio = o.best_ratio;
    }
  }
  result.feasible =
      ratio_acceptable(result.achieved_ratio, config_.target_ratio, config_.epsilon);
  result.seconds = timer.seconds();
  return result;
}

TuneResult Tuner::tune_with_prediction(const ArrayView& data, double predicted_bound) const {
  // Algorithm 1: when a prediction is available, try it before any training.
  if (predicted_bound > 0) {
    Timer timer;
    const std::uint64_t context = executor_.context_key(data);
    const ProbeOutcome probe = executor_.probe_ratio(data, context, predicted_bound);
    if (ratio_acceptable(probe.record.ratio, config_.target_ratio, config_.epsilon)) {
      TuneResult result;
      result.error_bound = predicted_bound;
      result.achieved_ratio = probe.record.ratio;
      result.feasible = true;
      result.from_prediction = true;
      result.compress_calls = 1;
      result.probe_cache_hits = probe.from_cache ? 1 : 0;
      result.seconds = timer.seconds();
      return result;
    }
    TuneResult result =
        refine_or_train(data, context, predicted_bound, probe.record.ratio, nullptr);
    result.compress_calls += 1;       // account for the failed prediction probe
    result.probe_cache_hits += probe.from_cache ? 1 : 0;
    result.seconds = timer.seconds();  // total including the probe
    return result;
  }
  return tune(data);
}

TuneResult Tuner::retune(const ArrayView& data, double missed_bound, double missed_ratio,
                         Buffer* archive) const {
  return refine_or_train(data, executor_.context_key(data), missed_bound, missed_ratio,
                         archive);
}

TuneResult Tuner::refine_or_train(const ArrayView& data, std::uint64_t context,
                                  double missed_bound, double missed_ratio,
                                  Buffer* archive) const {
  Timer timer;
  TuneResult local = refine(data, context, missed_bound, missed_ratio, archive);
  if (local.refined) {
    local.seconds = timer.seconds();
    return local;
  }
  if (archive != nullptr) archive->clear();
  TuneResult result = train(data, context);
  result.compress_calls += local.compress_calls;
  result.probe_cache_hits += local.probe_cache_hits;
  result.seconds = timer.seconds();
  return result;
}

TuneResult Tuner::refine(const ArrayView& data, std::uint64_t context, double missed_bound,
                         double missed_ratio, Buffer* archive) const {
  TuneResult result;
  if (!(missed_bound > 0) || !(missed_ratio > 0)) return result;
  cache_->insert(context, missed_bound, ProbeRecord{missed_ratio, 0});
  // A lossless backend's ratio does not depend on the bound: nothing to
  // refine, and training settles it with one probe.
  if (prototype_->capabilities().lossless) return result;

  const double target = config_.target_ratio;
  const double f_lo = std::log1p(-config_.epsilon);
  const double f_hi = std::log1p(config_.epsilon);
  const auto side = [f_lo, f_hi](double f) { return f < f_lo ? -1 : (f > f_hi ? 1 : 0); };
  const Region range = search_range(data);
  const double x_min = std::log(range.lo);
  const double x_max = std::log(range.hi);
  const double max_step = std::log(kRefineMaxStepFactor);

  // Unbracketed, every probe so far sits on the miss's side of the band and
  // `cur` / `prev` are the last two; bracketed, `below` / `above` are the
  // newest probes under and over the band.
  LogPoint cur{std::log(missed_bound), std::log(missed_ratio / target)};
  LogPoint prev;
  bool have_prev = false;
  LogPoint below, above;
  bool bracketed = false;
  int last_replaced = 0;  // side the previous bracketed probe replaced (Illinois)
  for (int probes = 0; probes < kRefineProbeCap; ++probes) {
    double x;
    if (bracketed) {
      if (std::abs(above.x - below.x) < kCollapse) break;
      const double t = std::clamp(below.f / (below.f - above.f), kInterior, 1 - kInterior);
      x = std::clamp(below.x + t * (above.x - below.x), x_min, x_max);
    } else {
      double slope = 1.0;
      if (have_prev && cur.x != prev.x)
        slope = std::max((cur.f - prev.f) / (cur.x - prev.x), kMinSlope);
      x = std::clamp(cur.x + std::clamp(-cur.f / slope, -max_step, max_step), x_min, x_max);
      if (x == cur.x) break;  // pinned at a range edge with no bracket
    }
    const double bound = std::exp(x);
    const ProbeOutcome probe = executor_.probe_ratio(data, context, bound, archive);
    ++result.compress_calls;
    result.probe_cache_hits += probe.from_cache ? 1 : 0;
    const LogPoint p{x, std::log(probe.record.ratio / target)};
    const int s = side(p.f);
    if (s == 0) {
      if (archive != nullptr && probe.from_cache) archive->clear();
      result.error_bound = bound;
      result.achieved_ratio = probe.record.ratio;
      result.feasible = true;
      result.refined = true;
      return result;
    }
    if (!bracketed) {
      if (s == side(cur.f)) {
        prev = cur;
        have_prev = true;
        cur = p;
        continue;
      }
      bracketed = true;
      below = s < 0 ? p : cur;
      above = s < 0 ? cur : p;
      continue;
    }
    // Illinois: when the same end is replaced twice running, halve the
    // retained end's weight so the interpolation stops creeping toward it.
    if (s < 0) {
      below = p;
      if (last_replaced < 0) above.f *= 0.5;
    } else {
      above = p;
      if (last_replaced > 0) below.f *= 0.5;
    }
    last_replaced = s;
  }
  return result;
}

SeriesResult Tuner::tune_series(const std::vector<ArrayView>& steps) const {
  require(!steps.empty(), "Tuner::tune_series: no time steps");
  SeriesResult series;
  Timer timer;
  double prediction = 0;  // p in Algorithm 3; 0 = none yet
  for (const ArrayView& step : steps) {
    StepOutcome outcome;
    outcome.result = tune_with_prediction(step, prediction);
    outcome.retrained = !outcome.result.from_prediction && !outcome.result.refined;
    if (outcome.retrained) ++series.retrain_count;
    if (outcome.result.refined) ++series.refine_count;
    // Algorithm 3 line 5-7: carry the bound forward only when it satisfied
    // the acceptance band.
    if (outcome.result.feasible) prediction = outcome.result.error_bound;
    series.total_compress_calls += outcome.result.compress_calls;
    series.total_probe_cache_hits += outcome.result.probe_cache_hits;
    series.steps.push_back(std::move(outcome));
  }
  series.seconds = timer.seconds();
  return series;
}

std::map<std::string, SeriesResult> Tuner::tune_fields(
    const std::map<std::string, std::vector<ArrayView>>& fields) const {
  require(!fields.empty(), "Tuner::tune_fields: no fields");
  // Fields stay embarrassingly parallel (paper Alg. 3) on a dedicated pool;
  // the probe batches they generate all funnel through the shared thread
  // pool, so total probe concurrency is hardware-bounded instead of
  // fields x regions.
  ThreadPool pool(config_.threads == 0
                      ? std::min<unsigned>(static_cast<unsigned>(fields.size()),
                                           std::thread::hardware_concurrency())
                      : std::min<unsigned>(config_.threads,
                                           static_cast<unsigned>(fields.size())));
  std::map<std::string, std::future<SeriesResult>> futures;
  for (const auto& [name, steps] : fields) {
    const auto* steps_ptr = &steps;
    futures.emplace(name, pool.submit([this, steps_ptr] { return tune_series(*steps_ptr); }));
  }
  std::map<std::string, SeriesResult> results;
  for (auto& [name, future] : futures) results.emplace(name, future.get());
  return results;
}

}  // namespace fraz
