#include "engine/engine.hpp"

#include "core/loss.hpp"
#include "opt/thread_pool.hpp"
#include "pressio/registry.hpp"
#include "telemetry/telemetry.hpp"

namespace fraz {

namespace {

// EngineStats stays a plain per-instance struct — its deltas are functional
// (the archive pipeline accounts warm/retrained chunks from them) — so the
// registry gets parallel process-wide totals bumped at the same sites.
telemetry::Counter& tunes_counter() {
  static telemetry::Counter& c = telemetry::global().counter("engine.tunes");
  return c;
}

telemetry::Counter& warm_hits_counter() {
  static telemetry::Counter& c = telemetry::global().counter("engine.warm_hits");
  return c;
}

telemetry::Counter& refines_counter() {
  static telemetry::Counter& c = telemetry::global().counter("engine.refines");
  return c;
}

telemetry::Counter& retrains_counter() {
  static telemetry::Counter& c = telemetry::global().counter("engine.retrains");
  return c;
}

}  // namespace

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      compressor_(pressio::registry().create(config_.compressor, config_.compressor_options)),
      bounds_(std::make_shared<BoundStore>()),
      probe_cache_(std::make_shared<ProbeCache>()) {
  // Fail construction, not first use, on a nonsensical tuner config: the
  // Tuner constructor is the validator, so run it once here.
  (void)Tuner(*compressor_, config_.tuner, probe_cache_);
}

Result<Engine> Engine::create(EngineConfig config) noexcept {
  try {
    return Engine(std::move(config));
  } catch (...) {
    return status_from_current_exception();
  }
}

void Engine::adopt_bound_store(BoundStorePtr store) noexcept {
  if (store) bounds_ = std::move(store);
}

void Engine::adopt_probe_cache(ProbeCachePtr cache) noexcept {
  if (cache) probe_cache_ = std::move(cache);
}

Tuner Engine::make_tuner(double target_ratio) const {
  TunerConfig cfg = config_.tuner;
  cfg.target_ratio = target_ratio;
  if (probe_pool_ != nullptr) cfg.threads = probe_pool_->size() + 1;
  return Tuner(*compressor_, cfg, probe_cache_, probe_pool_);
}

void Engine::record_tune(const std::string& field, double target_ratio,
                         const TuneResult& result) {
  ++stats_.tunes;
  tunes_counter().add();
  stats_.tuner_probe_calls +=
      static_cast<std::size_t>(result.compress_calls - result.probe_cache_hits);
  stats_.probe_cache_hits += static_cast<std::size_t>(result.probe_cache_hits);
  EngineFieldStats& per_field = field_stats_[field];
  ++per_field.tunes;
  if (result.retrained()) {
    ++stats_.retrains;
    ++per_field.retrains;
    retrains_counter().add();
  } else if (result.refined) {
    ++stats_.refines;
    ++per_field.refines;
    refines_counter().add();
  } else {
    ++stats_.warm_hits;
    ++per_field.warm_hits;
    warm_hits_counter().add();
  }
  // Algorithm 3's carry rule.  A warm hit's bound is the one the store
  // already holds; an out-of-band bound is stale and would only cost the
  // next call a wasted probe.
  if (!result.feasible)
    bounds_->erase(field, target_ratio);
  else if (!result.from_prediction)
    bounds_->put(field, target_ratio, result.error_bound);
}

Result<TuneResult> Engine::tune(const std::string& field, const ArrayView& data,
                                double target_ratio) noexcept {
  try {
    const TuneResult result =
        make_tuner(target_ratio).tune_with_prediction(data, bounds_->get(field, target_ratio));
    record_tune(field, target_ratio, result);
    return result;
  } catch (...) {
    return status_from_current_exception();
  }
}

Status Engine::compress(const std::string& field, const ArrayView& data, Buffer& out,
                        CompressOutcome* outcome) noexcept {
  const double target = config_.tuner.target_ratio;
  const double epsilon = config_.tuner.epsilon;
  const double cached = bounds_->get(field, target);
  TuneResult tuned;
  try {
    if (cached > 0) {
      // Warm path: compress directly at the cached bound and let that
      // archive double as the acceptance probe.  Routing through tune()
      // would compress twice per steady-state frame on identical bytes.  The
      // archive is counted as a compression, not as a tuning probe.
      const Status s = compress_at(cached, data, out);
      if (!s.ok()) return s;
      ++field_stats_[field].compress_calls;
      const double ratio =
          static_cast<double>(data.size_bytes()) / static_cast<double>(out.size());
      if (ratio_acceptable(ratio, target, epsilon)) {
        tuned.error_bound = cached;
        tuned.achieved_ratio = ratio;
        tuned.feasible = true;
        tuned.from_prediction = true;
      } else {
        // Drift: retune from the miss this archive just measured.
        // Refinement compresses into `out`, so an in-band refinement probe
        // is the archive.
        tuned = make_tuner(target).retune(data, cached, ratio, &out);
      }
    } else {
      out.clear();
      tuned = make_tuner(target).tune(data);
    }
    record_tune(field, target, tuned);
  } catch (...) {
    return status_from_current_exception();
  }
  if (out.empty()) {
    const Status s = compress_at(tuned.error_bound, data, out);
    if (!s.ok()) return s;
    ++field_stats_[field].compress_calls;
  }
  if (outcome) {
    const double ratio =
        static_cast<double>(data.size_bytes()) / static_cast<double>(out.size());
    *outcome = CompressOutcome{};
    outcome->error_bound = tuned.error_bound;
    outcome->achieved_ratio = ratio;
    outcome->warm = tuned.from_prediction;
    outcome->refined = tuned.refined;
    outcome->retrained = tuned.retrained();
    outcome->in_band = ratio_acceptable(ratio, target, epsilon);
  }
  return Status();
}

Status Engine::compress_at(double error_bound, const ArrayView& data, Buffer& out) noexcept {
  try {
    compressor_->set_error_bound(error_bound);
  } catch (...) {
    return status_from_current_exception();
  }
  const Status s = compressor_->compress_into(data, out);
  if (s.ok()) ++stats_.compress_calls;
  return s;
}

Result<NdArray> Engine::decompress(const std::uint8_t* data, std::size_t size) noexcept {
  NdArray out;
  const Status s = compressor_->decompress_into(data, size, out);
  if (!s.ok()) return s;
  ++stats_.decompress_calls;
  return out;
}

Result<pressio::FidelityReport> Engine::evaluate(const std::string& field,
                                                 const ArrayView& data) noexcept {
  Result<TuneResult> tuned = tune(field, data);
  if (!tuned.ok()) return tuned.status();
  try {
    compressor_->set_error_bound(tuned.value().error_bound);
    pressio::FidelityReport report = pressio::evaluate_fidelity(*compressor_, data);
    ++stats_.compress_calls;
    ++stats_.decompress_calls;
    return report;
  } catch (...) {
    return status_from_current_exception();
  }
}

void Engine::seed_bound(const std::string& field, double target_ratio,
                        double bound) noexcept {
  if (!(bound > 0)) return;
  bounds_->put(field, target_ratio, bound);
}

double Engine::cached_bound(const std::string& field, double target_ratio) const noexcept {
  return bounds_->get(field, target_ratio);
}

}  // namespace fraz
