#include "core/online.hpp"

#include "util/timer.hpp"

namespace fraz {

OnlineTuner::OnlineTuner(const pressio::Compressor& prototype, TunerConfig config)
    : tuner_(prototype, config), archiver_(prototype.clone()) {}

void OnlineTuner::commit(const StepOutcome& outcome) {
  // Algorithm 3's carry rule: only a bound that satisfied the band is worth
  // reusing on the next frame.
  if (outcome.result.feasible) prediction_ = outcome.result.error_bound;

  ++stats_.frames;
  stats_.retrains += outcome.retrained;
  stats_.refines += outcome.result.refined;
  stats_.frames_in_band += outcome.result.feasible;
  stats_.total_compress_calls += outcome.result.compress_calls;
  stats_.probe_cache_hits += outcome.result.probe_cache_hits;
  stats_.last_ratio = outcome.result.achieved_ratio;
  stats_.ratio_ema = stats_.frames == 1
                         ? outcome.result.achieved_ratio
                         : 0.8 * stats_.ratio_ema + 0.2 * outcome.result.achieved_ratio;
}

StepOutcome OnlineTuner::push(const ArrayView& frame) {
  StepOutcome outcome;
  outcome.result = tuner_.tune_with_prediction(frame, prediction_);
  outcome.retrained = !outcome.result.from_prediction && !outcome.result.refined;
  commit(outcome);
  return outcome;
}

Status OnlineTuner::push_into(const ArrayView& frame, Buffer& out, StepOutcome* outcome) {
  try {
    const TunerConfig& cfg = tuner_.config();
    StepOutcome step;

    // Warm path: compress at the carried bound and let the archive itself be
    // the acceptance probe (one compression per in-band frame).  Nothing is
    // committed until the archive exists, so a failure here leaves the
    // stream state untouched.
    if (prediction_ > 0) {
      Timer timer;
      WarmArchive warm;
      const Status s = warm_archive_probe(*archiver_, frame, prediction_, cfg.target_ratio,
                                          cfg.epsilon, out, warm);
      if (!s.ok()) return s;
      if (warm.in_band) {
        step.result.error_bound = prediction_;
        step.result.achieved_ratio = warm.ratio;
        step.result.feasible = true;
        step.result.from_prediction = true;
        step.result.compress_calls = 1;
        step.result.seconds = timer.seconds();
        step.retrained = false;
        commit(step);
        if (outcome != nullptr) *outcome = std::move(step);
        return Status();
      }
      // Drift: retune from the miss the warm archive just measured (it counts
      // as the failed prediction probe it effectively was).  Refinement
      // compresses into `out`, so an in-band refinement probe is the archive.
      step.result = tuner_.retune(frame, prediction_, warm.ratio, &out);
      step.result.compress_calls += 1;
      step.result.seconds = timer.seconds();
      step.retrained = !step.result.refined;
      commit(step);
    } else {
      out.clear();
      step = push(frame);
    }
    if (out.empty()) {
      archiver_->set_error_bound(step.result.error_bound);
      const Status s = archiver_->compress_into(frame, out);
      if (!s.ok()) return s;
      ++stats_.total_compress_calls;  // the archive pass itself
    }
    if (outcome != nullptr) *outcome = std::move(step);
    return Status();
  } catch (...) {
    return status_from_current_exception();
  }
}

void OnlineTuner::reset() {
  prediction_ = 0;
  stats_ = OnlineStats{};
}

}  // namespace fraz
