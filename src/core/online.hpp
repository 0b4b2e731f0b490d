#ifndef FRAZ_CORE_ONLINE_HPP
#define FRAZ_CORE_ONLINE_HPP

/// \file online.hpp
/// The paper's second future-work item (§VII): an online version of FRaZ
/// providing "in situ fixed-ratio compression for simulation and instrument
/// data".
///
/// OnlineTuner wraps the batch tuner behind a push API: each arriving frame
/// is compressed at the carried-forward bound when that still lands in the
/// acceptance band (one compressor call — the fast path), and retuned
/// otherwise (local refinement from the miss, global training only when
/// refinement gives up — Tuner::retune).  It additionally keeps drift
/// statistics so operators can see *when* the stream changed character,
/// which the offline Algorithm 3 has no place to report.

#include <cstddef>
#include <vector>

#include "core/tuner.hpp"
#include "util/buffer.hpp"
#include "util/status.hpp"

namespace fraz {

/// Streaming statistics of an OnlineTuner.
struct OnlineStats {
  std::size_t frames = 0;
  std::size_t retrains = 0;  ///< frames that ran global training
  std::size_t refines = 0;   ///< drifted frames local refinement brought into band
  std::size_t frames_in_band = 0;
  int total_compress_calls = 0;
  /// Tuning probes served by the persistent probe cache (retrains on data
  /// the stream has already measured cost nothing).
  int probe_cache_hits = 0;
  /// Achieved ratio of the most recent frame.
  double last_ratio = 0;
  /// Exponential moving average of the achieved ratio (alpha = 0.2).
  double ratio_ema = 0;
};

/// In-situ fixed-ratio tuner: push frames as they arrive.
class OnlineTuner {
public:
  /// \param prototype compressor to tune (cloned internally).
  /// \param config same knobs as the batch Tuner.
  OnlineTuner(const pressio::Compressor& prototype, TunerConfig config);

  /// Process one arriving frame: probe the carried bound, retune on drift.
  /// Returns the per-frame outcome (same shape as the batch API's steps).
  StepOutcome push(const ArrayView& frame);

  /// In-situ fast path: tune (reusing the carried bound) AND produce the
  /// frame's archive in the caller's reusable \p out — the deliverable a
  /// streaming deployment actually ships to storage.  On the warm path the
  /// archive itself is the acceptance probe, so an in-band frame costs
  /// exactly ONE compression, and a drifted frame that local refinement
  /// brings into band keeps the in-band probe's bytes (1 + k compressions
  /// for k refinement probes).  Non-throwing.  On a non-ok Status \p out is
  /// unspecified and no archive was produced; if the failure struck after a
  /// retrain completed, the stream statistics still count the tuned frame.
  /// \p outcome (optional) receives the same per-frame detail as push().
  Status push_into(const ArrayView& frame, Buffer& out, StepOutcome* outcome = nullptr);

  /// The bound that will be probed first for the next frame (0 before any
  /// successful frame).
  double carried_bound() const noexcept { return prediction_; }

  /// Aggregate statistics since construction or the last reset().
  const OnlineStats& stats() const noexcept { return stats_; }

  /// Forget the carried bound and statistics (e.g. at a simulation restart).
  void reset();

private:
  /// Fold one frame's outcome into the carried bound and statistics.
  void commit(const StepOutcome& outcome);

  Tuner tuner_;
  pressio::CompressorPtr archiver_;  ///< dedicated clone for push_into archives
  double prediction_ = 0;
  OnlineStats stats_;
};

}  // namespace fraz

#endif  // FRAZ_CORE_ONLINE_HPP
