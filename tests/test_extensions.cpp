#include <gtest/gtest.h>

#include "core/online.hpp"
#include "core/quality_tuner.hpp"
#include "data/datasets.hpp"
#include "metrics/error_stats.hpp"
#include "metrics/ssim.hpp"
#include "pressio/registry.hpp"
#include "test_helpers.hpp"

/// Tests for the paper's §VII future-work features implemented as
/// extensions: quality-target tuning and the online (in-situ) tuner.

namespace fraz {
namespace {

using testhelpers::make_field;

NdArray cesm_field(int step = 0) {
  const auto ds = data::dataset_by_name("cesm", data::SuiteScale::kTiny);
  return data::generate_field(data::field_by_name(ds, "CLOUD"), step);
}

// -------------------------------------------------------- quality tuner

TEST(QualityTuner, PsnrFloorIsMet) {
  const NdArray field = cesm_field();
  auto compressor = pressio::registry().create("sz");
  QualityTunerConfig cfg;
  cfg.metric = QualityMetric::kPsnrDb;
  cfg.quality_floor = 60.0;
  const QualityTuneResult r = tune_for_quality(*compressor, field.view(), cfg);
  ASSERT_TRUE(r.met_floor);
  EXPECT_GE(r.quality, 60.0);
  EXPECT_GT(r.achieved_ratio, 1.0);

  // Re-check independently: the returned bound really delivers the quality.
  compressor->set_error_bound(r.error_bound);
  const auto compressed = compressor->compress(field.view());
  const NdArray decoded = compressor->decompress(compressed);
  EXPECT_GE(error_stats(field.view(), decoded.view()).psnr_db, 60.0);
}

TEST(QualityTuner, SsimFloorIsMet) {
  const NdArray field = cesm_field();
  auto compressor = pressio::registry().create("zfp");
  QualityTunerConfig cfg;
  cfg.metric = QualityMetric::kSsim;
  cfg.quality_floor = 0.95;
  const QualityTuneResult r = tune_for_quality(*compressor, field.view(), cfg);
  ASSERT_TRUE(r.met_floor);
  EXPECT_GE(r.quality, 0.95);
  compressor->set_error_bound(r.error_bound);
  const auto compressed = compressor->compress(field.view());
  const NdArray decoded = compressor->decompress(compressed);
  EXPECT_GE(ssim(field.view(), decoded.view()), 0.95);
}

TEST(QualityTuner, HigherFloorMeansSmallerBound) {
  const NdArray field = cesm_field();
  auto compressor = pressio::registry().create("sz");
  QualityTunerConfig strict;
  strict.quality_floor = 80.0;
  QualityTunerConfig lax;
  lax.quality_floor = 40.0;
  const auto r_strict = tune_for_quality(*compressor, field.view(), strict);
  const auto r_lax = tune_for_quality(*compressor, field.view(), lax);
  ASSERT_TRUE(r_strict.met_floor);
  ASSERT_TRUE(r_lax.met_floor);
  EXPECT_LT(r_strict.error_bound, r_lax.error_bound);
  EXPECT_LE(r_strict.achieved_ratio, r_lax.achieved_ratio * 1.05);
}

TEST(QualityTuner, SsimOn1dRejected) {
  const NdArray field = make_field(DType::kFloat32, {512});
  auto compressor = pressio::registry().create("sz");
  QualityTunerConfig cfg;
  cfg.metric = QualityMetric::kSsim;
  cfg.quality_floor = 0.9;
  EXPECT_THROW(tune_for_quality(*compressor, field.view(), cfg), InvalidArgument);
}

TEST(QualityTuner, ImpossibleFloorReportsNotMet) {
  // PSNR 10000 dB is unreachable with a lossy bound > 0 on textured data.
  const NdArray field = cesm_field();
  auto compressor = pressio::registry().create("zfp");
  QualityTunerConfig cfg;
  cfg.quality_floor = 10000.0;
  cfg.max_evals = 8;
  cfg.min_error_bound = value_range(field.view()) * 1e-3;  // forbid near-lossless
  const QualityTuneResult r = tune_for_quality(*compressor, field.view(), cfg);
  EXPECT_FALSE(r.met_floor);
  EXPECT_EQ(r.error_bound, 0.0);
}

TEST(QualityTuner, ConfigValidation) {
  const NdArray field = cesm_field();
  auto compressor = pressio::registry().create("sz");
  QualityTunerConfig cfg;
  cfg.quality_floor = 0;
  EXPECT_THROW(tune_for_quality(*compressor, field.view(), cfg), InvalidArgument);
  cfg = QualityTunerConfig{};
  cfg.max_evals = 1;
  EXPECT_THROW(tune_for_quality(*compressor, field.view(), cfg), InvalidArgument);
}

// --------------------------------------------------------- online tuner

TunerConfig online_config(double target) {
  TunerConfig cfg;
  cfg.target_ratio = target;
  cfg.epsilon = 0.1;
  cfg.threads = 2;
  return cfg;
}

TEST(OnlineTuner, FirstFrameTrainsLaterFramesReuse) {
  auto compressor = pressio::registry().create("sz");
  OnlineTuner online(*compressor, online_config(6.0));
  const auto ds = data::dataset_by_name("cesm", data::SuiteScale::kTiny);
  const auto spec = data::field_by_name(ds, "CLOUD");

  const NdArray f0 = data::generate_field(spec, 0);
  const StepOutcome s0 = online.push(f0.view());
  EXPECT_TRUE(s0.retrained);
  ASSERT_TRUE(s0.result.feasible);
  EXPECT_GT(online.carried_bound(), 0.0);

  int reused = 0;
  for (int t = 1; t <= 4; ++t) {
    const NdArray f = data::generate_field(spec, t);
    reused += !online.push(f.view()).retrained;
  }
  EXPECT_GE(reused, 3);  // slow drift: the bound survives most frames
  EXPECT_EQ(online.stats().frames, 5u);
  EXPECT_LE(online.stats().retrains, 2u);
}

TEST(OnlineTuner, MatchesBatchSeriesBehaviour) {
  const auto ds = data::dataset_by_name("cesm", data::SuiteScale::kTiny);
  const auto spec = data::field_by_name(ds, "PHIS");
  const auto arrays = data::generate_series(spec, 4);

  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg = online_config(6.0);
  cfg.threads = 1;  // serial for determinism

  OnlineTuner online(*compressor, cfg);
  std::vector<StepOutcome> streamed;
  for (const auto& a : arrays) streamed.push_back(online.push(a.view()));

  std::vector<ArrayView> views;
  for (const auto& a : arrays) views.push_back(a.view());
  const SeriesResult batch = Tuner(*compressor, cfg).tune_series(views);

  ASSERT_EQ(streamed.size(), batch.steps.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].retrained, batch.steps[i].retrained) << "step " << i;
    EXPECT_DOUBLE_EQ(streamed[i].result.error_bound, batch.steps[i].result.error_bound)
        << "step " << i;
  }
}

TEST(OnlineTuner, StatsTrackRatios) {
  auto compressor = pressio::registry().create("sz");
  OnlineTuner online(*compressor, online_config(6.0));
  const NdArray f = cesm_field();
  online.push(f.view());
  const OnlineStats& stats = online.stats();
  EXPECT_EQ(stats.frames, 1u);
  EXPECT_GT(stats.last_ratio, 0.0);
  EXPECT_DOUBLE_EQ(stats.ratio_ema, stats.last_ratio);
  EXPECT_GT(stats.total_compress_calls, 0);
}

TEST(OnlineTuner, ResetForgetsCarriedBound) {
  auto compressor = pressio::registry().create("sz");
  OnlineTuner online(*compressor, online_config(6.0));
  online.push(cesm_field().view());
  ASSERT_GT(online.carried_bound(), 0.0);
  online.reset();
  EXPECT_EQ(online.carried_bound(), 0.0);
  EXPECT_EQ(online.stats().frames, 0u);
  // Next push trains from scratch again.
  EXPECT_TRUE(online.push(cesm_field().view()).retrained);
}

TEST(OnlineTuner, RegimeChangeTriggersRetrain) {
  // Stream frames from one field, then switch to a very different field:
  // the carried bound must miss the band and trigger retuning.
  auto compressor = pressio::registry().create("sz");
  OnlineTuner online(*compressor, online_config(6.0));
  const auto ds = data::dataset_by_name("cesm", data::SuiteScale::kTiny);
  const NdArray calm = data::generate_field(data::field_by_name(ds, "PHIS"), 0);
  online.push(calm.view());
  ASSERT_TRUE(online.stats().frames_in_band == 1);

  // A field with a completely different amplitude/structure profile.
  const auto hur = data::dataset_by_name("hurricane", data::SuiteScale::kTiny);
  const NdArray wild = data::generate_field(data::field_by_name(hur, "QCLOUDf.log10"), 0)
                           .slice2d(4);
  const StepOutcome jump = online.push(wild.view());
  // The miss is retuned: local refinement from the carried bound, or global
  // training when refinement gives up (`retrained`).
  EXPECT_FALSE(jump.result.from_prediction);
  EXPECT_TRUE(jump.result.refined || jump.retrained);
  EXPECT_TRUE(jump.result.feasible);
}

}  // namespace
}  // namespace fraz
