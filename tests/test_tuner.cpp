#include "core/tuner.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "curve_compressor.hpp"
#include "data/datasets.hpp"
#include "pressio/registry.hpp"
#include "test_helpers.hpp"

namespace fraz {
namespace {

using testhelpers::CurveCompressor;
using testhelpers::make_field;
using testhelpers::power_curve;

NdArray hurricane_field(const char* name = "TCf", int step = 0) {
  const auto ds = data::dataset_by_name("hurricane", data::SuiteScale::kTiny);
  return data::generate_field(data::field_by_name(ds, name), step);
}

TunerConfig fast_config(double target) {
  TunerConfig cfg;
  cfg.target_ratio = target;
  cfg.epsilon = 0.1;
  cfg.threads = 2;
  return cfg;
}

// ------------------------------------------------------------ feasibility

class TunerBackendSweep : public testing::TestWithParam<const char*> {};

TEST_P(TunerBackendSweep, FeasibleTargetLandsInBand) {
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create(GetParam());
  const Tuner tuner(*compressor, fast_config(5.0));
  const TuneResult r = tuner.tune(field.view());
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(ratio_acceptable(r.achieved_ratio, 5.0, 0.1))
      << "achieved " << r.achieved_ratio;
  EXPECT_GT(r.error_bound, 0.0);
  EXPECT_GT(r.compress_calls, 0);
}

TEST_P(TunerBackendSweep, TunedBoundReproducesRatio) {
  // The recommended bound, applied directly, must reproduce the reported
  // achieved ratio (the tuner's contract with its caller).
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create(GetParam());
  const Tuner tuner(*compressor, fast_config(6.0));
  const TuneResult r = tuner.tune(field.view());
  compressor->set_error_bound(r.error_bound);
  const auto compressed = compressor->compress(field.view());
  const double ratio =
      static_cast<double>(field.size_bytes()) / static_cast<double>(compressed.size());
  EXPECT_NEAR(ratio, r.achieved_ratio, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TunerBackendSweep,
                         testing::Values("sz", "zfp", "mgard"));

TEST(Tuner, InfeasiblyHighTargetReportsClosest) {
  // Container/dictionary overhead puts a hard ceiling on the achievable
  // ratio of a 2048-element field; a target of 500 is unreachable at any
  // bound, so FRaZ must flag infeasibility and report the closest observed
  // ratio (paper Alg. 2 tail, Fig. 7 discussion of infeasible targets).
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg = fast_config(500.0);
  cfg.max_evals_per_region = 6;  // keep the failing search cheap
  const Tuner tuner(*compressor, cfg);
  const TuneResult r = tuner.tune(field.view());
  EXPECT_FALSE(r.feasible);
  EXPECT_GT(r.achieved_ratio, 0.0);
  EXPECT_LT(r.achieved_ratio, 500.0 * 0.9);
}

TEST(Tuner, LinearScaleSearchMatchesPaperBehaviour) {
  // With the paper's literal linear region split, low-bound ratios live in a
  // sliver of region 1; the log-scale default resolves them.  Both must
  // agree on a mid-range feasible target.
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg = fast_config(6.0);
  cfg.log_scale_search = false;
  const TuneResult linear = Tuner(*compressor, cfg).tune(field.view());
  cfg.log_scale_search = true;
  const TuneResult logscale = Tuner(*compressor, cfg).tune(field.view());
  EXPECT_TRUE(linear.feasible);
  EXPECT_TRUE(logscale.feasible);
}

TEST(Tuner, TinyUpperBoundMakesTargetInfeasible) {
  // The paper's U discussion: when the needed bound exceeds the user's
  // maximum allowed error, FRaZ reports the closest observation.
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg = fast_config(40.0);
  cfg.max_error_bound = value_range(field.view()) * 1e-7;  // absurdly strict
  cfg.max_evals_per_region = 6;
  const Tuner tuner(*compressor, cfg);
  const TuneResult r = tuner.tune(field.view());
  EXPECT_FALSE(r.feasible);
  EXPECT_LT(r.achieved_ratio, 40.0);
  EXPECT_LE(r.error_bound, cfg.max_error_bound * 1.0000001);
}

TEST(Tuner, DeterministicAcrossRunsWhenSerial) {
  // With one worker, regions run in order and the first-success cancellation
  // is no longer a race: results must be bit-identical.  (With threads > 1
  // the winning region can differ run to run, exactly as in the paper's MPI
  // implementation.)
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg = fast_config(8.0);
  cfg.threads = 1;
  const Tuner tuner(*compressor, cfg);
  const TuneResult a = tuner.tune(field.view());
  const TuneResult b = tuner.tune(field.view());
  EXPECT_EQ(a.error_bound, b.error_bound);
  EXPECT_EQ(a.achieved_ratio, b.achieved_ratio);
  EXPECT_EQ(a.compress_calls, b.compress_calls);
}

TEST(Tuner, SerialAndParallelAgreeOnFeasibility) {
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  TunerConfig serial_cfg = fast_config(7.0);
  serial_cfg.threads = 1;
  TunerConfig parallel_cfg = fast_config(7.0);
  parallel_cfg.threads = 4;
  const TuneResult s = Tuner(*compressor, serial_cfg).tune(field.view());
  const TuneResult p = Tuner(*compressor, parallel_cfg).tune(field.view());
  EXPECT_TRUE(s.feasible);
  EXPECT_TRUE(p.feasible);
  EXPECT_TRUE(ratio_acceptable(p.achieved_ratio, 7.0, 0.1));
}

TEST(Tuner, RegionReportsPopulated) {
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg = fast_config(8.0);
  cfg.regions = 4;
  const Tuner tuner(*compressor, cfg);
  const TuneResult r = tuner.tune(field.view());
  ASSERT_EQ(r.regions.size(), 4u);
  int touched = 0, calls = 0;
  for (const auto& region : r.regions) {
    calls += region.compress_calls;
    touched += region.compress_calls > 0;
  }
  EXPECT_EQ(calls, r.compress_calls);
  EXPECT_GE(touched, 1);
}

// ------------------------------------------------------------- prediction

TEST(Tuner, PredictionShortCircuits) {
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  const Tuner tuner(*compressor, fast_config(8.0));
  const TuneResult trained = tuner.tune(field.view());
  ASSERT_TRUE(trained.feasible);
  const TuneResult reused = tuner.tune_with_prediction(field.view(), trained.error_bound);
  EXPECT_TRUE(reused.from_prediction);
  EXPECT_EQ(reused.compress_calls, 1);
  EXPECT_DOUBLE_EQ(reused.error_bound, trained.error_bound);
}

TEST(Tuner, BadPredictionFallsBackToTraining) {
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  const Tuner tuner(*compressor, fast_config(8.0));
  const double hopeless = value_range(field.view());  // gives a huge ratio
  const TuneResult r = tuner.tune_with_prediction(field.view(), hopeless);
  EXPECT_FALSE(r.from_prediction);
  EXPECT_TRUE(r.feasible);
  EXPECT_GT(r.compress_calls, 1);
}

TEST(Tuner, ZeroPredictionMeansNoProbe) {
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg = fast_config(8.0);
  cfg.threads = 1;  // serial so both runs are bit-identical
  const Tuner tuner(*compressor, cfg);
  const TuneResult direct = tuner.tune(field.view());
  const TuneResult via = tuner.tune_with_prediction(field.view(), 0.0);
  EXPECT_EQ(direct.compress_calls, via.compress_calls);
  EXPECT_FALSE(via.from_prediction);
}

// ------------------------------------------------------------ time series

TEST(Tuner, SeriesReusesBoundAcrossSteps) {
  const auto ds = data::dataset_by_name("hurricane", data::SuiteScale::kTiny);
  const auto spec = data::field_by_name(ds, "TCf");
  const auto arrays = data::generate_series(spec, 6);
  std::vector<ArrayView> views;
  for (const auto& a : arrays) views.push_back(a.view());

  auto compressor = pressio::registry().create("sz");
  const Tuner tuner(*compressor, fast_config(8.0));
  const SeriesResult series = tuner.tune_series(views);
  ASSERT_EQ(series.steps.size(), 6u);
  EXPECT_TRUE(series.steps[0].retrained);  // first step always trains
  // Drift is slow: the majority of steps must reuse the previous bound
  // (paper: "we retrained only a small percentage of the time").
  EXPECT_LE(series.retrain_count, 3);
  int call_sum = 0;
  for (const auto& s : series.steps) call_sum += s.result.compress_calls;
  EXPECT_EQ(call_sum, series.total_compress_calls);
}

TEST(Tuner, SeriesEveryFeasibleStepInBand) {
  const auto ds = data::dataset_by_name("cesm", data::SuiteScale::kTiny);
  const auto spec = data::field_by_name(ds, "CLOUD");
  const auto arrays = data::generate_series(spec, 5);
  std::vector<ArrayView> views;
  for (const auto& a : arrays) views.push_back(a.view());

  auto compressor = pressio::registry().create("zfp");
  const Tuner tuner(*compressor, fast_config(6.0));
  const SeriesResult series = tuner.tune_series(views);
  for (const auto& s : series.steps) {
    if (s.result.feasible) {
      EXPECT_TRUE(ratio_acceptable(s.result.achieved_ratio, 6.0, 0.1));
    }
  }
}

TEST(Tuner, EmptySeriesThrows) {
  auto compressor = pressio::registry().create("sz");
  const Tuner tuner(*compressor, fast_config(8.0));
  EXPECT_THROW(tuner.tune_series({}), InvalidArgument);
}

// ------------------------------------------------------------- by field

TEST(Tuner, FieldsTunedIndependently) {
  const auto ds = data::dataset_by_name("cesm", data::SuiteScale::kTiny);
  std::map<std::string, std::vector<NdArray>> storage;
  std::map<std::string, std::vector<ArrayView>> fields;
  for (const auto& f : {"CLDHGH", "CLDLOW"}) {
    storage[f] = data::generate_series(data::field_by_name(ds, f), 3);
    for (const auto& a : storage[f]) fields[f].push_back(a.view());
  }
  auto compressor = pressio::registry().create("sz");
  const Tuner tuner(*compressor, fast_config(6.0));
  const auto results = tuner.tune_fields(fields);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& [name, series] : results) {
    ASSERT_EQ(series.steps.size(), 3u) << name;
    EXPECT_TRUE(series.steps[0].result.feasible) << name;
  }
}

// ------------------------------------------------------ local refinement

NdArray curve_field() { return make_field(DType::kFloat32, {16, 16, 16}); }

TunerConfig curve_config(unsigned threads = 1) {
  TunerConfig cfg;
  cfg.target_ratio = 10.0;
  cfg.epsilon = 0.1;
  cfg.threads = threads;
  return cfg;
}

/// Ratio \p curve gives \p field at \p bound, measured on a separate
/// instance so no tuner's counter or cache sees it.
double curve_ratio(const CurveCompressor::Curve& curve, const NdArray& field, double bound) {
  CurveCompressor probe("curve-probe", curve);
  probe.set_error_bound(bound);
  Buffer out;
  EXPECT_TRUE(probe.compress_into(field.view(), out).ok());
  return static_cast<double>(field.size_bytes()) / static_cast<double>(out.size());
}

/// Ratio 5 below the knee (bound 1e-3 of the input's magnitude), 20 above:
/// the band around 10 lies inside the jump.
double step_curve(double b) { return b < 1e-3 ? 5.0 : 20.0; }

/// Never above 6: the band around 10 is out of reach.
double ceiling_curve(double b) { return std::min(6.0, 10.0 * b / 1e-3); }

TEST(TunerRefine, MonotoneCurveLandsInBandWithinTheCap) {
  const NdArray field = curve_field();
  const double knee = 1e-3 * max_abs(field.view());  // ratio 10 on every curve
  // Power laws of several slopes, and a curve convex in log space on which
  // plain regula falsi stalls against one end of its bracket (Illinois's
  // weight halving is what lands it within the cap).
  const std::pair<const char*, CurveCompressor::Curve> curves[] = {
      {"power 0.3", power_curve(0.3)},
      {"power 1", power_curve(1.0)},
      {"power 3", power_curve(3.0)},
      {"convex", [](double b) { return 10.0 * std::exp(std::pow(b / 1e-3, 2.0) - 1.0); }}};
  for (const auto& [name, curve] : curves) {
    for (const double seed_factor : {10.0, 3.0, 0.1}) {
      CurveCompressor compressor(name, curve);
      const Tuner tuner(compressor, curve_config());
      const double missed = knee * seed_factor;
      const double missed_ratio = curve_ratio(curve, field, missed);
      ASSERT_FALSE(ratio_acceptable(missed_ratio, 10.0, 0.1));
      const TuneResult r = tuner.retune(field.view(), missed, missed_ratio);
      EXPECT_TRUE(r.refined) << name << " seed x" << seed_factor;
      EXPECT_TRUE(r.feasible);
      EXPECT_FALSE(r.from_prediction);
      EXPECT_TRUE(ratio_acceptable(r.achieved_ratio, 10.0, 0.1)) << r.achieved_ratio;
      EXPECT_DOUBLE_EQ(r.achieved_ratio, curve_ratio(curve, field, r.error_bound));
      EXPECT_GE(r.compress_calls, 1);
      EXPECT_LE(r.compress_calls, kRefineProbeCap);
      EXPECT_EQ(compressor.calls(), r.compress_calls);  // every probe was fresh
      EXPECT_TRUE(r.regions.empty());                   // no global training ran
    }
  }
}

TEST(TunerRefine, GivesUpWithinTheCapAndThenEqualsTraining) {
  const NdArray field = curve_field();
  const double knee = 1e-3 * max_abs(field.view());
  const std::pair<const char*, CurveCompressor::Curve> curves[] = {
      {"step", step_curve}, {"ceiling", ceiling_curve}};
  for (const auto& [name, curve] : curves) {
    for (const double seed_factor : {10.0, 0.1}) {
      CurveCompressor compressor(name, curve);
      const Tuner tuner(compressor, curve_config());
      const double missed = knee * seed_factor;
      const TuneResult r =
          tuner.retune(field.view(), missed, curve_ratio(curve, field, missed));
      CurveCompressor fresh(name, curve);
      const TuneResult trained = Tuner(fresh, curve_config()).tune(field.view());

      EXPECT_FALSE(r.refined) << name << " seed x" << seed_factor;
      EXPECT_EQ(r.error_bound, trained.error_bound) << name;
      EXPECT_EQ(r.achieved_ratio, trained.achieved_ratio) << name;
      EXPECT_EQ(r.feasible, trained.feasible) << name;
      ASSERT_EQ(r.regions.size(), trained.regions.size());
      for (std::size_t i = 0; i < r.regions.size(); ++i) {
        EXPECT_EQ(r.regions[i].best_bound, trained.regions[i].best_bound);
        EXPECT_EQ(r.regions[i].compress_calls, trained.regions[i].compress_calls);
      }
      // Training's own probe count is unchanged; the rest is refinement.
      const int refine_probes = r.compress_calls - trained.compress_calls;
      EXPECT_GE(refine_probes, 1) << name;
      EXPECT_LE(refine_probes, kRefineProbeCap) << name;
    }
  }
}

TEST(TunerRefine, MeasuredMissIsServedFromTheCache) {
  const NdArray field = curve_field();
  const double missed = 1e-2 * max_abs(field.view());
  CurveCompressor compressor("curve", power_curve(1.0));
  const Tuner tuner(compressor, curve_config());
  // A ratio the compressor would never produce at that bound: only the
  // recorded miss can answer with it.
  const double recorded = 41.5;
  ASSERT_NE(recorded, curve_ratio(power_curve(1.0), field, missed));
  (void)tuner.retune(field.view(), missed, recorded);

  ProbeExecutor executor(compressor, tuner.probe_cache(), 1);
  const int before = compressor.calls();
  const ProbeOutcome again =
      executor.probe_ratio(field.view(), executor.context_key(field.view()), missed);
  EXPECT_TRUE(again.from_cache);
  EXPECT_EQ(again.record.ratio, recorded);
  EXPECT_EQ(compressor.calls(), before);
}

TEST(TunerRefine, IdenticalAtOneAndFourThreads) {
  const NdArray field = curve_field();
  const double missed = 1e-2 * max_abs(field.view());
  const std::pair<const char*, CurveCompressor::Curve> curves[] = {
      {"power", power_curve(0.6)}, {"step", step_curve}};
  for (const auto& [name, curve] : curves) {
    const double missed_ratio = curve_ratio(curve, field, missed);
    CurveCompressor serial_backend(name, curve), parallel_backend(name, curve);
    const TuneResult serial =
        Tuner(serial_backend, curve_config(1)).retune(field.view(), missed, missed_ratio);
    const TuneResult parallel =
        Tuner(parallel_backend, curve_config(4)).retune(field.view(), missed, missed_ratio);
    EXPECT_EQ(serial.error_bound, parallel.error_bound) << name;
    EXPECT_EQ(serial.achieved_ratio, parallel.achieved_ratio) << name;
    EXPECT_EQ(serial.refined, parallel.refined) << name;
    EXPECT_EQ(serial.compress_calls, parallel.compress_calls) << name;
    EXPECT_EQ(serial.probe_cache_hits, parallel.probe_cache_hits) << name;
  }
}

TEST(TunerRefine, ArchiveHoldsTheWinningProbesBytes) {
  const NdArray field = curve_field();
  const double missed = 1e-2 * max_abs(field.view());
  CurveCompressor compressor("curve", power_curve(0.6));
  const Tuner tuner(compressor, curve_config());
  Buffer archive;
  const TuneResult r = tuner.retune(
      field.view(), missed, curve_ratio(power_curve(0.6), field, missed), &archive);
  ASSERT_TRUE(r.refined);
  ASSERT_FALSE(archive.empty());
  Buffer expected;
  compressor.set_error_bound(r.error_bound);
  ASSERT_TRUE(compressor.compress_into(field.view(), expected).ok());
  ASSERT_EQ(archive.size(), expected.size());
  EXPECT_EQ(std::memcmp(archive.data(), expected.data(), expected.size()), 0);

  // Gave up: global training ran, so the archive is empty and the caller
  // compresses at the trained bound itself.
  CurveCompressor stepped("step", step_curve);
  Buffer none;
  const TuneResult fallback = Tuner(stepped, curve_config())
                                  .retune(field.view(), missed,
                                          curve_ratio(step_curve, field, missed), &none);
  EXPECT_FALSE(fallback.refined);
  EXPECT_TRUE(none.empty());
}

TEST(TunerRefine, SeriesCountsRefinedStepsApartFromRetrains) {
  // Step 1 scales the input 4x: the carried bound misses and refinement,
  // not global training, brings the step back into band.
  const NdArray calm = make_field(DType::kFloat32, {16, 16, 16}, 50.0);
  const NdArray wild = make_field(DType::kFloat32, {16, 16, 16}, 200.0);
  CurveCompressor compressor("curve", power_curve(0.6));
  const Tuner tuner(compressor, curve_config());
  const SeriesResult series = tuner.tune_series({calm.view(), wild.view()});
  ASSERT_EQ(series.steps.size(), 2u);
  EXPECT_TRUE(series.steps[0].retrained);
  EXPECT_TRUE(series.steps[1].result.refined);
  EXPECT_FALSE(series.steps[1].retrained);
  EXPECT_EQ(series.retrain_count, 1);
  EXPECT_EQ(series.refine_count, 1);
}

TEST(Tuner, RejectsUnsupportedRank) {
  const auto ds = data::dataset_by_name("hacc", data::SuiteScale::kTiny);
  const NdArray field = data::generate_field(ds.fields[0], 0);  // 1D
  auto compressor = pressio::registry().create("mgard");       // 2D/3D only
  const Tuner tuner(*compressor, fast_config(8.0));
  EXPECT_THROW(tuner.tune(field.view()), InvalidArgument);
}

TEST(Tuner, ConfigValidation) {
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg;
  cfg.target_ratio = 0.5;
  EXPECT_THROW(Tuner(*compressor, cfg), InvalidArgument);
  cfg = TunerConfig{};
  cfg.epsilon = 0;
  EXPECT_THROW(Tuner(*compressor, cfg), InvalidArgument);
  cfg = TunerConfig{};
  cfg.regions = 0;
  EXPECT_THROW(Tuner(*compressor, cfg), InvalidArgument);
  cfg = TunerConfig{};
  cfg.overlap = 1.0;
  EXPECT_THROW(Tuner(*compressor, cfg), InvalidArgument);
}

}  // namespace
}  // namespace fraz
