#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>

#include "core/online.hpp"
#include "curve_compressor.hpp"
#include "pressio/registry.hpp"
#include "test_helpers.hpp"
#include "util/buffer.hpp"
#include "util/status.hpp"

/// Tests for the CompressorV2 contract (Status-based zero-copy hot paths,
/// capabilities introspection) and the fraz::Engine facade (bound cache,
/// warm-start reuse).

namespace fraz {
namespace {

using testhelpers::make_field;
using testhelpers::max_error;

/// 2D fits every built-in backend (MGARD excludes 1D).
NdArray test_field() { return make_field(DType::kFloat32, {37, 41}); }

EngineConfig fast_config(const std::string& backend, double target = 5.0) {
  EngineConfig config;
  config.compressor = backend;
  config.tuner.target_ratio = target;
  config.tuner.epsilon = 0.1;
  config.tuner.threads = 2;
  return config;
}

// ------------------------------------------------------------------ Buffer

TEST(Buffer, GrowOnlyAcrossReuse) {
  Buffer b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.allocations(), 0u);
  b.append("hello", 5);
  EXPECT_EQ(b.size(), 5u);
  const std::size_t after_first = b.allocations();
  EXPECT_GE(after_first, 1u);
  // clear() keeps capacity: refilling with the same or less never allocates.
  const std::size_t cap = b.capacity();
  for (int i = 0; i < 100; ++i) {
    b.clear();
    b.append("world", 5);
  }
  EXPECT_EQ(b.allocations(), after_first);
  EXPECT_EQ(b.capacity(), cap);
  EXPECT_EQ(std::memcmp(b.data(), "world", 5), 0);
}

TEST(Buffer, MoveTransfersOwnership) {
  Buffer a;
  a.append("abc", 3);
  Buffer b = std::move(a);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(std::memcmp(b.data(), "abc", 3), 0);
}

// ------------------------------------------------------- CompressorV2 paths

class BackendSweep : public testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendSweep,
                         testing::ValuesIn(pressio::registry().names()));

TEST_P(BackendSweep, StatusRoundTrip) {
  auto c = pressio::registry().create(GetParam());
  const NdArray field = test_field();
  c->set_error_bound(0.05);

  Buffer archive;
  ASSERT_TRUE(c->compress_into(field.view(), archive).ok());
  ASSERT_GT(archive.size(), 0u);

  NdArray decoded;
  ASSERT_TRUE(c->decompress_into(archive.data(), archive.size(), decoded).ok());
  ASSERT_EQ(decoded.shape(), field.shape());
  ASSERT_EQ(decoded.dtype(), field.dtype());
  if (c->capabilities().error_bounded) {
    EXPECT_LE(max_error(field, decoded), 0.05) << GetParam();
  }
}

TEST_P(BackendSweep, CompressIntoClearsPreviousContents) {
  auto c = pressio::registry().create(GetParam());
  const NdArray field = test_field();
  c->set_error_bound(0.05);
  Buffer archive;
  ASSERT_TRUE(c->compress_into(field.view(), archive).ok());
  const std::size_t size_once = archive.size();
  // A second identical compression must replace, not append.
  ASSERT_TRUE(c->compress_into(field.view(), archive).ok());
  EXPECT_EQ(archive.size(), size_once);
}

TEST_P(BackendSweep, DecompressIntoRejectsGarbageAsStatus) {
  auto c = pressio::registry().create(GetParam());
  const std::uint8_t garbage[] = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02, 0x03,
                                  0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b};
  NdArray out;
  const Status s = c->decompress_into(garbage, sizeof(garbage), out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruptStream) << s.to_string();
}

TEST_P(BackendSweep, CapabilitiesMatchBehaviour) {
  auto c = pressio::registry().create(GetParam());
  const pressio::Capabilities caps = c->capabilities();
  EXPECT_EQ(caps.name, c->name());
  EXPECT_FALSE(caps.version.empty());
  EXPECT_GE(caps.max_dims, caps.min_dims);
  for (std::size_t dims = 1; dims <= 4; ++dims)
    EXPECT_EQ(c->supports_dims(dims), dims >= caps.min_dims && dims <= caps.max_dims);
  EXPECT_TRUE(caps.supports(DType::kFloat32, caps.min_dims));
  EXPECT_FALSE(caps.supports(DType::kFloat32, caps.max_dims + 1));
}

TEST_P(BackendSweep, CloneIsIndependent) {
  // Per-worker clones must not share mutable state: reconfiguring the clone
  // leaves the original untouched, and both produce their own archives.
  auto original = pressio::registry().create(GetParam());
  original->set_error_bound(0.5);
  auto clone = original->clone();
  clone->set_error_bound(0.001);

  EXPECT_DOUBLE_EQ(original->error_bound(), 0.5);
  EXPECT_DOUBLE_EQ(clone->error_bound(), 0.001);

  const NdArray field = test_field();
  Buffer a, b;
  ASSERT_TRUE(original->compress_into(field.view(), a).ok());
  ASSERT_TRUE(clone->compress_into(field.view(), b).ok());
  // The tight-bound archive must be strictly larger — shared state would
  // make the two calls produce identical output.  Lossless backends ignore
  // the bound entirely, so for them the bound values above are the check.
  if (!original->capabilities().lossless) {
    EXPECT_GT(b.size(), a.size()) << GetParam();
  }
  // And the original still compresses at its own bound afterwards.
  EXPECT_DOUBLE_EQ(original->error_bound(), 0.5);
}

TEST(CompressorV2, UnsupportedRankComesBackAsStatusNotThrow) {
  auto mgard = pressio::registry().create("mgard");
  const NdArray field = make_field(DType::kFloat32, {256});  // 1D
  Buffer out;
  const Status s = mgard->compress_into(field.view(), out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnsupported) << s.to_string();
}

// --------------------------------------------------- zero-allocation proof

TEST(ZeroCopy, SteadyStateCompressionAllocatesNothing) {
  // The acceptance gate for the zero-copy redesign: a tuner-style sweep over
  // the bound axis, repeated against the same reusable Buffer, performs ZERO
  // output-buffer allocations once the first sweep established the
  // high-water capacity.  (A single tightest-bound warm-up would not do:
  // archive size is non-monotonic in the bound — paper Fig. 3 — so the
  // grow-only property over a full sweep is what matters.)
  auto c = pressio::registry().create("sz");
  const NdArray field = make_field(DType::kFloat32, {48, 48});

  Buffer out;
  const auto sweep = [&] {
    int iterations = 0;
    for (double bound = 1e-9; bound < 50.0; bound *= 2.5) {
      c->set_error_bound(bound);
      ASSERT_TRUE(c->compress_into(field.view(), out).ok());
      ++iterations;
    }
    EXPECT_GE(iterations, 20);
  };

  sweep();  // warm-up: capacity may grow toward the high-water mark
  const std::size_t warm_allocations = out.allocations();
  const std::size_t high_water = out.capacity();
  sweep();  // steady state: every archive fits in already-owned storage
  EXPECT_EQ(out.allocations(), warm_allocations);
  EXPECT_EQ(out.capacity(), high_water);
}

TEST(ZeroCopy, ProbeRatioReusesScratch) {
  auto c = pressio::registry().create("zfp");
  const NdArray field = test_field();
  Buffer scratch;
  c->set_error_bound(1e-9);
  (void)pressio::probe_ratio(*c, field.view(), scratch);
  const std::size_t warm = scratch.allocations();
  for (double bound = 1e-4; bound < 10.0; bound *= 3) {
    c->set_error_bound(bound);
    const auto probe = pressio::probe_ratio(*c, field.view(), scratch);
    EXPECT_GT(probe.ratio, 0.0);
    EXPECT_EQ(scratch.allocations(), warm);
  }
}

// ------------------------------------------------------------------ Engine

TEST(Engine, CreateRejectsUnknownBackend) {
  auto r = Engine::create(fast_config("lzma"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(Engine, CreateRejectsBadTunerConfig) {
  EngineConfig config = fast_config("sz");
  config.tuner.target_ratio = 0.5;  // must exceed 1
  auto r = Engine::create(config);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Engine, AppliesCompressorOptionsAtConstruction) {
  EngineConfig config = fast_config("sz");
  config.compressor_options.set("sz:error_bound", 0.125);
  Engine engine(config);
  EXPECT_EQ(engine.compressor_name(), "sz");
  EXPECT_EQ(engine.capabilities().name, "sz");
}

TEST(Engine, RoundTripForEveryBackend) {
  const NdArray field = test_field();
  for (const auto& backend : pressio::registry().names()) {
    auto created = Engine::create(fast_config(backend));
    ASSERT_TRUE(created.ok()) << backend << ": " << created.status().to_string();
    Engine engine = std::move(created).value();

    const auto tuned = engine.tune("field", field.view());
    ASSERT_TRUE(tuned.ok()) << backend << ": " << tuned.status().to_string();
    EXPECT_GT(tuned.value().error_bound, 0.0) << backend;

    Buffer archive;
    ASSERT_TRUE(engine.compress("field", field.view(), archive).ok()) << backend;
    ASSERT_GT(archive.size(), 0u) << backend;

    const auto decoded = engine.decompress(archive.data(), archive.size());
    ASSERT_TRUE(decoded.ok()) << backend << ": " << decoded.status().to_string();
    EXPECT_EQ(decoded.value().shape(), field.shape()) << backend;
    if (engine.capabilities().error_bounded) {
      EXPECT_LE(max_error(field, decoded.value()), tuned.value().error_bound * 1.0000001)
          << backend;
    }
  }
}

TEST(Engine, BoundCacheWarmStartsEveryBackend) {
  const NdArray field = test_field();
  for (const auto& backend : pressio::registry().names()) {
    Engine engine(fast_config(backend));
    const auto first = engine.tune("cache-key", field.view());
    ASSERT_TRUE(first.ok()) << backend;
    if (!first.value().feasible) continue;  // nothing cacheable (e.g. truncate's
                                            // step-function ratios may miss the band)
    EXPECT_GT(engine.cached_bound("cache-key"), 0.0) << backend;

    // Identical data, same key: Algorithm 3's reuse — one confirmation
    // probe, no retraining.
    const auto second = engine.tune("cache-key", field.view());
    ASSERT_TRUE(second.ok()) << backend;
    EXPECT_TRUE(second.value().from_prediction) << backend;
    EXPECT_EQ(second.value().compress_calls, 1) << backend;
    EXPECT_EQ(engine.stats().warm_hits, 1u) << backend;
    EXPECT_DOUBLE_EQ(second.value().error_bound, first.value().error_bound) << backend;
  }
}

TEST(Engine, CacheIsKeyedByFieldAndTarget) {
  const NdArray field = test_field();
  Engine engine(fast_config("sz"));
  ASSERT_TRUE(engine.tune("a", field.view()).ok());
  const double bound_a = engine.cached_bound("a");
  ASSERT_GT(bound_a, 0.0);

  // A different field key retrains from scratch.
  EXPECT_EQ(engine.cached_bound("b"), 0.0);
  ASSERT_TRUE(engine.tune("b", field.view()).ok());
  EXPECT_EQ(engine.stats().retrains, 2u);

  // Same field, different target: separate entry with a different bound.
  const auto tighter = engine.tune("a", field.view(), 3.0);
  ASSERT_TRUE(tighter.ok());
  EXPECT_DOUBLE_EQ(engine.cached_bound("a"), bound_a);  // default-target entry intact
  if (tighter.value().feasible) {
    EXPECT_GT(engine.cached_bound("a", 3.0), 0.0);
    EXPECT_LT(engine.cached_bound("a", 3.0), bound_a);
  }

  engine.clear_cache();
  EXPECT_EQ(engine.cached_bound("a"), 0.0);
}

TEST(Engine, CompressReusesCallerBufferAcrossFrames) {
  // Time-step loop through the facade: after the first frame's archive the
  // caller's buffer stops allocating (the production streaming pattern).
  Engine engine(fast_config("sz"));
  Buffer archive;
  std::size_t warm = 0;
  for (int step = 0; step < 6; ++step) {
    const NdArray frame = make_field(DType::kFloat32, {37, 41}, 50.0 + step);
    ASSERT_TRUE(engine.compress("frame", frame.view(), archive).ok()) << step;
    if (step == 0)
      warm = archive.allocations();
    else
      EXPECT_LE(archive.allocations(), warm + 1) << step;  // grow-only, at most one
                                                           // growth past warm-up
  }
  EXPECT_GE(engine.stats().warm_hits, 4u);
}

TEST(Engine, WarmCompressIsOneCompressionPerFrame) {
  // The warm path must use the archive itself as the acceptance probe: no
  // separate tuner probe, exactly one compression per in-band frame.
  Engine engine(fast_config("sz"));
  const NdArray frame = test_field();
  Buffer out;
  ASSERT_TRUE(engine.compress("f", frame.view(), out).ok());  // full training
  const std::size_t probes_after_first = engine.stats().tuner_probe_calls;
  const std::size_t archives_after_first = engine.stats().compress_calls;
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(engine.compress("f", frame.view(), out).ok());
  EXPECT_EQ(engine.stats().tuner_probe_calls, probes_after_first);
  EXPECT_EQ(engine.stats().compress_calls, archives_after_first + 5);
  EXPECT_EQ(engine.stats().warm_hits, 5u);
}

/// Compressions of every "curve-counting" instance the registry creates.
std::shared_ptr<std::atomic<int>> counting_calls() {
  static const auto calls = std::make_shared<std::atomic<int>>(0);
  if (!pressio::registry().contains("curve-counting"))
    pressio::registry().register_factory("curve-counting", [] {
      return std::make_unique<testhelpers::CurveCompressor>(
          "curve-counting", testhelpers::power_curve(0.6), calls);
    });
  return calls;
}

TEST(Engine, RefinedDriftKeepsTheInBandProbeAsTheArchive) {
  // A drifted frame costs the warm miss plus k refinement probes, and the
  // in-band probe's bytes are the archive: 1 + k compressions, not 2 + k.
  const auto calls = counting_calls();
  EngineConfig config = fast_config("curve-counting", 10.0);
  config.tuner.threads = 1;
  Engine engine(config);
  const NdArray calm = make_field(DType::kFloat32, {16, 16, 16}, 50.0);
  const NdArray wild = make_field(DType::kFloat32, {16, 16, 16}, 400.0);
  Buffer out;
  CompressOutcome outcome;
  ASSERT_TRUE(engine.compress("f", calm.view(), out, &outcome).ok());  // trains
  EXPECT_TRUE(outcome.retrained);
  ASSERT_TRUE(engine.compress("f", calm.view(), out, &outcome).ok());  // warm
  EXPECT_TRUE(outcome.warm);

  const int before = calls->load();
  const std::size_t probes_before = engine.stats().tuner_probe_calls;
  ASSERT_TRUE(engine.compress("f", wild.view(), out, &outcome).ok());
  const auto k = static_cast<int>(engine.stats().tuner_probe_calls - probes_before);
  EXPECT_TRUE(outcome.refined);
  EXPECT_FALSE(outcome.retrained);
  EXPECT_FALSE(outcome.warm);
  EXPECT_TRUE(outcome.in_band) << outcome.achieved_ratio;
  EXPECT_GE(k, 1);
  EXPECT_LE(k, kRefineProbeCap);
  EXPECT_EQ(calls->load() - before, 1 + k);
  EXPECT_EQ(engine.stats().refines, 1u);
  EXPECT_EQ(engine.stats().retrains, 1u);
  EXPECT_EQ(engine.field_stats().at("f").refines, 1u);
  EXPECT_DOUBLE_EQ(engine.cached_bound("f"), outcome.error_bound);

  testhelpers::CurveCompressor reference("curve-counting", testhelpers::power_curve(0.6));
  reference.set_error_bound(outcome.error_bound);
  Buffer expected;
  ASSERT_TRUE(reference.compress_into(wild.view(), expected).ok());
  ASSERT_EQ(out.size(), expected.size());
  EXPECT_EQ(std::memcmp(out.data(), expected.data(), expected.size()), 0);
}

TEST(OnlineTunerV2, RefinedDriftKeepsTheInBandProbeAsTheArchive) {
  const auto calls = counting_calls();
  auto prototype = pressio::registry().create("curve-counting");
  TunerConfig cfg;
  cfg.target_ratio = 10.0;
  cfg.epsilon = 0.1;
  cfg.threads = 1;
  OnlineTuner online(*prototype, cfg);
  const NdArray calm = make_field(DType::kFloat32, {16, 16, 16}, 50.0);
  const NdArray wild = make_field(DType::kFloat32, {16, 16, 16}, 400.0);
  Buffer out;
  ASSERT_TRUE(online.push_into(calm.view(), out).ok());
  ASSERT_TRUE(online.push_into(calm.view(), out).ok());

  const int before = calls->load();
  StepOutcome drift;
  ASSERT_TRUE(online.push_into(wild.view(), out, &drift).ok());
  EXPECT_TRUE(drift.result.refined);
  EXPECT_FALSE(drift.retrained);
  // compress_calls counts the warm miss and the k refinement probes; no
  // archive pass follows.
  EXPECT_EQ(calls->load() - before, drift.result.compress_calls);
  EXPECT_LE(drift.result.compress_calls, 1 + kRefineProbeCap);
  EXPECT_EQ(online.stats().refines, 1u);
  EXPECT_EQ(online.stats().retrains, 1u);
  EXPECT_TRUE(ratio_acceptable(static_cast<double>(wild.size_bytes()) /
                                   static_cast<double>(out.size()),
                               10.0, 0.1));
}

TEST(Engine, EvaluateReportsFidelityAtTunedBound) {
  Engine engine(fast_config("zfp"));
  const NdArray field = test_field();
  const auto report = engine.evaluate("field", field.view());
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_GT(report.value().probe.ratio, 1.0);
  EXPECT_GT(report.value().psnr_db, 20.0);
  EXPECT_LE(report.value().max_abs_error, engine.cached_bound("field") * 1.0000001);
}

TEST(Engine, DecompressGarbageIsAStatus) {
  Engine engine(fast_config("sz"));
  const std::uint8_t junk[16] = {};
  const auto r = engine.decompress(junk, sizeof(junk));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptStream);
}

// ----------------------------------------------------- streaming fast path

TEST(OnlineTunerV2, PushIntoWarmAndDriftPaths) {
  auto c = pressio::registry().create("sz");
  TunerConfig cfg;
  cfg.target_ratio = 5.0;
  cfg.epsilon = 0.1;
  cfg.threads = 2;
  OnlineTuner online(*c, cfg);
  const NdArray calm = test_field();
  Buffer out;

  StepOutcome first;
  ASSERT_TRUE(online.push_into(calm.view(), out, &first).ok());
  EXPECT_TRUE(first.retrained);
  ASSERT_GT(online.carried_bound(), 0.0);
  ASSERT_GT(out.size(), 0u);

  // Warm frame: identical data — the archive doubles as the acceptance
  // probe, so the frame costs exactly ONE compression.
  StepOutcome warm;
  ASSERT_TRUE(online.push_into(calm.view(), out, &warm).ok());
  EXPECT_TRUE(warm.result.from_prediction);
  EXPECT_FALSE(warm.retrained);
  EXPECT_EQ(warm.result.compress_calls, 1);

  // Regime change: 1000x the amplitude pushes the carried bound's achieved
  // ratio out of the band — the stream must retune, and the failed warm
  // archive is counted as the prediction probe it effectively was.  Local
  // refinement from that miss lands in band, and its in-band probe's bytes
  // are the frame's archive.
  const NdArray wild = make_field(DType::kFloat32, {37, 41}, 50000.0);
  StepOutcome drift;
  ASSERT_TRUE(online.push_into(wild.view(), out, &drift).ok());
  EXPECT_TRUE(drift.result.refined);
  EXPECT_FALSE(drift.retrained);
  EXPECT_FALSE(drift.result.from_prediction);
  EXPECT_GT(drift.result.compress_calls, 1);
  EXPECT_LE(drift.result.compress_calls, 1 + kRefineProbeCap);
  EXPECT_EQ(online.stats().refines, 1u);
  auto reference = pressio::registry().create("sz");
  reference->set_error_bound(drift.result.error_bound);
  const auto expected = reference->compress(wild.view());
  ASSERT_EQ(out.size(), expected.size());
  EXPECT_EQ(std::memcmp(out.data(), expected.data(), expected.size()), 0);
}

// ------------------------------------------------ registry config creation

TEST(Options, CoercionRejectsOutOfRangeValues) {
  pressio::Options o;
  o.set("big", std::int64_t{5'000'000'000});
  o.set("neg", std::int64_t{-1});
  o.set("huge", 1e19);
  EXPECT_THROW(o.get<int>("big"), InvalidArgument);       // would wrap
  EXPECT_THROW(o.get<unsigned>("neg"), InvalidArgument);  // would wrap to 2^32-1
  EXPECT_THROW(o.get<std::int64_t>("huge"), InvalidArgument);  // above int64 range
  EXPECT_DOUBLE_EQ(o.get<double>("big"), 5e9);  // widening stays fine
}

TEST(Registry, CreateWithOptionsAppliesThem) {
  auto c = pressio::registry().create("sz", pressio::Options{{"sz:error_bound", 0.75}});
  EXPECT_DOUBLE_EQ(c->error_bound(), 0.75);
}

TEST(Registry, TryCreateReturnsStatusInsteadOfThrowing) {
  const auto unknown = pressio::registry().try_create("lzma");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kUnsupported);

  const auto bad_option =
      pressio::registry().try_create("sz", pressio::Options{{"sz:error_bound", -1.0}});
  ASSERT_FALSE(bad_option.ok());
  EXPECT_EQ(bad_option.status().code(), StatusCode::kInvalidArgument);

  auto ok = pressio::registry().try_create("zfp");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value()->name(), "zfp");
}

}  // namespace
}  // namespace fraz
