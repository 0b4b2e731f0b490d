#include <gtest/gtest.h>

#include "core/serialize.hpp"
#include "core/tuner.hpp"
#include "data/datasets.hpp"
#include "pressio/metrics_plugin.hpp"
#include "pressio/registry.hpp"
#include "test_helpers.hpp"

namespace fraz {
namespace {

using testhelpers::make_field;

// --------------------------------------------------------- metrics plugins

TEST(MetricsPlugins, SizePluginMeasuresArchive) {
  auto c = pressio::registry().create("sz");
  c->set_error_bound(0.05);
  const NdArray field = make_field(DType::kFloat32, {32, 32});
  auto size = pressio::make_size_metrics();
  const auto merged = pressio::run_with_metrics(*c, field.view(), {size.get()});
  EXPECT_EQ(merged.get<std::int64_t>("size:uncompressed_bytes"),
            static_cast<std::int64_t>(field.size_bytes()));
  EXPECT_GT(merged.get<std::int64_t>("size:compressed_bytes"), 0);
  EXPECT_GT(merged.get<double>("size:compression_ratio"), 1.0);
  EXPECT_GT(merged.get<double>("size:bit_rate"), 0.0);
}

TEST(MetricsPlugins, TimePluginMeasuresBothPhases) {
  auto c = pressio::registry().create("zfp");
  c->set_error_bound(0.05);
  const NdArray field = make_field(DType::kFloat32, {32, 32});
  auto time = pressio::make_time_metrics();
  const auto merged = pressio::run_with_metrics(*c, field.view(), {time.get()});
  EXPECT_GE(merged.get<double>("time:compress_seconds"), 0.0);
  EXPECT_GE(merged.get<double>("time:decompress_seconds"), 0.0);
}

TEST(MetricsPlugins, ErrorPluginHonoursBound) {
  auto c = pressio::registry().create("sz");
  c->set_error_bound(0.05);
  const NdArray field = make_field(DType::kFloat32, {32, 32});
  auto error = pressio::make_error_metrics();
  const auto merged = pressio::run_with_metrics(*c, field.view(), {error.get()});
  EXPECT_LE(merged.get<double>("error:max_abs"), 0.05);
  EXPECT_GT(merged.get<double>("error:psnr_db"), 20.0);
  EXPECT_LE(merged.get<double>("error:ssim"), 1.0);
}

TEST(MetricsPlugins, ErrorPluginSkipsSsimOn1d) {
  auto c = pressio::registry().create("sz");
  c->set_error_bound(0.05);
  const NdArray field = make_field(DType::kFloat32, {512});
  auto error = pressio::make_error_metrics();
  const auto merged = pressio::run_with_metrics(*c, field.view(), {error.get()});
  EXPECT_FALSE(merged.contains("error:ssim"));
  EXPECT_TRUE(merged.contains("error:psnr_db"));
}

TEST(MetricsPlugins, ChainMergesAllNamespaces) {
  auto c = pressio::registry().create("mgard");
  c->set_error_bound(0.05);
  const NdArray field = make_field(DType::kFloat32, {24, 24});
  auto size = pressio::make_size_metrics();
  auto time = pressio::make_time_metrics();
  auto error = pressio::make_error_metrics();
  const auto merged =
      pressio::run_with_metrics(*c, field.view(), {size.get(), time.get(), error.get()});
  EXPECT_TRUE(merged.contains("size:compression_ratio"));
  EXPECT_TRUE(merged.contains("time:compress_seconds"));
  EXPECT_TRUE(merged.contains("error:max_abs"));
}

TEST(MetricsPlugins, FactoryByName) {
  EXPECT_EQ(pressio::make_metrics("size")->name(), "size");
  EXPECT_EQ(pressio::make_metrics("time")->name(), "time");
  EXPECT_EQ(pressio::make_metrics("error")->name(), "error");
  EXPECT_THROW(pressio::make_metrics("entropy"), Unsupported);
}

// -------------------------------------------------------------- serialize

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "\"plain\"");
  EXPECT_EQ(json_escape("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_escape("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_escape("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "\"a\\u0001b\"");
}

TEST(Json, NumbersRoundtripPrecision) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(2.5), "2.5");
  // 17 significant digits preserve the double exactly.
  const double v = 0.1234567890123456789;
  EXPECT_EQ(std::stod(json_number(v)), v);
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "\"inf\"");
  EXPECT_EQ(json_number(std::nan("")), "\"nan\"");
}

TEST(Json, OptionsRenderAllTypes) {
  pressio::Options o;
  o.set("b", true);
  o.set("i", std::int64_t{-7});
  o.set("d", 1.5);
  o.set("s", std::string("x\"y"));
  EXPECT_EQ(to_json(o), R"({"b":true,"d":1.5,"i":-7,"s":"x\"y"})");
}

TEST(Json, TuneResultSerializes) {
  const auto ds = data::dataset_by_name("hurricane", data::SuiteScale::kTiny);
  const NdArray field = data::generate_field(data::field_by_name(ds, "TCf"), 0);
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg;
  cfg.target_ratio = 6.0;
  cfg.threads = 1;
  const Tuner tuner(*compressor, cfg);
  const TuneResult r = tuner.tune(field.view());
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"error_bound\":"), std::string::npos);
  EXPECT_NE(json.find("\"achieved_ratio\":"), std::string::npos);
  EXPECT_NE(json.find("\"regions\":["), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  int depth = 0;
  for (const char c : json) {
    depth += (c == '{' || c == '[');
    depth -= (c == '}' || c == ']');
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Json, SeriesResultSerializes) {
  const auto ds = data::dataset_by_name("cesm", data::SuiteScale::kTiny);
  const auto arrays = data::generate_series(data::field_by_name(ds, "PHIS"), 3);
  std::vector<ArrayView> views;
  for (const auto& a : arrays) views.push_back(a.view());
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg;
  cfg.target_ratio = 6.0;
  cfg.threads = 1;
  const SeriesResult series = Tuner(*compressor, cfg).tune_series(views);
  const std::string json = to_json(series);
  EXPECT_NE(json.find("\"retrain_count\":"), std::string::npos);
  EXPECT_NE(json.find("\"steps\":["), std::string::npos);
  // One entry per step.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"retrained\":", pos)) != std::string::npos) {
    ++count;
    pos += 12;
  }
  EXPECT_EQ(count, 3u);
  // Each step keeps its {"retrained":<bool>,"result":<TuneResult>} shape.
  for (const TuneResult& step : series.steps) {
    const std::string entry = std::string("{\"retrained\":") +
                              (step.retrained() ? "true" : "false") +
                              ",\"result\":" + to_json(step) + "}";
    EXPECT_NE(json.find(entry), std::string::npos) << entry;
  }
}

}  // namespace
}  // namespace fraz
