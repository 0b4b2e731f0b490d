#include "compressors/zfp/zfp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "test_helpers.hpp"
#include "util/error.hpp"

namespace fraz {
namespace {

using testhelpers::make_field;
using testhelpers::max_error;

/// Accuracy-mode property sweep: dims x dtype x tolerance.
class ZfpAccuracySweep
    : public testing::TestWithParam<std::tuple<int, DType, double>> {};

TEST_P(ZfpAccuracySweep, ErrorBoundRespected) {
  const auto [dims, dtype, tolerance] = GetParam();
  const Shape shape = dims == 1 ? Shape{301} : dims == 2 ? Shape{29, 34} : Shape{10, 13, 18};
  const NdArray field = make_field(dtype, shape);
  ZfpOptions opt;
  opt.mode = ZfpMode::kAccuracy;
  opt.tolerance = tolerance;
  const auto compressed = zfp_compress(field.view(), opt);
  const NdArray decoded = zfp_decompress(compressed);
  ASSERT_EQ(decoded.shape(), shape);
  ASSERT_EQ(decoded.dtype(), dtype);
  EXPECT_LE(max_error(field, decoded), tolerance)
      << "dims=" << dims << " tol=" << tolerance;
}

INSTANTIATE_TEST_SUITE_P(
    DimsTypesTolerances, ZfpAccuracySweep,
    testing::Combine(testing::Values(1, 2, 3),
                     testing::Values(DType::kFloat32, DType::kFloat64),
                     testing::Values(1e-4, 1e-2, 1.0, 10.0)));

TEST(Zfp, RatioGrowsWithTolerance) {
  const NdArray field = make_field(DType::kFloat32, {16, 32, 32});
  double last_size = 1e18;
  for (double tol : {1e-5, 1e-3, 1e-1, 10.0}) {
    ZfpOptions opt;
    opt.tolerance = tol;
    const auto compressed = zfp_compress(field.view(), opt);
    EXPECT_LE(compressed.size(), last_size * 1.02) << "tol=" << tol;
    last_size = static_cast<double>(compressed.size());
  }
}

TEST(Zfp, ToleranceFlooringCreatesSteps) {
  // The paper: ZFP "uses a flooring function in the minimum exponent
  // calculation", so tolerances within the same power of two produce the
  // same compressed size.
  const NdArray field = make_field(DType::kFloat32, {16, 16, 16});
  ZfpOptions a, b, c;
  a.tolerance = 0.130;
  b.tolerance = 0.200;  // same floor(log2): both in [2^-3, 2^-2)
  c.tolerance = 0.300;  // next step: in [2^-2, 2^-1)
  const auto ca = zfp_compress(field.view(), a);
  const auto cb = zfp_compress(field.view(), b);
  const auto cc = zfp_compress(field.view(), c);
  EXPECT_EQ(ca.size(), cb.size());
  EXPECT_LT(cc.size(), ca.size());
}

/// The premise of the probe layer's kPow2 lattice: within one tread
/// [2^k, 2^(k+1)) accuracy mode realises one bit plane, so every tolerance
/// there compresses to the same size and decodes to the same values (the
/// payload records the raw tolerance, which is why the bytes themselves may
/// differ).  If the coder ever used the tolerance continuously, the probe
/// cache would serve wrong ratios and this must fail.
class ZfpTreadSweep : public testing::TestWithParam<std::tuple<int, DType>> {};

TEST_P(ZfpTreadSweep, ToleranceInsideOneTreadGivesSameSizeAndValues) {
  const auto [dims, dtype] = GetParam();
  const Shape shape = dims == 1 ? Shape{301} : dims == 2 ? Shape{29, 34} : Shape{10, 13, 18};
  const NdArray field = make_field(dtype, shape);
  for (const int k : {-12, -5, 0, 3}) {
    const double floor = std::ldexp(1.0, k);
    const double ceiling = std::ldexp(1.0, k + 1);
    ZfpOptions base;
    base.tolerance = floor;
    const auto reference = zfp_compress(field.view(), base);
    const NdArray reference_values = zfp_decompress(reference);
    for (const double tolerance :
         {floor * 1.001, floor * 1.25, floor * 1.5, floor * 1.9, std::nextafter(ceiling, 0.0)}) {
      ZfpOptions opt;
      opt.tolerance = tolerance;
      const auto compressed = zfp_compress(field.view(), opt);
      EXPECT_EQ(compressed.size(), reference.size()) << "k=" << k << " tol=" << tolerance;
      const NdArray decoded = zfp_decompress(compressed);
      ASSERT_EQ(decoded.size_bytes(), reference_values.size_bytes());
      EXPECT_EQ(std::memcmp(decoded.data(), reference_values.data(), decoded.size_bytes()), 0)
          << "k=" << k << " tol=" << tolerance;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DimsTypes, ZfpTreadSweep,
                         testing::Combine(testing::Values(1, 2, 3),
                                          testing::Values(DType::kFloat32, DType::kFloat64)));

TEST(Zfp, ConstantFieldNearlyFree) {
  NdArray field(DType::kFloat32, {16, 16, 16});
  for (std::size_t i = 0; i < field.elements(); ++i) field.set_flat(i, 3.25);
  ZfpOptions opt;
  opt.tolerance = 1e-3;
  const auto compressed = zfp_compress(field.view(), opt);
  const NdArray decoded = zfp_decompress(compressed);
  EXPECT_LE(max_error(field, decoded), 1e-3);
  EXPECT_LT(compressed.size(), field.size_bytes() / 8);
}

TEST(Zfp, AllZeroFieldExact) {
  NdArray field(DType::kFloat64, {4, 8, 12});
  ZfpOptions opt;
  opt.tolerance = 1e-6;
  const NdArray decoded = zfp_decompress(zfp_compress(field.view(), opt));
  EXPECT_EQ(max_error(field, decoded), 0.0);
}

TEST(Zfp, PartialBlocksHandled) {
  // Shapes deliberately not multiples of 4 in every dimension.
  for (const Shape& shape : {Shape{5}, Shape{7, 9}, Shape{5, 6, 7}, Shape{1, 1, 1},
                             Shape{4, 4, 5}}) {
    const NdArray field = make_field(DType::kFloat32, shape);
    ZfpOptions opt;
    opt.tolerance = 1e-2;
    const NdArray decoded = zfp_decompress(zfp_compress(field.view(), opt));
    ASSERT_EQ(decoded.shape(), shape);
    EXPECT_LE(max_error(field, decoded), 1e-2) << "shape rank " << shape.size();
  }
}

// ---------------------------------------------------------- fixed-rate mode

TEST(Zfp, FixedRateSizeMatchesBudget) {
  // For block-aligned shapes the stream must be ~rate bits per value.
  const Shape shape{16, 16, 16};
  const NdArray field = make_field(DType::kFloat32, shape);
  for (double rate : {2.0, 4.0, 8.0}) {
    ZfpOptions opt;
    opt.mode = ZfpMode::kFixedRate;
    opt.rate = rate;
    const auto compressed = zfp_compress(field.view(), opt);
    const double bits_per_value = 8.0 * static_cast<double>(compressed.size()) /
                                  static_cast<double>(field.elements());
    // Container + mode header amortize to well under half a bit here.
    EXPECT_NEAR(bits_per_value, rate, 0.5) << "rate=" << rate;
  }
}

TEST(Zfp, FixedRateErrorShrinksWithRate) {
  const NdArray field = make_field(DType::kFloat32, {16, 16, 16});
  double last_err = 1e30;
  for (double rate : {1.0, 4.0, 12.0, 24.0}) {
    ZfpOptions opt;
    opt.mode = ZfpMode::kFixedRate;
    opt.rate = rate;
    const NdArray decoded = zfp_decompress(zfp_compress(field.view(), opt));
    const double err = max_error(field, decoded);
    EXPECT_LT(err, last_err) << "rate=" << rate;
    last_err = err;
  }
}

TEST(Zfp, FixedRateWorseThanAccuracyAtSameSize) {
  // The paper's Fig. 1 headline: at matched compressed size, fixed-rate
  // reconstruction loses to fixed-accuracy.
  const NdArray field = make_field(DType::kFloat32, {16, 32, 32});
  ZfpOptions acc;
  acc.mode = ZfpMode::kAccuracy;
  acc.tolerance = 0.5;
  const auto ca = zfp_compress(field.view(), acc);
  const double bits = 8.0 * static_cast<double>(ca.size()) /
                      static_cast<double>(field.elements());
  ZfpOptions rate;
  rate.mode = ZfpMode::kFixedRate;
  rate.rate = bits;  // same budget
  const auto cr = zfp_compress(field.view(), rate);
  const double err_acc = max_error(field, zfp_decompress(ca));
  const double err_rate = max_error(field, zfp_decompress(cr));
  EXPECT_LE(err_acc, err_rate * 1.05);  // allow a hair of slack
}

TEST(Zfp, FractionalRatesSupported) {
  const NdArray field = make_field(DType::kFloat32, {16, 16, 16});
  ZfpOptions opt;
  opt.mode = ZfpMode::kFixedRate;
  opt.rate = 0.32;  // CR 100 for f32
  const auto compressed = zfp_compress(field.view(), opt);
  const NdArray decoded = zfp_decompress(compressed);
  EXPECT_EQ(decoded.shape(), field.shape());
  const double ratio = static_cast<double>(field.size_bytes()) /
                       static_cast<double>(compressed.size());
  EXPECT_GT(ratio, 50.0);
}

// ----------------------------------------------------------------- guards

TEST(Zfp, RejectsBadArguments) {
  const NdArray field = make_field(DType::kFloat32, {8, 8});
  ZfpOptions opt;
  opt.tolerance = 0.0;
  EXPECT_THROW(zfp_compress(field.view(), opt), InvalidArgument);
  opt.tolerance = -1;
  EXPECT_THROW(zfp_compress(field.view(), opt), InvalidArgument);
  opt = ZfpOptions{};
  opt.mode = ZfpMode::kFixedRate;
  opt.rate = 0;
  EXPECT_THROW(zfp_compress(field.view(), opt), InvalidArgument);
}

TEST(Zfp, RejectsForeignContainer) {
  const std::vector<std::uint8_t> junk(64, 0x5a);
  EXPECT_THROW(zfp_decompress(junk), CorruptStream);
}

TEST(Zfp, DeterministicOutput) {
  const NdArray field = make_field(DType::kFloat64, {9, 10, 11});
  ZfpOptions opt;
  opt.tolerance = 1e-3;
  EXPECT_EQ(zfp_compress(field.view(), opt), zfp_compress(field.view(), opt));
}

}  // namespace
}  // namespace fraz
