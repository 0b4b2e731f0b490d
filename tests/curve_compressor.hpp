#ifndef FRAZ_TESTS_CURVE_COMPRESSOR_HPP
#define FRAZ_TESTS_CURVE_COMPRESSOR_HPP

/// A synthetic plugin compressor for tuner tests: its output size is a chosen
/// function of the error bound, so a test fixes the ratio curve (monotone,
/// stepped, capped) instead of inheriting a real backend's.  The curve sees
/// the bound divided by the input's largest magnitude, so scaling the input
/// moves the whole curve along the bound axis — the drift a warm bound
/// misses.  Every compression bumps a counter shared by all clones.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "ndarray/ndarray.hpp"
#include "pressio/compressor.hpp"
#include "util/buffer.hpp"
#include "util/status.hpp"

namespace fraz::testhelpers {

class CurveCompressor final : public pressio::Compressor {
public:
  /// Maps bound / max|input| to the compression ratio.
  using Curve = std::function<double(double)>;

  /// \p calls, when given, is the counter to bump (so a registry factory
  /// can hand every instance it creates the same one).
  CurveCompressor(std::string name, Curve curve,
                  std::shared_ptr<std::atomic<int>> calls = nullptr)
      : name_(std::move(name)),
        curve_(std::move(curve)),
        calls_(calls ? std::move(calls) : std::make_shared<std::atomic<int>>(0)) {}

  /// Compressions run by this instance and every clone of it.
  int calls() const noexcept { return calls_->load(); }

  std::string name() const override { return name_; }
  pressio::Capabilities capabilities() const override {
    pressio::Capabilities c;
    c.name = name_;
    return c;
  }
  pressio::Options get_options() const override { return {}; }
  void set_options(const pressio::Options&) override {}
  void set_error_bound(double bound) override { bound_ = bound; }
  double error_bound() const override { return bound_; }

  /// Emits raw/ratio bytes (at least 16): the bound's bits, then zeros.  The
  /// ratio is floored at 0.5, as no real backend expands its input further.
  Status compress_into(const ArrayView& input, Buffer& out) const noexcept override {
    calls_->fetch_add(1);
    const double scale = std::max(max_abs(input), 1e-300);
    const double ratio = std::max(0.5, curve_(bound_ / scale));
    const double raw = static_cast<double>(input.size_bytes());
    const auto bytes = static_cast<std::size_t>(std::max(16.0, std::round(raw / ratio)));
    out.resize(bytes);
    std::memset(out.data(), 0, bytes);
    std::memcpy(out.data(), &bound_, sizeof bound_);
    return Status();
  }
  Status decompress_into(const std::uint8_t*, std::size_t, NdArray&) const noexcept override {
    return Status::unsupported("curve compressor: output is not decodable");
  }
  pressio::CompressorPtr clone() const override {
    return std::make_unique<CurveCompressor>(*this);
  }

private:
  std::string name_;
  Curve curve_;
  std::shared_ptr<std::atomic<int>> calls_;
  double bound_ = 1e-3;
};

/// Ratio 10 at scaled bound 1e-3, growing as bound^slope.
inline CurveCompressor::Curve power_curve(double slope) {
  return [slope](double b) { return 10.0 * std::pow(b / 1e-3, slope); };
}

}  // namespace fraz::testhelpers

#endif  // FRAZ_TESTS_CURVE_COMPRESSOR_HPP
