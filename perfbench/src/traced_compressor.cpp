#include "traced_compressor.hpp"

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#include "pressio/registry.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using fraz::ArrayView;
using fraz::Buffer;
using fraz::NdArray;
using fraz::Status;
using fraz::pressio::Capabilities;
using fraz::pressio::Compressor;
using fraz::pressio::CompressorPtr;
using fraz::pressio::Options;

struct Totals {
  std::atomic<std::uint64_t> compress_calls{0};
  std::atomic<std::uint64_t> compress_bytes{0};
  std::atomic<std::uint64_t> compress_ns{0};
  std::atomic<std::uint64_t> decompress_calls{0};
  std::atomic<std::uint64_t> decompress_bytes{0};
  std::atomic<std::uint64_t> decompress_ns{0};
};

Totals& totals_of(const std::string& label) {
  static std::mutex mutex;
  static std::map<std::string, std::unique_ptr<Totals>> all;
  std::lock_guard<std::mutex> lock(mutex);
  auto& slot = all[label];
  if (!slot) slot = std::make_unique<Totals>();
  return *slot;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

class TracedCompressor final : public Compressor {
public:
  TracedCompressor(std::string label, CompressorPtr inner)
      : label_(std::move(label)), name_(traced_name(label_)), inner_(std::move(inner)),
        totals_(totals_of(label_)) {}

  std::string name() const override { return name_; }

  Capabilities capabilities() const override {
    Capabilities c = inner_->capabilities();
    c.name = name_;
    return c;
  }

  Options get_options() const override { return inner_->get_options(); }
  void set_options(const Options& options) override { inner_->set_options(options); }
  void set_error_bound(double bound) override { inner_->set_error_bound(bound); }
  double error_bound() const override { return inner_->error_bound(); }

  Status compress_into(const ArrayView& input, Buffer& out) const noexcept override {
    ScopedSpan span("compress", "compressors");
    span.set_bytes(input.size_bytes());
    const auto start = std::chrono::steady_clock::now();
    Status status = inner_->compress_into(input, out);
    totals_.compress_ns.fetch_add(elapsed_ns(start), std::memory_order_relaxed);
    totals_.compress_calls.fetch_add(1, std::memory_order_relaxed);
    totals_.compress_bytes.fetch_add(input.size_bytes(), std::memory_order_relaxed);
    return status;
  }

  Status decompress_into(const std::uint8_t* data, std::size_t size,
                         NdArray& out) const noexcept override {
    ScopedSpan span("decompress", "compressors");
    const auto start = std::chrono::steady_clock::now();
    Status status = inner_->decompress_into(data, size, out);
    totals_.decompress_ns.fetch_add(elapsed_ns(start), std::memory_order_relaxed);
    totals_.decompress_calls.fetch_add(1, std::memory_order_relaxed);
    totals_.decompress_bytes.fetch_add(out.size_bytes(), std::memory_order_relaxed);
    span.set_bytes(out.size_bytes());
    return status;
  }

  CompressorPtr clone() const override {
    return std::make_unique<TracedCompressor>(label_, inner_->clone());
  }

private:
  std::string label_;
  std::string name_;
  CompressorPtr inner_;
  Totals& totals_;
};

}  // namespace

const std::vector<BackendSpec>& backend_specs() {
  static const std::vector<BackendSpec> specs = {
      {"sz", "sz", {}},
      {"sz-blocked", "sz", Options{{"sz:mode", std::string("blocked")}}},
      {"szx", "szx", {}},
      {"zfp", "zfp", {}},
      {"mgard", "mgard", {}},
  };
  return specs;
}

const BackendSpec& backend_spec(const std::string& label) {
  for (const BackendSpec& spec : backend_specs())
    if (spec.label == label) return spec;
  throw fraz::InvalidArgument("perfbench: unknown backend label " + label);
}

std::string traced_name(const std::string& label) { return "pb-" + label; }

void register_traced_compressors() {
  static std::once_flag once;
  std::call_once(once, [] {
    for (const BackendSpec& spec : backend_specs()) {
      fraz::pressio::registry().register_factory(traced_name(spec.label), [spec] {
        return std::make_unique<TracedCompressor>(
            spec.label, fraz::pressio::registry().create(spec.inner, spec.options));
      });
    }
  });
}

CompressorTotals compressor_totals(const std::string& label) {
  const Totals& t = totals_of(label);
  CompressorTotals out;
  out.compress_calls = t.compress_calls.load();
  out.compress_bytes = t.compress_bytes.load();
  out.compress_s = static_cast<double>(t.compress_ns.load()) * 1e-9;
  out.decompress_calls = t.decompress_calls.load();
  out.decompress_bytes = t.decompress_bytes.load();
  out.decompress_s = static_cast<double>(t.decompress_ns.load()) * 1e-9;
  return out;
}

}  // namespace perfbench
