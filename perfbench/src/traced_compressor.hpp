#ifndef PERFBENCH_TRACED_COMPRESSOR_HPP
#define PERFBENCH_TRACED_COMPRESSOR_HPP

/// \file traced_compressor.hpp
/// A forwarding decorator over a built-in backend that times every
/// compress/decompress call and records one span per call.  Traced runs
/// register one decorator per measured backend under "pb-<label>" and name
/// that in the writer config, so the compressors layer is measured from the
/// outside without touching the library.  Untraced runs never register it:
/// the manifest records the registry name, so archive bytes differ between
/// traced and untraced runs (compare digests across untraced runs only).

#include <cstdint>
#include <string>
#include <vector>

#include "pressio/options.hpp"

namespace perfbench {

/// One measured backend: its label in metric names, the built-in it wraps,
/// and the options that select its mode.
struct BackendSpec {
  std::string label;  ///< "sz", "sz-blocked", "szx", "zfp", "mgard"
  std::string inner;  ///< built-in registry name
  fraz::pressio::Options options;
};

const std::vector<BackendSpec>& backend_specs();
const BackendSpec& backend_spec(const std::string& label);

/// Registry name of the decorator for \p label.
std::string traced_name(const std::string& label);

/// Register every decorator (idempotent).
void register_traced_compressors();

struct CompressorTotals {
  std::uint64_t compress_calls = 0;
  std::uint64_t compress_bytes = 0;  ///< raw input bytes
  double compress_s = 0;
  std::uint64_t decompress_calls = 0;
  std::uint64_t decompress_bytes = 0;  ///< raw output bytes
  double decompress_s = 0;
};

/// Totals recorded by the decorators of \p label so far.
CompressorTotals compressor_totals(const std::string& label);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_COMPRESSOR_HPP
