#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

/// \file trace.hpp
/// The benchmark's own span recorder and the arithmetic its metrics rest on.
///
/// Spans are recorded only from the benchmark's files, around calls into a
/// layer's public functions (archive sessions and reads, serve requests, and
/// the forwarding compressor's compress/decompress).  They are kept in memory
/// and written once, at exit, as Chrome trace-event JSON (opens in Perfetto or
/// chrome://tracing).  Recording is off unless the run was started with
/// `--trace 1`; a disabled span costs one relaxed load.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// What the running operation is; every span carries a copy.
struct OpContext {
  std::string workload;
  long op = -1;
  std::string field;
  std::string backend;
};

/// Set the context spans on *every* thread fall back to (pipeline workers do
/// not know which op they serve; ops that run pipelines are sequential).
void set_global_context(const OpContext& context);
/// Per-thread override (concurrent serve clients); clear with nullptr.
void set_thread_context(const OpContext* context);

struct Span {
  std::string name;
  std::string cat;  ///< layer: archive, compressors, serve
  double ts_us = 0;   ///< start, microseconds since process start
  double dur_us = 0;
  std::uint32_t tid = 0;
  OpContext context;
  std::uint64_t bytes = 0;  ///< raw bytes the call produced or consumed
};

/// Microseconds since the recorder's epoch (steady clock).
double now_us() noexcept;

/// Small stable id of the calling thread.
std::uint32_t thread_index() noexcept;

class Recorder {
public:
  static Recorder& instance();
  void enable(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  void record(Span span);
  std::vector<Span> spans() const;
  /// Write every span as a Chrome trace-event JSON document.
  bool write_chrome_json(const std::string& path) const;

private:
  std::atomic<bool> enabled_{false};
};

/// RAII span around one call into a layer.  Does nothing while the recorder
/// is disabled.
class ScopedSpan {
public:
  ScopedSpan(const char* name, const char* cat) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_bytes(std::uint64_t bytes) noexcept { bytes_ = bytes; }

private:
  const char* name_;
  const char* cat_;
  double start_us_ = -1;
  std::uint64_t bytes_ = 0;
};

// ------------------------------------------------------------- arithmetic

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it.  \p samples need not be sorted; 0 when empty.
double percentile(std::vector<double> samples, double p);

/// Samples strictly above the nearest-rank position of percentile \p p.
std::size_t samples_beyond(std::size_t n, double p);

/// num / den, or 0 when den is 0.
double share(double num, double den) noexcept;

/// Self time of each span named \p parent: its duration minus the union of
/// the parts of its interval covered by spans named \p child on the same
/// thread.  Returned in microseconds, in the order the parents appear.
std::vector<double> self_times_us(const std::vector<Span>& spans, const std::string& parent,
                                  const std::string& child);

/// Median of \p values (mean of the middle two for even counts); 0 when empty.
double median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP
