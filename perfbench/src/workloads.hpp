#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <utility>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch files (archives, trace output)
  unsigned workers = 3;  ///< chunk workers, read-back threads and client threads
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Outcome {
  long attempted = 0;
  long failed = 0;
  /// Untraced runs fill the end-to-end metrics, traced runs the per-layer ones.
  std::map<std::string, Metric> metrics;
  /// Latency samples behind read_p50_ms / read_p99_ms (untraced runs).
  std::size_t read_samples = 0;
  /// Preformatted JSON object: per-op records, failures, working set.
  std::string report;
};

/// Workload names, in the order BENCHMARK.json lists them.
bool known_workload(const std::string& name);

/// Raw bytes one op of \p workload touches (one field's two steps, one
/// ingest step, or the four decoded serve archives).
std::size_t working_set_bytes(const std::string& workload);

/// Run one workload end to end (set-up, measured phase, checks).
Outcome run_workload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
