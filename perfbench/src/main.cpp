// perfbench — one command for the repository's end-to-end benchmark.
//
//   perfbench --workload tune-cold|ingest-warm|serve-skewed --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints a provenance line, a report line (per-op records and failures) and,
// as the last line, {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones, and the recorded spans go to DIR/trace-<workload>-<seed>.json.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "selftest.hpp"
#include "trace.hpp"
#include "traced_compressor.hpp"
#include "util/json_writer.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload tune-cold|ingest-warm|serve-skewed "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

std::string provenance(const perfbench::RunConfig& config) {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const std::size_t ws = perfbench::working_set_bytes(config.workload);
  fraz::JsonWriter w;
  w.begin_object()
      .field("nproc", std::thread::hardware_concurrency())
      .field("workers", config.workers)
      .field("simd_baseline", fraz::simd::isa_name())
      .field("simd_active", fraz::simd::cpu_has_avx2() ? "avx2" : fraz::simd::isa_name())
      .field("build_type", PERFBENCH_BUILD_TYPE)
#if defined(__clang__)
      .field("compiler", "clang " __clang_version__)
#elif defined(__GNUC__)
      .field("compiler", "gcc " __VERSION__)
#else
      .field("compiler", "unknown")
#endif
      .field("l2_bytes", l2)
      .field("l3_bytes", l3)
      .field("working_set_bytes", ws)
      .field("working_set_over_l2", l2 > 0 ? static_cast<double>(ws) / static_cast<double>(l2) : 0.0)
      .field("working_set_over_l3", l3 > 0 ? static_cast<double>(ws) / static_cast<double>(l3) : 0.0)
      .end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.work_dir = ".bench_build/work";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
        have_seconds = config.seconds > 0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        config.trace = value == "1";
        have_trace = true;
      } else if (arg == "--work-dir") {
        config.work_dir = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload || !perfbench::known_workload(config.workload)) usage("unknown workload");
  if (!have_seed || !have_seconds || !have_trace) usage("--seed, --seconds and --trace are required");
  // One core is left free.  On a 4-core VM, one busy core elsewhere moved
  // ingest-warm's read p99 by +65% with 4 threads and by +9% with 3, and
  // serve-skewed's by +36% and +8%.
  config.workers = std::max(1u, std::min(4u, std::thread::hardware_concurrency()) - 1);

  try {
    std::filesystem::create_directories(config.work_dir);
    const std::vector<std::string> selftest_failures = perfbench::run_selftests();
    if (config.trace) perfbench::register_traced_compressors();
    std::printf("{\"provenance\": %s}\n", provenance(config).c_str());
    std::fflush(stdout);

    const perfbench::Outcome outcome = perfbench::run_workload(config);
    if (config.trace) {
      const std::string path = config.work_dir + "/trace-" + config.workload + "-" +
                               std::to_string(config.seed) + ".json";
      if (!perfbench::Recorder::instance().write_chrome_json(path))
        throw std::runtime_error("cannot write " + path);
      std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
    }

    fraz::JsonWriter selftests;
    selftests.begin_array();
    for (const std::string& name : selftest_failures) selftests.value(name);
    selftests.end_array();
    std::printf("{\"report\": %s, \"selftest_failures\": %s}\n", outcome.report.c_str(),
                selftests.str().c_str());

    fraz::JsonWriter w;
    w.begin_object()
        .field("correct", selftest_failures.empty() && outcome.failed == 0)
        .field("attempted", outcome.attempted)
        .field("failed", outcome.failed)
        .key("metrics")
        .begin_object();
    for (const auto& [name, metric] : outcome.metrics)
      w.key(name).begin_object().field("value", metric.value).field("unit", metric.unit).end_object();
    w.end_object().end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
