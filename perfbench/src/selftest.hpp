#ifndef PERFBENCH_SELFTEST_HPP
#define PERFBENCH_SELFTEST_HPP

#include <string>
#include <vector>

namespace perfbench {

/// Checks of the benchmark's own arithmetic (percentile rule, span self
/// time, share ratios, median) and of its determinism (same seed, same
/// inputs and archive digest; another seed, other inputs).  Returns the
/// names of the checks that failed.
std::vector<std::string> run_selftests();

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_HPP
