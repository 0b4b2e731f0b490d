/// Use case 1 from the paper (§II-B): fit a multi-field, multi-step climate
/// campaign into a fixed storage allocation.
///
/// A CESM-like run produces six 2D fields over many time steps; the centre
/// grants a fixed byte budget.  The target compression ratio follows from
/// budget / raw size; FRaZ then tunes every field's error bound (fields in
/// parallel, time steps warm-started) and the example verifies that the
/// compressed campaign actually fits.
///
///   ./climate_storage_budget [--budget-mb 2.0] [--steps 6]

#include <cstdio>
#include <iostream>
#include <map>

#include "core/tuner.hpp"
#include "data/datasets.hpp"
#include "pressio/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("Fit a CESM-like campaign into a storage budget with FRaZ");
  cli.add_double("budget-mb", 0.25, "storage allocation for the whole campaign (MB)");
  cli.add_int("steps", 6, "time steps per field");
  cli.add_string("compressor", "sz", "backend: sz|zfp|mgard");
  if (!cli.parse(argc, argv)) return 0;

  const auto dataset = data::dataset_by_name("cesm");
  const int steps = static_cast<int>(cli.get_int("steps"));

  // Generate the campaign and compute the ratio the budget demands.
  std::map<std::string, std::vector<NdArray>> storage;
  std::map<std::string, std::vector<ArrayView>> fields;
  std::size_t raw_bytes = 0;
  for (const auto& spec : dataset.fields) {
    storage[spec.name] = data::generate_series(spec, steps);
    for (const auto& step : storage[spec.name]) {
      fields[spec.name].push_back(step.view());
      raw_bytes += step.size_bytes();
    }
  }
  const double budget_bytes = cli.get_double("budget-mb") * 1e6;
  const double required_ratio = static_cast<double>(raw_bytes) / budget_bytes;
  std::printf("campaign: %zu fields x %d steps = %.1f MB raw; budget %.1f MB -> "
              "target ratio %.1f:1\n",
              fields.size(), steps, raw_bytes / 1e6, budget_bytes / 1e6, required_ratio);

  TunerConfig config;
  config.target_ratio = required_ratio;
  config.epsilon = 0.08;  // stay close: overshooting wastes quality,
                          // undershooting busts the allocation
  auto compressor = pressio::registry().create(cli.get_string("compressor"));
  const Tuner tuner(*compressor, config);
  const auto results = tuner.tune_fields(fields);

  Table t({"field", "steps_in_band", "retrains", "mean_ratio", "bound_last_step"});
  std::size_t compressed_bytes = 0;
  Buffer archive;  // reused across every (field, step) archive pass
  for (const auto& [name, series] : results) {
    int in_band = 0;
    double ratio_sum = 0;
    for (std::size_t s = 0; s < series.steps.size(); ++s) {
      const auto& step = series.steps[s];
      in_band += step.feasible;
      ratio_sum += step.achieved_ratio;
      // Account the actual archive for the fit check (zero-copy V2 path).
      compressor->set_error_bound(step.error_bound);
      const Status st = compressor->compress_into(fields.at(name)[s], archive);
      if (!st.ok()) {
        std::fprintf(stderr, "%s step %zu: %s\n", name.c_str(), s, st.to_string().c_str());
        return 1;
      }
      compressed_bytes += archive.size();
    }
    t.add_row({name, std::to_string(in_band) + "/" + std::to_string(series.steps.size()),
               std::to_string(series.retrain_count),
               Table::num(ratio_sum / static_cast<double>(series.steps.size()), 2),
               Table::num(series.steps.back().error_bound, 6)});
  }
  t.print(std::cout);

  std::printf("\ncompressed campaign: %.2f MB (budget %.2f MB) -> %s\n",
              compressed_bytes / 1e6, budget_bytes / 1e6,
              compressed_bytes <= budget_bytes * 1.02 ? "FITS" : "OVER BUDGET");
  return compressed_bytes <= budget_bytes * 1.02 ? 0 : 1;
}
