/// Reproduction of Fig. 6: per-time-step convergence of FRaZ on the
/// Hurricane CLOUD field, one feasible target (paper: rho_t = 8, "good
/// case") and one drifting-infeasible target (paper: rho_t = 15, "bad
/// case"), plus the §VI-B.1 warm-start observation (few retrains).
///
/// Expected shapes:
///  - good case: nearly all steps land inside the band; only a handful of
///    retrains across the series;
///  - bad case: many steps miss the band and oscillate around it, because
///    the achievable ratio set drifts away from the target over time.

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/tuner.hpp"

namespace {

using namespace fraz;

void run_case(const char* label, double target, const std::vector<ArrayView>& views,
              double max_error_bound) {
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg;
  cfg.target_ratio = target;
  cfg.epsilon = 0.1;
  cfg.regions = 8;
  cfg.max_evals_per_region = 16;
  cfg.max_error_bound = max_error_bound;  // U in the paper's Eq. 2 (0 = auto)
  const Tuner tuner(*compressor, cfg);
  const SeriesResult series = tuner.tune_series(views);

  std::printf("\n[%s] target ratio %.1f, epsilon %.2f\n", label, target, cfg.epsilon);
  Table t({"step", "achieved_ratio", "in_band", "retrained", "compress_calls", "cache_hits"});
  int in_band = 0;
  for (std::size_t s = 0; s < series.steps.size(); ++s) {
    const auto& step = series.steps[s];
    const bool ok = step.feasible;
    in_band += ok;
    t.add_row({std::to_string(s), Table::num(step.achieved_ratio, 2), ok ? "yes" : "no",
               step.retrained() ? "yes" : "no", std::to_string(step.compress_calls),
               std::to_string(step.probe_cache_hits)});
  }
  t.print(std::cout);
  // "probes executed" is the cost the unified tuning stack minimizes: probes
  // the searches consumed minus those the dedup cache served for free.
  std::printf("steps in band: %d/%zu, retrains: %d, total compress calls: %d "
              "(%d cache hits, %d probes executed)\n",
              in_band, series.steps.size(), series.retrain_count,
              series.total_compress_calls, series.total_probe_cache_hits,
              series.total_compress_calls - series.total_probe_cache_hits);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("Fig. 6 reproduction: good vs bad convergence across time steps");
  cli.add_string("scale", "small", "suite scale: tiny|small|medium");
  cli.add_int("steps", 12, "time steps to tune");
  cli.add_double("good-target", 8.0, "feasible target (paper: 8)");
  cli.add_double("bad-target", 15.0, "drifting-infeasible target (paper: 15)");
  cli.add_double("bad-max-bound", 1.0e-5,
                 "U for the bad case: user's max allowed error (paper Eq. 2); the "
                 "field's noise floor rises across steps, pushing the bound needed "
                 "for the target past U — the paper's drift-to-infeasible story");
  if (!cli.parse(argc, argv)) return 0;

  bench::banner("Fig. 6", "convergence across time steps (Hurricane CLOUD analogue, SZ)",
                "good target: >90% of steps in band, few retrains; bad target: "
                "oscillation around an infeasible objective");

  const auto ds = data::dataset_by_name("hurricane", bench::parse_scale(cli.get_string("scale")));
  const auto spec = data::field_by_name(ds, "CLOUDf");
  const auto arrays = data::generate_series(spec, static_cast<int>(cli.get_int("steps")));
  std::vector<ArrayView> views;
  for (const auto& a : arrays) views.push_back(a.view());

  run_case("good convergence case (Fig. 6b)", cli.get_double("good-target"), views, 0.0);
  run_case("bad convergence case (Fig. 6a)", cli.get_double("bad-target"), views,
           cli.get_double("bad-max-bound"));
  return 0;
}
