#include "core/serialize.hpp"

#include <sstream>

namespace fraz {

std::string to_json(const pressio::Options& options) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [key, value] : options) {
    if (!first) os << ",";
    first = false;
    os << json_escape(key) << ":";
    if (const auto* b = std::get_if<bool>(&value))
      os << (*b ? "true" : "false");
    else if (const auto* i = std::get_if<std::int64_t>(&value))
      os << *i;
    else if (const auto* d = std::get_if<double>(&value))
      os << json_number(*d);
    else
      os << json_escape(std::get<std::string>(value));
  }
  os << "}";
  return os.str();
}

std::string to_json(const TuneResult& result) {
  std::ostringstream os;
  os << "{\"error_bound\":" << json_number(result.error_bound)
     << ",\"achieved_ratio\":" << json_number(result.achieved_ratio)
     << ",\"feasible\":" << (result.feasible ? "true" : "false")
     << ",\"from_prediction\":" << (result.from_prediction ? "true" : "false")
     << ",\"compress_calls\":" << result.compress_calls
     << ",\"probe_cache_hits\":" << result.probe_cache_hits
     << ",\"probes_executed\":" << (result.compress_calls - result.probe_cache_hits)
     << ",\"seconds\":" << json_number(result.seconds);
  if (!result.regions.empty()) {
    os << ",\"regions\":[";
    for (std::size_t i = 0; i < result.regions.size(); ++i) {
      const RegionOutcome& r = result.regions[i];
      if (i) os << ",";
      os << "{\"lo\":" << json_number(r.region.lo) << ",\"hi\":" << json_number(r.region.hi)
         << ",\"best_bound\":" << json_number(r.best_bound)
         << ",\"best_ratio\":" << json_number(r.best_ratio)
         << ",\"compress_calls\":" << r.compress_calls
         << ",\"cache_hits\":" << r.cache_hits
         << ",\"hit_cutoff\":" << (r.hit_cutoff ? "true" : "false")
         << ",\"cancelled\":" << (r.cancelled ? "true" : "false") << "}";
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

std::string to_json(const SeriesResult& series) {
  std::ostringstream os;
  os << "{\"retrain_count\":" << series.retrain_count
     << ",\"total_compress_calls\":" << series.total_compress_calls
     << ",\"total_probe_cache_hits\":" << series.total_probe_cache_hits
     << ",\"seconds\":" << json_number(series.seconds) << ",\"steps\":[";
  for (std::size_t i = 0; i < series.steps.size(); ++i) {
    if (i) os << ",";
    os << "{\"retrained\":" << (series.steps[i].retrained() ? "true" : "false")
       << ",\"result\":" << to_json(series.steps[i]) << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace fraz
