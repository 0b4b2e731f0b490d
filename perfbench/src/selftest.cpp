#include "selftest.hpp"

#include <cmath>

#include "archive/archive.hpp"
#include "codec/checksum.hpp"
#include "data/datasets.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

Span span_at(const char* name, double ts, double dur, std::uint32_t tid) {
  Span s;
  s.name = name;
  s.ts_us = ts;
  s.dur_us = dur;
  s.tid = tid;
  return s;
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

fraz::NdArray input(std::uint64_t seed) {
  return fraz::data::generate_field(
      {"check", fraz::data::FieldKind::kTurbulent3d, {32, 32, 32}, seed}, 0);
}

std::uint32_t bytes_crc(const fraz::NdArray& a) {
  return fraz::crc32(static_cast<const std::uint8_t*>(a.data()), a.size_bytes());
}

/// CRC of a fresh single-field archive of \p a (szx, ratio 10, 4 workers).
std::uint32_t archive_crc(const fraz::NdArray& a) {
  fraz::archive::ArchiveWriteConfig config;
  config.engine.compressor = "szx";
  config.engine.tuner.target_ratio = 10;
  config.threads = 4;
  fraz::archive::ArchiveWriter writer(config);
  fraz::Buffer out;
  if (!writer.write(a.view(), out).ok()) return 0;
  return fraz::crc32(out.data(), out.size());
}

}  // namespace

std::vector<std::string> run_selftests() {
  std::vector<std::string> failed;
  auto check = [&](bool ok, const char* name) {
    if (!ok) failed.emplace_back(name);
  };

  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  check(near(percentile(hundred, 50), 50) && near(percentile(hundred, 99), 99) &&
            near(percentile(hundred, 100), 100) && near(percentile({7}, 99), 7),
        "percentile.nearest_rank");
  check(samples_beyond(100, 99) == 1 && samples_beyond(1000, 99) == 10 &&
            samples_beyond(999, 99) == 9,
        "percentile.samples_beyond");

  // Parent [0,100) on thread 1.  Children overlap each other, one sticks out
  // past the parent's end, and one on another thread must be ignored:
  // covered = [10,40) + [90,100) = 40, so self = 60.
  const std::vector<Span> spans = {
      span_at("parent", 0, 100, 1),  span_at("child", 10, 20, 1), span_at("child", 20, 20, 1),
      span_at("child", 90, 30, 1),   span_at("child", 0, 100, 2), span_at("parent", 200, 10, 2),
  };
  const std::vector<double> self = self_times_us(spans, "parent", "child");
  check(self.size() == 2 && near(self[0], 60) && near(self[1], 10), "span.self_time");

  check(near(share(1, 4), 0.25) && share(1, 0) == 0, "share.ratio");
  check(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5) && median({}) == 0,
        "median");

  const fraz::NdArray a = input(11);
  const fraz::NdArray b = input(11);
  const fraz::NdArray c = input(12);
  check(bytes_crc(a) == bytes_crc(b), "seed.same_inputs");
  check(bytes_crc(a) != bytes_crc(c), "seed.different_inputs");
  const std::uint32_t digest = archive_crc(a);
  check(digest != 0 && digest == archive_crc(b), "seed.same_archive_digest");
  return failed;
}

}  // namespace perfbench
