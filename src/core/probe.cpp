#include "core/probe.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

#include "metrics/error_stats.hpp"
#include "metrics/ssim.hpp"
#include "opt/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/status.hpp"

namespace fraz {

namespace {

telemetry::Counter& probes_executed_counter() {
  static telemetry::Counter& c = telemetry::global().counter("tune.probes_executed");
  return c;
}

telemetry::Counter& probe_cache_hits_counter() {
  static telemetry::Counter& c = telemetry::global().counter("tune.probe_cache_hits");
  return c;
}

telemetry::Counter& probes_deduped_counter() {
  static telemetry::Counter& c = telemetry::global().counter("tune.probes_deduped");
  return c;
}

/// SplitMix64-style finalizer: every key-combining step funnels through this
/// so nearby inputs (consecutive bounds, one-bit data edits) land far apart.
std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Word-at-a-time 64-bit content hash (FNV-flavoured with a strong
/// finalizer).  Collision odds at cache scale (<= 2^16 entries) are
/// negligible, and a collision costs a wrong cached ratio — so the full
/// content is hashed, never a sample.
std::uint64_t hash_bytes(const void* data, std::size_t size, std::uint64_t seed) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = seed ^ (0x9e3779b97f4a7c15ull * (size + 1));
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = mix64(h ^ w) + 0x2545f4914f6cdd1dull;
  }
  if (i < size) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, size - i);
    h = mix64(h ^ w) + 0x2545f4914f6cdd1dull;
  }
  return mix64(h);
}

std::uint64_t hash_string(const std::string& s, std::uint64_t seed) noexcept {
  return hash_bytes(s.data(), s.size(), seed);
}

std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

}  // namespace

std::uint64_t data_fingerprint(const ArrayView& data) noexcept {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(data.dtype()) + 0x64617461ull);
  for (const std::size_t extent : data.shape()) h = mix64(h ^ extent);
  const std::size_t size = data.size_bytes();
  if (size <= kFingerprintFullPassBytes) return hash_bytes(data.data(), size, h);
  // Strided sampling (contract in probe.hpp): total length plus evenly
  // spaced windows, first at offset 0, last flush against the end.  Each
  // window is seeded with its offset so swapping two equal-content windows
  // still changes the key.
  const auto* bytes = static_cast<const std::uint8_t*>(data.data());
  h = mix64(h ^ size);
  const std::size_t last_start = size - kFingerprintWindowBytes;
  for (std::size_t w = 0; w < kFingerprintWindows; ++w) {
    const std::size_t start = last_start * w / (kFingerprintWindows - 1);
    h = hash_bytes(bytes + start, kFingerprintWindowBytes, mix64(h ^ start));
  }
  return h;
}

std::uint64_t compressor_fingerprint(const pressio::Compressor& compressor) {
  std::uint64_t h = hash_string(compressor.name(), 0x636f6e66ull);
  for (const auto& [key, value] : compressor.get_options()) {
    h = hash_string(key, h);
    h = mix64(h ^ value.index());
    if (const auto* b = std::get_if<bool>(&value))
      h = mix64(h ^ static_cast<std::uint64_t>(*b));
    else if (const auto* i = std::get_if<std::int64_t>(&value))
      h = mix64(h ^ static_cast<std::uint64_t>(*i));
    else if (const auto* d = std::get_if<double>(&value))
      h = mix64(h ^ double_bits(*d));
    else
      h = hash_string(std::get<std::string>(value), h);
  }
  return h;
}

// -------------------------------------------------------------- ProbeCache

ProbeCache::ProbeCache(std::size_t max_entries)
    : generation_budget_(std::max<std::size_t>(max_entries / 2, 1)) {}

std::uint64_t ProbeCache::slot(std::uint64_t context, double bound) noexcept {
  return mix64(context ^ double_bits(bound));
}

void ProbeCache::rotate_if_full_locked() const {
  if (current_.size() < generation_budget_) return;
  previous_ = std::move(current_);
  current_.clear();
}

bool ProbeCache::lookup(std::uint64_t context, double bound, ProbeRecord& out) const noexcept {
  LockGuard lock(mutex_);
  const std::uint64_t key = slot(context, bound);
  auto it = current_.find(key);
  if (it == current_.end()) {
    const auto prev = previous_.find(key);
    if (prev == previous_.end()) {
      ++misses_;
      return false;
    }
    // A hit in the old generation means the entry is hot again — promote it
    // so the next rotation cannot drop it.
    const ProbeRecord record = prev->second;
    previous_.erase(prev);
    rotate_if_full_locked();
    it = current_.emplace(key, record).first;
  }
  ++hits_;
  out = it->second;
  return true;
}

void ProbeCache::insert(std::uint64_t context, double bound, const ProbeRecord& record) {
  LockGuard lock(mutex_);
  const std::uint64_t key = slot(context, bound);
  // Rotate first, then purge: one key must never live in both generations
  // (a rotation could carry a stale copy of this key into previous_, where
  // it would shadow the fresh observation after the next rotation and
  // double-count in stats).
  rotate_if_full_locked();
  previous_.erase(key);
  current_[key] = record;
}

ProbeCache::Stats ProbeCache::stats() const noexcept {
  LockGuard lock(mutex_);
  return Stats{hits_, misses_, current_.size() + previous_.size()};
}

void ProbeCache::clear() noexcept {
  LockGuard lock(mutex_);
  current_.clear();
  previous_.clear();
}

// ----------------------------------------------------------- ProbeExecutor

ProbeExecutor::ProbeExecutor(const pressio::Compressor& prototype, ProbeCachePtr cache,
                             unsigned threads)
    : prototype_(prototype.clone()),
      config_fingerprint_(compressor_fingerprint(prototype)),
      cache_(std::move(cache)),
      threads_(threads == 0 ? std::max(1u, std::thread::hardware_concurrency()) : threads),
      probe_span_name_("tune.probe_us." + prototype.name()),
      probe_hist_backend_(&telemetry::global().histogram(probe_span_name_)),
      probes_executed_backend_(
          &telemetry::global().counter("tune.probes_executed." + prototype.name())),
      cache_hits_backend_(
          &telemetry::global().counter("tune.probe_cache_hits." + prototype.name())) {
  require(cache_ != nullptr, "ProbeExecutor: cache must not be null");
}

std::uint64_t ProbeExecutor::context_key(const ArrayView& data) const noexcept {
  return mix64(config_fingerprint_ ^ data_fingerprint(data));
}

std::unique_ptr<ProbeExecutor::Context> ProbeExecutor::checkout() {
  {
    LockGuard lock(mutex_);
    if (!idle_.empty()) {
      auto context = std::move(idle_.back());
      idle_.pop_back();
      return context;
    }
  }
  auto context = std::make_unique<Context>();
  context->compressor = prototype_->clone();
  return context;
}

void ProbeExecutor::checkin(std::unique_ptr<Context> context) {
  LockGuard lock(mutex_);
  idle_.push_back(std::move(context));
}

ProbeRecord ProbeExecutor::execute_ratio(Context& context, const ArrayView& data,
                                         double bound, Buffer& out) {
  TELEM_SPAN("tune.probe_us");
  telemetry::SpanTimer backend_span(*probe_hist_backend_, probe_span_name_.c_str());
  context.compressor->set_error_bound(bound);
  const Status s = context.compressor->compress_into(data, out);
  if (!s.ok()) throw_status(s);
  ProbeRecord record;
  record.ratio = static_cast<double>(data.size_bytes()) / static_cast<double>(out.size());
  probes_executed_counter().add();
  probes_executed_backend_->add();
  return record;
}

std::vector<ProbeOutcome> ProbeExecutor::probe_ratios(const ArrayView& data,
                                                      std::uint64_t context,
                                                      const std::vector<double>& bounds) {
  std::vector<ProbeOutcome> out(bounds.size());

  // Partition the batch: cache hits are answered immediately; the first
  // occurrence of each novel bound becomes a miss to execute; repeats of a
  // miss within the batch wait for that execution.
  struct Miss {
    std::size_t index;
    double bound;
  };
  std::vector<Miss> misses;
  std::vector<std::pair<std::size_t, std::size_t>> repeats;  // (index, miss slot)
  std::unordered_map<std::uint64_t, std::size_t> batch_first;  // bound bits -> miss slot
  std::size_t hits = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    ProbeRecord cached;
    if (cache_->lookup(context, bounds[i], cached)) {
      out[i] = ProbeOutcome{cached, true};
      ++hits;
      continue;
    }
    const auto [it, fresh] = batch_first.try_emplace(double_bits(bounds[i]), misses.size());
    if (fresh) {
      misses.push_back(Miss{i, bounds[i]});
    } else {
      repeats.emplace_back(i, it->second);
      ++hits;
    }
  }

  if (!misses.empty()) {
    std::vector<ProbeRecord> records(misses.size());
    parallel_for_shared(misses.size(), threads_, [&](std::size_t m) {
      auto worker = checkout();
      records[m] = execute_ratio(*worker, data, misses[m].bound, worker->scratch);
      checkin(std::move(worker));
    });
    for (std::size_t m = 0; m < misses.size(); ++m) {
      cache_->insert(context, misses[m].bound, records[m]);
      out[misses[m].index] = ProbeOutcome{records[m], false};
    }
  }
  for (const auto& [index, slot] : repeats)
    out[index] = ProbeOutcome{out[misses[slot].index].record, true};

  // `hits` folds genuine cache hits and in-batch repeats together (that is
  // the executor's contract); telemetry splits them so dedup savings are
  // visible separately from cache reuse.
  probe_cache_hits_counter().add(hits - repeats.size());
  cache_hits_backend_->add(hits - repeats.size());
  probes_deduped_counter().add(repeats.size());

  LockGuard lock(mutex_);
  executed_ += misses.size();
  cache_hits_ += hits;
  return out;
}

ProbeOutcome ProbeExecutor::probe_ratio(const ArrayView& data, std::uint64_t context,
                                        double bound, Buffer* out) {
  ProbeRecord cached;
  if (cache_->lookup(context, bound, cached)) {
    probe_cache_hits_counter().add();
    cache_hits_backend_->add();
    LockGuard lock(mutex_);
    ++cache_hits_;
    return ProbeOutcome{cached, true};
  }
  auto worker = checkout();
  ProbeRecord record;
  try {
    record = execute_ratio(*worker, data, bound, out != nullptr ? *out : worker->scratch);
  } catch (...) {
    checkin(std::move(worker));
    throw;
  }
  checkin(std::move(worker));
  cache_->insert(context, bound, record);
  LockGuard lock(mutex_);
  ++executed_;
  return ProbeOutcome{record, false};
}

ProbeOutcome ProbeExecutor::probe_quality(const ArrayView& data, std::uint64_t context,
                                          double bound, QualityMetric metric) {
  // Quality observations live under a metric-tagged key so a ratio probe at
  // the same bound can never masquerade as a quality measurement.
  const std::uint64_t tagged =
      mix64(context ^ (0x7175616cull + static_cast<std::uint64_t>(metric)));
  ProbeRecord cached;
  if (cache_->lookup(tagged, bound, cached)) {
    probe_cache_hits_counter().add();
    cache_hits_backend_->add();
    LockGuard lock(mutex_);
    ++cache_hits_;
    return ProbeOutcome{cached, true};
  }
  auto worker = checkout();
  ProbeRecord record;
  try {
    TELEM_SPAN("tune.probe_us");
    telemetry::SpanTimer backend_span(*probe_hist_backend_, probe_span_name_.c_str());
    worker->compressor->set_error_bound(bound);
    Status s = worker->compressor->compress_into(data, worker->scratch);
    if (!s.ok()) throw_status(s);
    s = worker->compressor->decompress_into(worker->scratch.data(), worker->scratch.size(),
                                            worker->decoded);
    if (!s.ok()) throw_status(s);
    record.ratio = static_cast<double>(data.size_bytes()) /
                   static_cast<double>(worker->scratch.size());
    record.quality = metric == QualityMetric::kPsnrDb
                         ? error_stats(data, worker->decoded.view()).psnr_db
                         : ssim(data, worker->decoded.view());
  } catch (...) {
    checkin(std::move(worker));
    throw;
  }
  checkin(std::move(worker));
  cache_->insert(tagged, bound, record);
  probes_executed_counter().add();
  probes_executed_backend_->add();
  LockGuard lock(mutex_);
  ++executed_;
  return ProbeOutcome{record, false};
}

std::size_t ProbeExecutor::executed() const noexcept {
  LockGuard lock(mutex_);
  return executed_;
}

std::size_t ProbeExecutor::cache_hits() const noexcept {
  LockGuard lock(mutex_);
  return cache_hits_;
}

}  // namespace fraz
