#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>

#include "util/json_writer.hpp"

namespace perfbench {
namespace {

const auto kEpoch = std::chrono::steady_clock::now();

std::mutex g_context_mutex;
std::shared_ptr<const OpContext> g_context = std::make_shared<OpContext>();
thread_local const OpContext* t_context = nullptr;

std::mutex g_spans_mutex;
std::vector<Span> g_spans;

OpContext current_context() {
  if (t_context != nullptr) return *t_context;
  std::lock_guard<std::mutex> lock(g_context_mutex);
  return *g_context;
}

}  // namespace

void set_global_context(const OpContext& context) {
  auto next = std::make_shared<const OpContext>(context);
  std::lock_guard<std::mutex> lock(g_context_mutex);
  g_context = std::move(next);
}

void set_thread_context(const OpContext* context) { t_context = context; }

double now_us() noexcept {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - kEpoch)
      .count();
}

std::uint32_t thread_index() noexcept {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Recorder& Recorder::instance() {
  static Recorder recorder;
  return recorder;
}

void Recorder::record(Span span) {
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  g_spans.push_back(std::move(span));
}

std::vector<Span> Recorder::spans() const {
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  return g_spans;
}

bool Recorder::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  fraz::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (const Span& s : all) {
    w.begin_object()
        .field("name", s.name)
        .field("cat", s.cat)
        .field("ph", "X")
        .field("ts", s.ts_us)
        .field("dur", s.dur_us)
        .field("pid", 1)
        .field("tid", s.tid)
        .key("args")
        .begin_object()
        .field("workload", s.context.workload)
        .field("op", s.context.op)
        .field("field", s.context.field)
        .field("backend", s.context.backend)
        .field("bytes", s.bytes)
        .end_object()
        .end_object();
  }
  w.end_array().field("displayTimeUnit", "ms").end_object();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << w.str() << '\n';
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, const char* cat) noexcept : name_(name), cat_(cat) {
  if (Recorder::instance().enabled()) start_us_ = now_us();
}

ScopedSpan::~ScopedSpan() {
  if (start_us_ < 0) return;
  const double end = now_us();
  Span span;
  span.name = name_;
  span.cat = cat_;
  span.ts_us = start_us_;
  span.dur_us = end - start_us_;
  span.tid = thread_index();
  span.context = current_context();
  span.bytes = bytes_;
  Recorder::instance().record(std::move(span));
}

// ------------------------------------------------------------- arithmetic

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const std::size_t position = rank < 1 ? 1 : static_cast<std::size_t>(rank);
  return n - std::min(position, n);
}

double share(double num, double den) noexcept { return den == 0 ? 0 : num / den; }

std::vector<double> self_times_us(const std::vector<Span>& spans, const std::string& parent,
                                  const std::string& child) {
  std::vector<double> out;
  for (const Span& p : spans) {
    if (p.name != parent) continue;
    const double begin = p.ts_us;
    const double end = p.ts_us + p.dur_us;
    std::vector<std::pair<double, double>> covered;
    for (const Span& c : spans) {
      if (c.name != child || c.tid != p.tid) continue;
      const double lo = std::max(begin, c.ts_us);
      const double hi = std::min(end, c.ts_us + c.dur_us);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double union_us = 0;
    double reach = begin;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) union_us += hi - from;
      reach = std::max(reach, hi);
    }
    out.push_back(p.dur_us - union_us);
  }
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
