#include "bench.h"

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/json.h"
#include "util/string_util.h"

namespace perfbench {

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

int64_t StatusKb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::atoll(line.c_str() + field.size() + 1);
    }
  }
  return 0;
}

}  // namespace

int64_t CurrentRssBytes() { return StatusKb("VmRSS") * 1024; }
int64_t PeakRssBytes() { return StatusKb("VmHWM") * 1024; }

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  int available = static_cast<int>(nproc > 0 ? nproc : 1);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    available = std::min(available, CPU_COUNT(&set));
  }
  return std::max(1, available);
}

int Tracer::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                int parent) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::Open(const std::string& name, int parent) {
  const int64_t now = NowNs();
  return Add(name, now, now, parent);
}

void Tracer::Close(int id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Tracer& tracer() {
  static Tracer* instance = new Tracer();
  return *instance;
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  return Raw(key, galvatron::JsonNumber(value));
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  return Raw(key, std::to_string(value));
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  return Raw(key, "\"" + galvatron::JsonEscape(value) + "\"");
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  return Raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  members_.emplace_back(key, json);
  return *this;
}

JsonObject& JsonObject::Latency(const std::string& key,
                                const Summary& summary) {
  auto value = [&](double q, double v) {
    return Publishable(summary.n, q) ? galvatron::JsonNumber(v)
                                     : std::string("null");
  };
  JsonObject inner;
  inner.Int("n", summary.n)
      .Num("mean", summary.mean)
      .Raw("p50", value(0.50, summary.p50))
      .Raw("p90", value(0.90, summary.p90))
      .Raw("p99", value(0.99, summary.p99));
  return Raw(key, inner.str());
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (size_t i = 0; i < members_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + galvatron::JsonEscape(members_[i].first) +
           "\": " + members_[i].second;
  }
  return out + "}";
}

double Ratio(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

std::vector<double> Concat(std::vector<double> a,
                           const std::vector<double>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

double MedianSeconds(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

void E2ePercentile(Report* report, const std::string& name,
                   const std::vector<double>& samples_ms, double q) {
  const int64_t n = static_cast<int64_t>(samples_ms.size());
  report->Check(!report->require_published || Publishable(n, q),
                galvatron::StrFormat(
                    "%s: %lld samples leave fewer than ten beyond the "
                    "percentile",
                    name.c_str(), static_cast<long long>(n)));
  report->E2e(name, Percentile(samples_ms, q), "ms");
}

void LayerPercentile(Report* report, const std::string& name,
                     const std::vector<double>& samples_ms, double q) {
  if (Publishable(static_cast<int64_t>(samples_ms.size()), q)) {
    report->Layer(name, Percentile(samples_ms, q), "ms");
  }
}

void AddSpanMetrics(Report* report, const std::vector<Span>& spans,
                    int64_t start_ns, int64_t end_ns) {
  std::vector<Span> window;
  std::vector<int> remap(spans.size(), -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.start_ns < start_ns || span.start_ns >= end_ns) continue;
    remap[i] = static_cast<int>(window.size());
    window.push_back(span);
    window.back().parent = span.parent >= 0 ? remap[span.parent] : -1;
  }
  int64_t top_level_ns = 0;
  for (const Span& span : window) {
    if (span.parent < 0) top_level_ns += span.end_ns - span.start_ns;
  }
  const double wall =
      static_cast<double>(std::max<int64_t>(1, end_ns - start_ns));
  const double coverage = top_level_ns / wall;
  report->Layer("trace.span_coverage", coverage, "ratio");
  report->Check(std::abs(coverage - 1.0) <= 0.05,
                galvatron::StrFormat("top-level spans cover %.3f of the timed "
                                     "phase, not 1 +- 0.05",
                                     coverage));
  JsonObject self;
  for (const auto& [name, totals] : TotalsByName(window)) {
    JsonObject entry;
    entry.Int("count", totals.count)
        .Num("total_ms", NsToMs(totals.total_ns))
        .Num("self_ms", NsToMs(totals.self_ns))
        .Num("self_share", totals.self_ns / wall);
    self.Raw(name, entry.str());
  }
  report->detail.Raw("span_self_times", self.str());
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const auto* names =
      new std::vector<std::pair<std::string, std::string>>{
          {"search.optimize_ms", "ms"},
          {"search.optimize_share", "ratio"},
          {"search.enumerate_ms", "ms"},
          {"search.sweep_ms", "ms"},
          {"search.unattributed_ms", "ms"},
          {"search.configs", "count"},
          {"search.dp_states", "count"},
          {"search.cost_cache_hit_ratio", "ratio"},
          {"search.frontier_hit_ratio", "ratio"},
          {"search.sweep_allocations", "count"},
          {"search.threads_used", "count"},
          {"search.cpu_util", "ratio"},
          {"parallel.candidate_strategies", "count"},
          {"estimator.calls", "count"},
          {"estimator.estimate_plan_us", "us"},
          {"sim.measure_ms", "ms"},
          {"sim.tasks", "count"},
          {"trace.record_ms", "ms"},
          {"trace.analyze_ms", "ms"},
          {"trace.export_ms", "ms"},
          {"trace.attribution_bytes", "bytes"},
          {"calibrate.fit_ms", "ms"},
          {"calibrate.samples", "count"},
          {"calibrate.groups", "count"},
          {"api.plan_to_json_us", "us"},
          {"api.parse_plan_us", "us"},
          {"api.response_bytes", "bytes"},
          {"serve.handle_ms.hit", "ms"},
          {"serve.handle_ms.warm", "ms"},
          {"serve.handle_ms.measure", "ms"},
          {"serve.handle_ms.calibrate", "ms"},
          {"serve.handle_ms.replan", "ms"},
          {"serve.wire_ms.hit", "ms"},
          {"serve.wire_ms.warm", "ms"},
          {"serve.wire_ms.measure", "ms"},
          {"serve.wire_ms.calibrate", "ms"},
          {"serve.wire_ms.replan", "ms"},
          {"serve.round_share.measure", "ratio"},
          {"serve.round_share.calibrate", "ratio"},
          {"serve.round_share.replan", "ratio"},
          {"serve.plan_cache_hit_ratio", "ratio"},
          {"serve.warm_start_ratio", "ratio"},
          {"serve.coalesced", "count"},
          {"serve.rejected", "count"},
          {"serve.in_flight_peak", "count"},
          {"loadgen.lag_ms_p99", "ms"},
          {"loadgen.sent", "count"},
          {"loadgen.failed", "count"},
          {"setup.build_ms", "ms"},
          {"setup.prime_ms", "ms"},
          {"wall.ops_per_s", "1/s"},
          {"mem.peak_rss_mb", "MB"},
          {"wall.primary_ms_p50", "ms"},
          {"wall.secondary_ms_p50", "ms"},
          {"tail.primary_ms", "ms"},
          {"tail.secondary_ms", "ms"},
          {"trace.span_coverage", "ratio"},
          {"trace.overhead_pct", "%"},
      };
  return *names;
}

}  // namespace perfbench
