#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

/// Shared plumbing of perfbench: arguments, clocks, the span
/// recorder, process probes (RSS, CPU time, host fingerprint) and the
/// report every workload fills.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// CPU time consumed by the whole process / the calling thread so far, ns.
/// CPU time excludes time the host took the CPU away (steal), which on a
/// shared host moves wall-clock figures by a quarter or more.
int64_t ProcessCpuNs();
int64_t ThreadCpuNs();
/// Resident set size now (VmRSS) and its high-water mark (VmHWM), bytes.
int64_t CurrentRssBytes();
int64_t PeakRssBytes();
/// CPUs this process may run on (its affinity mask), at most nproc.
int AvailableCpus();

/// In-memory span recorder. Disabled (every call a no-op returning -1)
/// unless the run is the traced one, so end-to-end runs carry no tracing
/// cost. Thread-safe: the load generator and the server's workers record
/// into one recorder.
class Tracer {
 public:
  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its index (the parent id of spans
  /// nested in it).
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int parent = -1);
  /// Opens a span now; Close(id) ends it.
  int Open(const std::string& name, int parent = -1);
  void Close(int id);

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The process-wide recorder.
Tracer& tracer();

/// RAII form of Tracer::Open/Close for sequential code.
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name, int parent = -1)
      : id_(tracer().Open(name, parent)) {}
  ~ScopedSpan() { tracer().Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Minimal ordered JSON object writer for the detailed report.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  /// A latency summary with its sample count; a percentile with fewer than
  /// ten samples beyond it is written as null.
  JsonObject& Latency(const std::string& key, const Summary& summary);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> members_;
};

/// What one run measured and checked.
struct Report {
  /// Correctness failures; any entry makes the run exit non-zero.
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (the untraced run prints these).
  std::map<std::string, Metric> e2e;
  /// Per-layer metrics (the traced run prints these).
  std::map<std::string, Metric> layer;
  /// Workload-specific detail: metrics under their workload names with
  /// sample counts, per-step accounting.
  JsonObject detail;
  /// RSS the load generator's own buffers added; subtracted from the peak.
  int64_t generator_rss_bytes = 0;
  /// Whether an end-to-end percentile without ten samples beyond it is an
  /// error. The traced run measures half as long and publishes none.
  bool require_published = true;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e[name] = Metric{value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer[name] = Metric{value, unit};
  }
};

/// part / whole, or 0 when whole is 0.
double Ratio(double part, double whole);
double Mean(const std::vector<double>& values);
/// a followed by b.
std::vector<double> Concat(std::vector<double> a, const std::vector<double>& b);

/// Median wall time of the set-up repetitions, seconds.
double MedianSeconds(std::vector<double> values);

/// Publishes an end-to-end latency percentile, or records a correctness
/// error when fewer than ten samples lie beyond it.
void E2ePercentile(Report* report, const std::string& name,
                   const std::vector<double>& samples_ms, double q);

/// Publishes a tail percentile as a per-layer metric when at least ten
/// samples lie beyond it (tails on this kind of host move more than a
/// tenth between runs, so they are not end-to-end metrics).
void LayerPercentile(Report* report, const std::string& name,
                     const std::vector<double>& samples_ms, double q);

/// Span-derived per-layer metrics shared by every workload, over the spans
/// that started inside the timed window [start_ns, end_ns):
/// trace.span_coverage (top-level span time / window wall time, which must
/// be 1 +- 0.05) and, in the detail, each span name's self time as a share
/// of the window.
void AddSpanMetrics(Report* report, const std::vector<Span>& spans,
                    int64_t start_ns, int64_t end_ns);

/// The per-layer metric names every workload reports; a workload that
/// bypasses a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

void RunPlanCold(const Args& args, Report* report);
void RunServeHot(const Args& args, Report* report);
void RunCalibrateLoop(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
