#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/// perfbench's own statistics: latency percentiles with their
/// publishing rule, the open-loop max-rate-at-SLO search, and span
/// self-time. Pure functions over plain data, so stats_test.cc can check
/// them on synthetic inputs.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` (need not be sorted): the value at
/// rank ceil(q * n), 1-based. `q` in (0, 1]. Empty input returns 0.
double Percentile(std::vector<double> samples, double q);

/// Samples strictly above the q-th percentile in nearest-rank terms:
/// n - ceil(q * n). A percentile is published only when this is >= 10.
int64_t SamplesBeyond(int64_t n, double q);
bool Publishable(int64_t n, double q);

/// p50/p90/p99 of one request class, with its sample count.
struct Summary {
  int64_t n = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};
Summary Summarize(const std::vector<double>& samples);

/// One step of an open-loop rate ladder, as the load generator saw it.
struct LadderStep {
  double rate = 0.0;  // offered requests per second
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Per-class p99 latency (ms, timed from when each request was due).
  std::map<std::string, double> p99_ms;
  /// Requests due by the end of the step's send window that had not
  /// completed by then.
  int64_t backlog_at_end = 0;
  /// p99 of (send time - due time), ms: how late the generator itself ran.
  double lag_p99_ms = 0.0;
};

struct SloLimits {
  /// Per-class p99 latency limits, ms. A class absent here is unchecked.
  std::map<std::string, double> p99_ms;
  /// The backlog counts as growing when more than this share of a step's
  /// requests were still outstanding when its send window closed.
  double max_backlog_share = 0.02;
  /// The generator counts as late when its send lag p99 exceeds this.
  double max_lag_ms = 2.0;
};

/// Why a step missed the SLO; empty when it met it.
std::string SloViolation(const LadderStep& step, const SloLimits& limits);

/// Highest ladder rate that met the SLO (see SloViolation); 0 when none did.
/// A failing step below a passing one does not cap the result: one stalled
/// step must not hide the capacity measured above it.
double MaxRateAtSlo(const std::vector<LadderStep>& steps,
                    const SloLimits& limits);

/// One traced interval. `parent` is the index of the enclosing span in the
/// same vector, or -1 for a top-level span.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

/// Per-span self time: the span's duration minus the part of its interval
/// that the union of its children covers (children may overlap each other,
/// as concurrent requests under one load step do).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Totals per span name.
struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
