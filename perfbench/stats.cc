#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/string_util.h"

namespace perfbench {

namespace {

int64_t Rank(int64_t n, double q) {
  // The small epsilon keeps q * n = 90.0000001 from rounding up a rank.
  return std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * n - 1e-9)));
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const int64_t n = static_cast<int64_t>(samples.size());
  const int64_t index = std::min(n, Rank(n, q)) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

int64_t SamplesBeyond(int64_t n, double q) {
  return n <= 0 ? 0 : n - std::min(n, Rank(n, q));
}

bool Publishable(int64_t n, double q) { return SamplesBeyond(n, q) >= 10; }

Summary Summarize(const std::vector<double>& samples) {
  Summary summary;
  summary.n = static_cast<int64_t>(samples.size());
  if (samples.empty()) return summary;
  double sum = 0.0;
  for (double v : samples) sum += v;
  summary.mean = sum / summary.n;
  summary.p50 = Percentile(samples, 0.50);
  summary.p90 = Percentile(samples, 0.90);
  summary.p99 = Percentile(samples, 0.99);
  return summary;
}

std::string SloViolation(const LadderStep& step, const SloLimits& limits) {
  if (step.attempted == 0) return "no requests";
  if (step.failed > 0) {
    return galvatron::StrFormat("%lld failed",
                                static_cast<long long>(step.failed));
  }
  for (const auto& [cls, limit] : limits.p99_ms) {
    auto it = step.p99_ms.find(cls);
    if (it == step.p99_ms.end()) continue;
    if (it->second > limit) {
      return galvatron::StrFormat("%s p99 %.3f ms > %.3f ms", cls.c_str(),
                                  it->second, limit);
    }
  }
  if (step.backlog_at_end >
      limits.max_backlog_share * static_cast<double>(step.attempted)) {
    return galvatron::StrFormat("backlog grew to %lld",
                                static_cast<long long>(step.backlog_at_end));
  }
  if (step.lag_p99_ms > limits.max_lag_ms) {
    return galvatron::StrFormat("generator late: lag p99 %.3f ms",
                                step.lag_p99_ms);
  }
  return "";
}

double MaxRateAtSlo(const std::vector<LadderStep>& steps,
                    const SloLimits& limits) {
  double best = 0.0;
  for (const LadderStep& step : steps) {
    if (SloViolation(step, limits).empty()) best = std::max(best, step.rate);
  }
  return best;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && span.parent < static_cast<int>(spans.size())) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t begin = spans[i].start_ns;
    const int64_t end = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>>& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t cursor = begin;
    for (auto [s, e] : intervals) {
      s = std::max(s, cursor);
      e = std::min(e, end);
      if (e <= s) continue;
      covered += e - s;
      cursor = e;
    }
    self[i] = std::max<int64_t>(0, end - begin - covered);
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return totals;
}

}  // namespace perfbench
