/// Machine-readable benchmark output: a tiny merge-on-write JSON store so
/// the perf trajectory can be tracked PR-over-PR without scraping
/// google-benchmark's console output.
///
/// File format (self-emitted; sorted keys, so diffs are stable):
///
///   {
///     "records": {
///       "<record name>": { "<metric>": <number>, ... },
///       ...
///     }
///   }
///
/// BenchJson::Load parses exactly this shape (a corrupt or missing file
/// starts an empty store — benchmarks must never fail on telemetry), new
/// records overwrite same-named ones, and Save rewrites the merged file.
/// Header-only: bench binaries have no support library.

#ifndef GALVATRON_BENCH_BENCH_JSON_H_
#define GALVATRON_BENCH_BENCH_JSON_H_

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

namespace galvatron {
namespace bench {

/// Best-of-N timing: runs `fn` `repetitions` times and returns the fastest
/// wall-clock milliseconds. Single-shot wall_ms entries are noisy (first
/// runs pay allocator and cache warm-up; any run can be preempted), and a
/// perf tripwire diffing a best-of-5 against a single shot compares
/// apples to oranges — so every wall_ms in BENCH_search.json is recorded
/// through this helper together with an explicit "repetitions" metric.
template <typename Fn>
double BestOfMs(int repetitions, Fn&& fn) {
  double best_ms = 0.0;
  for (int i = 0; i < repetitions; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (i == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms;
}

class BenchJson {
 public:
  explicit BenchJson(std::string path) : path_(std::move(path)) { Load(); }

  /// Sets one metric of one record (overwrites on re-run).
  void Record(const std::string& name, const std::string& metric,
              double value) {
    records_[name][metric] = value;
  }

  /// Rewrites the file with every record seen so far (loaded + new).
  /// Returns false when the file cannot be written.
  bool Save() const {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"records\": {");
    bool first_record = true;
    for (const auto& [name, metrics] : records_) {
      std::fprintf(f, "%s\n    \"%s\": {", first_record ? "" : ",",
                   name.c_str());
      first_record = false;
      bool first_metric = true;
      for (const auto& [metric, value] : metrics) {
        std::fprintf(f, "%s\n      \"%s\": %.17g", first_metric ? "" : ",",
                     metric.c_str(), value);
        first_metric = false;
      }
      std::fprintf(f, "\n    }");
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    return true;
  }

  const std::map<std::string, std::map<std::string, double>>& records() const {
    return records_;
  }

 private:
  /// Minimal recursive-descent parse of the self-emitted format above.
  /// Anything unexpected abandons the parse and starts empty.
  void Load() {
    std::FILE* f = std::fopen(path_.c_str(), "r");
    if (f == nullptr) return;
    std::string text;
    char buffer[4096];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      text.append(buffer, n);
    }
    std::fclose(f);

    size_t pos = 0;
    auto skip = [&] {
      while (pos < text.size() &&
             std::isspace(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
    };
    auto expect = [&](char c) {
      skip();
      if (pos < text.size() && text[pos] == c) {
        ++pos;
        return true;
      }
      return false;
    };
    auto parse_string = [&](std::string* out) {
      skip();
      if (pos >= text.size() || text[pos] != '"') return false;
      ++pos;
      out->clear();
      while (pos < text.size() && text[pos] != '"') {
        // The writer never emits escapes (names/metrics are identifiers);
        // reject them rather than mis-parse.
        if (text[pos] == '\\') return false;
        out->push_back(text[pos++]);
      }
      if (pos >= text.size()) return false;
      ++pos;  // closing quote
      return true;
    };

    std::map<std::string, std::map<std::string, double>> loaded;
    std::string key;
    if (!expect('{') || !parse_string(&key) || key != "records" ||
        !expect(':') || !expect('{')) {
      return;
    }
    skip();
    if (pos < text.size() && text[pos] == '}') {
      records_ = std::move(loaded);  // empty store
      return;
    }
    while (true) {
      std::string name;
      if (!parse_string(&name) || !expect(':') || !expect('{')) return;
      skip();
      while (pos < text.size() && text[pos] != '}') {
        std::string metric;
        if (!parse_string(&metric) || !expect(':')) return;
        skip();
        char* end = nullptr;
        const double value = std::strtod(text.c_str() + pos, &end);
        if (end == text.c_str() + pos) return;
        pos = static_cast<size_t>(end - text.c_str());
        loaded[name][metric] = value;
        skip();
        if (pos < text.size() && text[pos] == ',') ++pos;
        skip();
      }
      if (!expect('}')) return;
      skip();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      break;
    }
    if (!expect('}')) return;
    records_ = std::move(loaded);
  }

  std::string path_;
  std::map<std::string, std::map<std::string, double>> records_;
};

/// The optimizer's sweep ledger (SearchStats: settle / bound / refine phase
/// wall times and pruned configurations) as fields of record `name`.
template <typename SearchStatsT>
void RecordSweepLedger(BenchJson* out, const std::string& name,
                       const SearchStatsT& stats) {
  out->Record(name, "settle_ms", stats.settle_seconds * 1e3);
  out->Record(name, "bound_ms", stats.bound_seconds * 1e3);
  out->Record(name, "refine_ms", stats.refine_seconds * 1e3);
  out->Record(name, "configs_pruned", stats.configs_pruned);
}

}  // namespace bench
}  // namespace galvatron

#endif  // GALVATRON_BENCH_BENCH_JSON_H_
