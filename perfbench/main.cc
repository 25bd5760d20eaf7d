/// perfbench: the repository benchmark. One process runs a seeded
/// workload against the library and an in-process serving stack, checks the
/// outputs, and prints a detailed report line followed by the result line
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// whose metrics are the end-to-end set (--trace 0) or the per-layer set
/// from the traced run (--trace 1). See README.md.
///
///   perfbench --workload plan_cold|serve_hot|calibrate_loop
///             --seed N --seconds S --trace 0|1

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"
#include "util/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

const char* const kE2eNames[] = {
    "setup_s",           "cpu_ms_per_op",        "primary_cpu_ms_p50",
    "secondary_cpu_ms_p50", "plan_samples_per_s", "estimate_err_pct",
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "plan_cold|serve_hot|calibrate_loop --seed N --seconds S "
               "--trace 0|1\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*value == '\0' || *end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return have_workload;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string HostJson() {
  JsonObject host;
  host.Int("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .Int("available_cpus", AvailableCpus())
      .Str("cpu_model", CpuModel())
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", __VERSION__);
  return host.str();
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  JsonObject out;
  for (const auto& [name, metric] : metrics) {
    JsonObject entry;
    entry.Num("value", metric.value).Str("unit", metric.unit);
    out.Raw(name, entry.str());
  }
  return out.str();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");

  Report report;
  report.require_published = !args.trace;
  void (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "plan_cold") {
    run = RunPlanCold;
  } else if (args.workload == "serve_hot") {
    run = RunServeHot;
  } else if (args.workload == "calibrate_loop") {
    run = RunCalibrateLoop;
  } else {
    return Usage("unknown workload");
  }
  run(args, &report);
  // Peak RSS moves by a sixth to a quarter between runs of multi-threaded
  // workloads (allocator arenas), so it is a per-layer metric.
  const double generator_mb = report.generator_rss_bytes / 1e6;
  const double peak_rss_mb = PeakRssBytes() / 1e6 - generator_mb;
  report.Layer("mem.peak_rss_mb", peak_rss_mb, "MB");
  report.detail.Num("peak_rss_mb", peak_rss_mb)
      .Num("generator_rss_mb", generator_mb);

  std::map<std::string, Metric> metrics;
  if (args.trace) {
    for (const auto& [name, unit] : LayerMetricNames()) {
      auto it = report.layer.find(name);
      metrics[name] = it != report.layer.end() ? it->second : Metric{0.0, unit};
    }
  } else {
    for (const char* name : kE2eNames) {
      auto it = report.e2e.find(name);
      if (it == report.e2e.end()) {
        report.errors.push_back(std::string("no value for ") + name);
        continue;
      }
      metrics[name] = it->second;
    }
  }

  std::string errors = "[";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    if (i > 0) errors += ", ";
    errors += "\"" + galvatron::JsonEscape(report.errors[i]) + "\"";
    std::fprintf(stderr, "perfbench: check failed: %s\n",
                 report.errors[i].c_str());
  }
  errors += "]";
  const bool correct = report.errors.empty();
  if (!correct) report.failed = std::max<int64_t>(report.failed, 1);

  JsonObject header;
  header.Str("workload", args.workload)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Num("seconds", args.seconds)
      .Bool("trace", args.trace)
      .Raw("host", HostJson())
      .Raw("detail", report.detail.str())
      .Raw("errors", errors);
  if (args.trace) header.Raw("end_to_end", MetricsJson(report.e2e));
  std::printf("%s\n", header.str().c_str());

  JsonObject result;
  result.Bool("correct", correct)
      .Int("attempted", std::max<int64_t>(1, report.attempted))
      .Int("failed", report.failed)
      .Raw("metrics", MetricsJson(metrics));
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
