/// calibrate_loop: repeated measure -> calibrate -> re-plan rounds on a
/// fixed set of 8-GPU instances, over loopback. Each round sends
/// POST /v1/measure with "explain": true for the served plans (several
/// simulator seeds each, so measure handling is the largest share of a
/// round), one POST /v1/calibrate, then POST /v1/plan for the same set.
/// The calibration swap bumps the profile version, so every re-plan misses
/// both the plan cache and its warm context and plans cold: a caching
/// change that helps serve_hot but slows re-planning after a write shows
/// here.

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "api/galvatron.h"
#include "api/plan_io.h"
#include "bench.h"
#include "calibrate/fit.h"
#include "calibrate/profile.h"
#include "serving.h"
#include "trace/analyzer.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "util/json.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using galvatron::ClusterSpec;
using galvatron::Galvatron;
using galvatron::JsonValue;
using galvatron::ModelId;
using galvatron::ModelSpec;

const ModelId kModels[] = {ModelId::kBertHuge32, ModelId::kT5Large48};
/// Explained measures per instance per round (each a distinct simulator
/// seed, hence distinct calibration observations). Six per instance make
/// measure handling the largest share of a round on a 4-core host.
constexpr int kMeasuresPerInstance = 6;

enum Cls { kMeasure = 0, kCalibrate = 1, kReplan = 2 };
const char* const kClsName[] = {"measure", "calibrate", "replan"};

struct Instance {
  ModelId model_id;
  int64_t budget = 0;
  std::string prefix;  // {"model": ..., "cluster": ...  (no closing brace)
  std::string plan;    // canonical plan JSON most recently served
  double estimated_iteration_s = 0;
  JsonValue search_stats;
};

struct Rounds {
  int64_t start_ns = 0, end_ns = 0;
  int64_t rounds = 0, attempted = 0, failed = 0;
  std::vector<double> round_ms;
  /// Per round: process CPU minus the client thread's; per measure: CPU
  /// inside PlanService::Handle.
  std::vector<double> round_cpu_ms;
  std::vector<double> measure_cpu_ms;
  std::vector<double> latency_ms[3];
  double handle_ms[3] = {0, 0, 0};
  std::vector<double> wire_ms[3];
  double search_ms = 0, configs = 0, dp_states = 0, candidates = 0,
         cost_hits = 0, cost_misses = 0, frontier_hits = 0,
         frontier_misses = 0, threads = 0;
  int64_t replans = 0;
  std::string last_profile;
  /// Process CPU time during the rounds minus the client thread's own.
  int64_t program_cpu_ns = 0;
};

/// Runs one POST, records its latency and handle time under `cls`, and
/// returns the body ("" on failure, which is counted).
std::string PostRaw(Stack* stack, Cls cls, const std::string& path,
                    const std::string& body, int parent, int64_t* slot,
                    Rounds* rounds, Report* report) {
  const int span =
      tracer().Open(std::string("client.") + kClsName[cls], parent);
  const Call call = Send(stack->port(), "POST", path, kClsName[cls], *slot,
                         span, body);
  tracer().Close(span);
  ++rounds->attempted;
  const double latency = NsToMs(call.done_ns - call.sent_ns);
  const double handle = NsToMs(stack->handle_ns(*slot));
  ++*slot;
  rounds->latency_ms[cls].push_back(latency);
  rounds->handle_ms[cls] += handle;
  rounds->wire_ms[cls].push_back(latency - handle);
  if (cls == kMeasure) {
    rounds->measure_cpu_ms.push_back(NsToMs(stack->handle_cpu_ns(*slot - 1)));
  }
  if (call.status != 200) {
    ++rounds->failed;
    report->Check(false, galvatron::StrFormat("%s answered %d",
                                              kClsName[cls], call.status));
    return "";
  }
  return call.body;
}

/// PostRaw, parsed (null JSON on failure).
JsonValue Post(Stack* stack, Cls cls, const std::string& path,
               const std::string& body, int parent, int64_t* slot,
               Rounds* rounds, Report* report) {
  galvatron::Result<JsonValue> root = galvatron::ParseJson(
      PostRaw(stack, cls, path, body, parent, slot, rounds, report));
  return root.ok() ? std::move(*root) : JsonValue();
}

/// Stores a /v1/plan answer as the instance's served plan.
bool TakePlan(const JsonValue& root, Instance* instance) {
  const JsonValue* plan = galvatron::FindMember(root, "plan");
  const JsonValue* estimated = galvatron::FindMember(root, "estimated");
  const JsonValue* stats = galvatron::FindMember(root, "search_stats");
  if (plan == nullptr || estimated == nullptr || stats == nullptr) return false;
  instance->plan = galvatron::WriteJson(*plan);
  instance->estimated_iteration_s =
      JsonNumberAt(*estimated, "iteration_seconds");
  instance->search_stats = *stats;
  return galvatron::ParsePlanJson(instance->plan).ok();
}

Rounds RunRounds(Stack* stack, std::vector<Instance>* instances,
                 double seconds, uint64_t* sim_seed, int64_t* slot,
                 Report* report) {
  Rounds rounds;
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t client_cpu0 = ThreadCpuNs();
  rounds.start_ns = NowNs();
  const int64_t deadline =
      rounds.start_ns + static_cast<int64_t>(seconds * 1e9);
  do {
    const int64_t t0 = NowNs();
    const int64_t round_cpu0 = ProcessCpuNs() - ThreadCpuNs();
    const int round_span = tracer().Open("round");
    for (Instance& instance : *instances) {
      for (int k = 0; k < kMeasuresPerInstance; ++k) {
        const std::string body =
            instance.prefix + ", \"plan\": " + instance.plan +
            ", \"sim\": {\"seed\": " + std::to_string((*sim_seed)++) +
            "}, \"explain\": true}";
        // The body carries a large attribution report; the client checks
        // its markers rather than parsing it inside the timed round.
        const std::string reply = PostRaw(stack, kMeasure, "/v1/measure",
                                          body, round_span, slot, &rounds,
                                          report);
        report->Check(reply.find("\"oom\": false") != std::string::npos &&
                          reply.find("\"attribution\": {") !=
                              std::string::npos,
                      "measure did not return an OOM-free explained run");
      }
    }
    const JsonValue calibrated = Post(stack, kCalibrate, "/v1/calibrate", "{}",
                                      round_span, slot, &rounds, report);
    const JsonValue* applied = galvatron::FindMember(calibrated, "applied");
    const JsonValue* profile = galvatron::FindMember(calibrated, "profile");
    report->Check(applied != nullptr && applied->boolean && profile != nullptr,
                  "calibration was not applied");
    if (profile != nullptr) {
      rounds.last_profile = galvatron::WriteJson(*profile);
    }
    for (Instance& instance : *instances) {
      const JsonValue root = Post(stack, kReplan, "/v1/plan",
                                  instance.prefix + "}", round_span, slot,
                                  &rounds, report);
      const JsonValue* hit = galvatron::FindMember(root, "plan_cache_hit");
      report->Check(
          hit != nullptr && !hit->boolean && TakePlan(root, &instance),
                    "re-plan after a swap was not a fresh parseable plan");
      const JsonValue& s = instance.search_stats;
      rounds.search_ms += 1e3 * JsonNumberAt(s, "search_seconds");
      rounds.configs += JsonNumberAt(s, "configs_explored");
      rounds.dp_states += JsonNumberAt(s, "dp_states_explored");
      rounds.candidates += JsonNumberAt(s, "num_candidate_strategies");
      rounds.cost_hits += JsonNumberAt(s, "cost_cache_hits");
      rounds.cost_misses += JsonNumberAt(s, "cost_cache_misses");
      rounds.frontier_hits += JsonNumberAt(s, "dp_frontier_hits");
      rounds.frontier_misses += JsonNumberAt(s, "dp_frontier_misses");
      rounds.threads = JsonNumberAt(s, "search_threads_used");
      ++rounds.replans;
    }
    tracer().Close(round_span);
    rounds.round_ms.push_back(NsToMs(NowNs() - t0));
    rounds.round_cpu_ms.push_back(
        NsToMs(ProcessCpuNs() - ThreadCpuNs() - round_cpu0));
    ++rounds.rounds;
  } while (NowNs() < deadline);
  rounds.end_ns = NowNs();
  rounds.program_cpu_ns =
      ProcessCpuNs() - cpu0 - (ThreadCpuNs() - client_cpu0);
  return rounds;
}

}  // namespace

void RunCalibrateLoop(const Args& args, Report* report) {
  std::mt19937_64 rng(args.seed);
  std::uniform_int_distribution<int64_t> jitter(-50, 50);
  std::vector<Instance> instances;
  for (ModelId model : kModels) {
    Instance instance;
    instance.model_id = model;
    instance.budget = 16 * galvatron::kGB + jitter(rng) * 1000000;
    instance.prefix =
        "{\"model\": \"" + std::string(galvatron::ModelIdToString(model)) +
        "\", \"cluster\": " +
        galvatron::ClusterSpecToJson(
            galvatron::MakeTitanNode8(instance.budget));
    instances.push_back(std::move(instance));
  }
  std::shuffle(instances.begin(), instances.end(), rng);
  uint64_t sim_seed = rng() % 1000000;
  // Slots of requests whose handle time the stack keeps: a round sends 15
  // requests and takes well over a millisecond.
  const int64_t capacity =
      static_cast<int64_t>(args.seconds * 1000 * 15) + 1024;

  // Set-up, five times (the last stack serves the run): start the service
  // and server, and plan every instance cold.
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s, build_ms, prime_ms;
  int64_t slot = 0;
  Rounds prime;
  for (int rep = 0; rep < 5; ++rep) {
    stack.reset();
    slot = 0;
    const int64_t t0 = NowNs();
    stack = Stack::Start(capacity);
    if (stack == nullptr) {
      report->Check(false, "server failed to start");
      return;
    }
    const int64_t t1 = NowNs();
    for (Instance& instance : instances) {
      const JsonValue root = Post(stack.get(), kReplan, "/v1/plan",
                                  instance.prefix + "}", -1, &slot, &prime,
                                  report);
      report->Check(TakePlan(root, &instance), "cold plan did not parse");
    }
    const int64_t t2 = NowNs();
    setup_s.push_back((t2 - t0) / 1e9);
    build_ms.push_back(NsToMs(t1 - t0));
    prime_ms.push_back(NsToMs(t2 - t1));
  }
  report->E2e("setup_s", MedianSeconds(setup_s), "s");
  std::vector<ModelSpec> models;
  std::vector<ClusterSpec> clusters;
  for (const Instance& instance : instances) {
    models.push_back(galvatron::BuildModel(instance.model_id));
    clusters.push_back(galvatron::MakeTitanNode8(instance.budget));
    auto library = Galvatron::Plan(models.back(), clusters.back());
    report->Check(library.ok() && galvatron::WriteJson(*galvatron::ParseJson(
                                      galvatron::PlanToJson(library->plan))) ==
                                      instance.plan,
                  "cold served plan differs from library Galvatron::Plan");
  }

  // The traced run measures half its time with spans off, half with them
  // on; the program CPU per round of the two halves gives the overhead.
  Rounds untraced;
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  if (args.trace) {
    untraced = RunRounds(stack.get(), &instances, seconds, &sim_seed, &slot,
                         report);
    report->attempted += untraced.attempted;
    report->failed += untraced.failed;
    tracer().Enable(true);
  }
  Rounds rounds =
      RunRounds(stack.get(), &instances, seconds, &sim_seed, &slot, report);
  tracer().Enable(false);
  report->attempted += rounds.attempted;
  report->failed += rounds.failed;
  const double wall_s = (rounds.end_ns - rounds.start_ns) / 1e9;

  // After the last swap: the re-planned plans equal the library's under the
  // served profile, simulate without OOM, and give the quality metrics.
  auto profile = galvatron::calibrate::ParseCalibrationProfileJson(
      rounds.last_profile);
  report->Check(profile.ok(), "served calibration profile does not parse");
  double samples_per_s = 0, err_pct = 0;
  std::vector<galvatron::TrainingPlan> plans;
  for (size_t i = 0; i < instances.size(); ++i) {
    galvatron::OptimizerOptions options;
    if (profile.ok()) options.estimator.calibration = &*profile;
    auto library = Galvatron::Plan(models[i], clusters[i], options);
    report->Check(library.ok() && galvatron::WriteJson(*galvatron::ParseJson(
                                      galvatron::PlanToJson(library->plan))) ==
                                      instances[i].plan,
                  "re-planned plan differs from library Galvatron::Plan");
    auto plan = galvatron::ParsePlanJson(instances[i].plan);
    if (!plan.ok()) continue;
    plans.push_back(*plan);
    auto sim = Galvatron::Measure(models[i], *plan, clusters[i]);
    report->Check(sim.ok() && !sim->oom, "re-planned plan OOMs");
    if (!sim.ok()) continue;
    samples_per_s += sim->throughput_samples_per_sec;
    err_pct += 100.0 *
               std::abs(instances[i].estimated_iteration_s -
                        sim->iteration_seconds) /
               sim->iteration_seconds;
  }
  samples_per_s /= instances.size();
  err_pct /= instances.size();

  report->E2e("cpu_ms_per_op",
              NsToMs(rounds.program_cpu_ns) /
                  std::max<int64_t>(1, rounds.rounds),
              "ms");
  report->Layer("wall.ops_per_s", rounds.rounds / wall_s, "1/s");
  E2ePercentile(report, "primary_cpu_ms_p50", rounds.round_cpu_ms, 0.50);
  E2ePercentile(report, "secondary_cpu_ms_p50", rounds.measure_cpu_ms, 0.50);
  report->Layer("wall.primary_ms_p50", Percentile(rounds.round_ms, 0.5), "ms");
  report->Layer("wall.secondary_ms_p50",
                Percentile(rounds.latency_ms[kMeasure], 0.5), "ms");
  // Tails take both halves of the traced run: one half has too few samples.
  LayerPercentile(report, "tail.primary_ms",
                  Concat(rounds.round_ms, untraced.round_ms), 0.90);
  LayerPercentile(report, "tail.secondary_ms",
                  Concat(rounds.latency_ms[kMeasure],
                         untraced.latency_ms[kMeasure]),
                  0.90);
  report->E2e("plan_samples_per_s", samples_per_s, "samples/s");
  report->E2e("estimate_err_pct", err_pct, "%");
  report->detail.Num("search_threads", rounds.threads)
      .Int("rounds", rounds.rounds)
      .Num("rounds_per_s", rounds.rounds / wall_s)
      .Latency("round_ms", Summarize(rounds.round_ms))
      .Latency("measure_ms", Summarize(rounds.latency_ms[kMeasure]))
      .Latency("calibrate_ms", Summarize(rounds.latency_ms[kCalibrate]))
      .Latency("replan_ms", Summarize(rounds.latency_ms[kReplan]))
      .Latency("round_cpu_ms", Summarize(rounds.round_cpu_ms))
      .Latency("measure_handle_cpu_ms", Summarize(rounds.measure_cpu_ms))
      .Int("requests_attempted", rounds.attempted)
      .Int("requests_failed", rounds.failed)
      .Num("plan_samples_per_s", samples_per_s)
      .Num("estimate_err_pct", err_pct);

  if (!args.trace) return;
  const double round_ms = NsToMs(rounds.end_ns - rounds.start_ns);
  for (int c : {kMeasure, kCalibrate, kReplan}) {
    const std::string cls = kClsName[c];
    report->Layer("serve.handle_ms." + cls,
                  Ratio(rounds.handle_ms[c], rounds.latency_ms[c].size()),
                  "ms");
    report->Layer("serve.wire_ms." + cls, Mean(rounds.wire_ms[c]), "ms");
    report->Layer("serve.round_share." + cls,
                  rounds.handle_ms[c] / round_ms, "ratio");
  }
  const double replans =
      static_cast<double>(std::max<int64_t>(1, rounds.replans));
  report->Layer("search.optimize_ms", rounds.search_ms / replans, "ms");
  report->Layer("search.configs", rounds.configs / replans, "count");
  report->Layer("search.dp_states", rounds.dp_states / replans, "count");
  report->Layer("search.cost_cache_hit_ratio",
                Ratio(rounds.cost_hits, rounds.cost_hits + rounds.cost_misses),
                "ratio");
  report->Layer("search.frontier_hit_ratio",
                Ratio(rounds.frontier_hits,
                      rounds.frontier_hits + rounds.frontier_misses),
                "ratio");
  report->Layer("search.threads_used", rounds.threads, "count");
  report->Layer("parallel.candidate_strategies", rounds.candidates / replans,
                "count");
  report->Layer("estimator.calls", rounds.cost_misses / replans, "count");
  report->Layer("setup.build_ms", Percentile(build_ms, 0.5), "ms");
  report->Layer("setup.prime_ms", Percentile(prime_ms, 0.5), "ms");
  report->Layer("trace.overhead_pct",
                100.0 * ((static_cast<double>(rounds.program_cpu_ns) /
                          std::max<int64_t>(1, rounds.rounds)) /
                             (static_cast<double>(untraced.program_cpu_ns) /
                              std::max<int64_t>(1, untraced.rounds)) -
                         1.0),
                "%");
  AddSpanMetrics(report, tracer().spans(), rounds.start_ns, rounds.end_ns);

  // Replays of the daemon's inputs outside the request path: one round's
  // measures through the simulator, the trace recorder/analyzer/exporter
  // and the calibration fit, each timed on its own.
  tracer().Enable(true);
  double sim_ms = 0, sim_tasks = 0, record_ms = 0, analyze_ms = 0,
         export_ms = 0, attribution_bytes = 0;
  int traced = 0;
  std::vector<galvatron::calibrate::CommObservation> observations;
  double overlap = 0;
  for (size_t i = 0; i < plans.size(); ++i) {
    for (int k = 0; k < kMeasuresPerInstance; ++k) {
      galvatron::SimOptions sim_options;
      sim_options.seed = sim_seed + k;
      int64_t t0 = NowNs();
      auto untraced = [&] {
        ScopedSpan span("sim.measure");
        return Galvatron::Measure(models[i], plans[i], clusters[i],
                                  sim_options);
      }();
      sim_ms += NsToMs(NowNs() - t0);
      if (untraced.ok()) sim_tasks += untraced->num_tasks;
      sim_options.record_trace = true;
      galvatron::SimTrace sim_trace;
      auto measured = Galvatron::Measure(models[i], plans[i], clusters[i],
                                         sim_options, &sim_trace);
      if (!measured.ok()) continue;
      t0 = NowNs();
      auto exec = [&] {
        ScopedSpan span("trace.record");
        return galvatron::trace::RecordTrace(sim_trace);
      }();
      record_ms += NsToMs(NowNs() - t0);
      if (!exec.ok()) continue;
      t0 = NowNs();
      auto analysis = [&] {
        ScopedSpan span("trace.analyze");
        return galvatron::trace::Analyze(*exec);
      }();
      analyze_ms += NsToMs(NowNs() - t0);
      if (!analysis.ok()) continue;
      galvatron::trace::AttributionJsonOptions json_options;
      json_options.max_critical_path_entries = 128;
      t0 = NowNs();
      const std::string json = [&] {
        ScopedSpan span("trace.export");
        return galvatron::trace::ToAttributionJson(*exec, *analysis,
                                                   json_options);
      }();
      export_ms += NsToMs(NowNs() - t0);
      attribution_bytes += static_cast<double>(json.size());
      ++traced;
      auto more = galvatron::calibrate::ExtractObservations(*exec);
      observations.insert(observations.end(), more.begin(), more.end());
      overlap = std::max(overlap,
                         galvatron::calibrate::EstimateOverlapSlowdown(*exec));
    }
  }
  const int64_t t0 = NowNs();
  auto fitted = [&] {
    ScopedSpan span("calibrate.fit");
    return galvatron::calibrate::FitCalibrationProfile(observations, overlap);
  }();
  const double fit_ms = NsToMs(NowNs() - t0);
  tracer().Enable(false);
  report->Check(traced > 0 && fitted.ok(), "trace/calibration replay failed");
  if (traced == 0 || !fitted.ok()) return;
  report->Layer("sim.measure_ms", sim_ms / traced, "ms");
  report->Layer("sim.tasks", sim_tasks / traced, "count");
  report->Layer("trace.record_ms", record_ms / traced, "ms");
  report->Layer("trace.analyze_ms", analyze_ms / traced, "ms");
  report->Layer("trace.export_ms", export_ms / traced, "ms");
  report->Layer("trace.attribution_bytes", attribution_bytes / traced,
                "bytes");
  report->Layer("calibrate.fit_ms", fit_ms, "ms");
  report->Layer("calibrate.samples", static_cast<double>(observations.size()),
                "count");
  report->Layer("calibrate.groups", static_cast<double>(fitted->groups.size()),
                "count");
}

}  // namespace perfbench
