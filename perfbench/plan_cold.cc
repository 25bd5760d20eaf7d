/// plan_cold: in-process cold Galvatron::Plan calls, each with fresh caches
/// (the paper's Fig. 4 case). The search layer is nearly all of the timed
/// work; serving, simulation and tracing are absent from the timed path.

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "api/galvatron.h"
#include "api/plan_io.h"
#include "bench.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using galvatron::ClusterSpec;
using galvatron::Galvatron;
using galvatron::ModelId;
using galvatron::ModelSpec;
using galvatron::OptimizerOptions;
using galvatron::TrainedPlan;

/// The fixed multiset: every zoo model that fits the Titan presets, on the
/// 8-GPU node and the 16-GPU cluster, at three memory budgets. The 64-GPU
/// A100 preset is left out: one cold plan there takes seconds, too few
/// samples for a steady percentile in one run.
const ModelId kModels[] = {
    ModelId::kBertHuge32, ModelId::kBertHuge48, ModelId::kViTHuge32,
    ModelId::kViTHuge48,  ModelId::kT5Large32,  ModelId::kT5Large48,
    ModelId::kSwinHuge32, ModelId::kSwinHuge48,
};
const int kGpuCounts[] = {8, 16};
const int64_t kBudgetsGb[] = {8, 12, 16};

struct Instance {
  ModelId model_id;
  int gpus = 8;
  int64_t budget = 0;
};

/// Latency classes never pool text and vision models or the two clusters:
/// their costs differ several-fold, and a pooled median would sit on the
/// boundary between them.
bool IsVision(ModelId model) {
  return model == ModelId::kViTHuge32 || model == ModelId::kViTHuge48 ||
         model == ModelId::kSwinHuge32 || model == ModelId::kSwinHuge48;
}

/// One instance's built inputs (the program's set-up work).
struct Built {
  ModelSpec model;
  ClusterSpec cluster;
};

/// The seed sets each instance's budget inside a +-50 MB band around its
/// nominal value; the class counts never change.
std::vector<Instance> MakeInstances(std::mt19937_64& rng) {
  std::uniform_int_distribution<int64_t> jitter(-50, 50);
  std::vector<Instance> instances;
  for (ModelId model : kModels) {
    for (int gpus : kGpuCounts) {
      for (int64_t gb : kBudgetsGb) {
        instances.push_back(Instance{
            model, gpus, gb * galvatron::kGB + jitter(rng) * 1000000});
      }
    }
  }
  return instances;
}

std::vector<Built> Build(const std::vector<Instance>& instances) {
  std::vector<Built> built;
  built.reserve(instances.size());
  for (const Instance& instance : instances) {
    built.push_back(Built{
        galvatron::BuildModel(instance.model_id),
        instance.gpus == 8 ? galvatron::MakeTitanNode8(instance.budget)
                           : galvatron::MakeTitanCluster16(instance.budget)});
  }
  return built;
}

/// Everything one timed slice measured.
struct Slice {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t plans = 0;
  int64_t failed = 0;
  /// Wall and process CPU time per plan by class: [vision][16-GPU].
  std::vector<double> ms_by_class[2][2];
  std::vector<double> cpu_ms_by_class[2][2];
  // Per-layer sums (traced slice).
  double optimize_ms = 0, enumerate_ms = 0, sweep_ms = 0, unattributed_ms = 0;
  double configs = 0, dp_states = 0, sweep_allocations = 0, candidates = 0;
  double cost_hits = 0, cost_misses = 0, frontier_hits = 0, frontier_misses = 0;
  double cpu_ns = 0, thread_wall_ns = 0;
  int threads_used = 0;
};

/// Runs whole passes over the multiset, each in a fresh seeded order,
/// until `seconds` have elapsed. Records each instance's plan.
Slice RunSlice(const std::vector<Instance>& instances,
               const std::vector<Built>& built, const OptimizerOptions& options,
               double seconds, std::mt19937_64& rng,
               std::vector<std::string>* plan_json, Report* report) {
  Slice slice;
  std::vector<size_t> order(built.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  slice.start_ns = NowNs();
  const int64_t deadline = slice.start_ns + static_cast<int64_t>(seconds * 1e9);
  do {
    std::shuffle(order.begin(), order.end(), rng);
    for (size_t index : order) {
      const Built& input = built[index];
      const int64_t cpu0 = ProcessCpuNs();
      const int64_t t0 = NowNs();
      galvatron::Result<TrainedPlan> result = [&] {
        ScopedSpan span("search.optimize");
        return Galvatron::Plan(input.model, input.cluster, options);
      }();
      const int64_t t1 = NowNs();
      const int64_t cpu1 = ProcessCpuNs();
      ++slice.plans;
      if (!result.ok()) {
        ++slice.failed;
        report->Check(false, "plan failed: " + result.status().ToString());
        continue;
      }
      const double ms = NsToMs(t1 - t0);
      const bool vision = IsVision(instances[index].model_id);
      const bool large = instances[index].gpus == 16;
      slice.ms_by_class[vision][large].push_back(ms);
      slice.cpu_ms_by_class[vision][large].push_back(NsToMs(cpu1 - cpu0));
      const galvatron::SearchStats& s = result->search_stats;
      slice.optimize_ms += ms;
      slice.enumerate_ms += s.enumerate_seconds * 1e3;
      slice.sweep_ms += s.sweep_seconds * 1e3;
      slice.unattributed_ms += ms - 1e3 * (s.enumerate_seconds +
                                           s.sweep_seconds +
                                           s.co_optimize_seconds);
      slice.configs += s.configs_explored;
      slice.dp_states += static_cast<double>(s.dp_states_explored);
      slice.sweep_allocations += static_cast<double>(s.sweep_allocations);
      slice.candidates += s.num_candidate_strategies;
      slice.cost_hits += static_cast<double>(s.cost_cache_hits);
      slice.cost_misses += static_cast<double>(s.cost_cache_misses);
      slice.frontier_hits += static_cast<double>(s.dp_frontier_hits);
      slice.frontier_misses += static_cast<double>(s.dp_frontier_misses);
      slice.cpu_ns += static_cast<double>(cpu1 - cpu0);
      slice.thread_wall_ns +=
          static_cast<double>(t1 - t0) * s.search_threads_used;
      slice.threads_used = s.search_threads_used;

      // Every pass must find the same plan for the same instance.
      std::string json = galvatron::PlanToJson(result->plan);
      if ((*plan_json)[index].empty()) {
        (*plan_json)[index] = std::move(json);
      } else if ((*plan_json)[index] != json) {
        report->Check(false, "plan changed between passes");
      }
    }
  } while (NowNs() < deadline);
  slice.end_ns = NowNs();
  return slice;
}

}  // namespace

void RunPlanCold(const Args& args, Report* report) {
  std::mt19937_64 rng(args.seed);
  const std::vector<Instance> instances = MakeInstances(rng);

  // Set-up: building every model and cluster of the multiset, repeated so
  // the reported figure is a median.
  std::vector<double> setup_seconds;
  std::vector<Built> built;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = NowNs();
    built = Build(instances);
    setup_seconds.push_back((NowNs() - t0) / 1e9);
  }
  const double setup_s = MedianSeconds(setup_seconds);
  report->E2e("setup_s", setup_s, "s");

  OptimizerOptions options;
  options.search_threads = AvailableCpus();
  report->detail.Int("search_threads", options.search_threads)
      .Int("instances", static_cast<int64_t>(instances.size()));

  std::vector<std::string> plan_json(built.size());
  // The traced run measures half its time with spans off, half with them
  // on; the CPU cost per plan of the two halves gives the tracing overhead.
  Slice untraced;
  Slice slice;
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  if (args.trace) {
    untraced = RunSlice(instances, built, options, seconds, rng, &plan_json,
                        report);
    report->attempted += untraced.plans;
    report->failed += untraced.failed;
    tracer().Enable(true);
  }
  slice = RunSlice(instances, built, options, seconds, rng, &plan_json, report);
  tracer().Enable(false);
  report->attempted += slice.plans;
  report->failed += slice.failed;
  const double wall_s = (slice.end_ns - slice.start_ns) / 1e9;

  // Outside the timed path: simulate every winner (it must not OOM; the
  // simulated throughput is the plan-quality metric), re-estimate it, and
  // check that one thread and N threads find byte-identical plans.
  tracer().Enable(args.trace);
  double samples_per_s = 0, err_pct = 0, sim_ms = 0, sim_tasks = 0,
         estimate_us = 0;
  int measured = 0;
  for (size_t i = 0; i < built.size(); ++i) {
    if (plan_json[i].empty()) continue;
    galvatron::Result<galvatron::TrainingPlan> plan =
        galvatron::ParsePlanJson(plan_json[i]);
    report->Check(plan.ok(), "winner does not parse");
    if (!plan.ok()) continue;
    int64_t t0 = NowNs();
    galvatron::Result<galvatron::PlanCost> estimate = [&] {
      ScopedSpan span("estimator.estimate_plan");
      galvatron::CostEstimator estimator(&built[i].cluster,
                                         options.estimator);
      return estimator.EstimatePlan(built[i].model, *plan);
    }();
    estimate_us += (NowNs() - t0) / 1e3;
    t0 = NowNs();
    galvatron::Result<galvatron::SimMetrics> sim = [&] {
      ScopedSpan span("sim.measure");
      return Galvatron::Measure(built[i].model, *plan, built[i].cluster);
    }();
    sim_ms += NsToMs(NowNs() - t0);
    report->Check(estimate.ok() && sim.ok(),
                  "winner does not estimate or simulate");
    if (!estimate.ok() || !sim.ok()) continue;
    report->Check(!sim->oom, "winner OOMs in simulation");
    ++measured;
    sim_tasks += sim->num_tasks;
    samples_per_s += sim->throughput_samples_per_sec;
    err_pct += 100.0 *
               std::abs(estimate->iteration_seconds - sim->iteration_seconds) /
               sim->iteration_seconds;
  }
  tracer().Enable(false);
  report->Check(measured == static_cast<int>(built.size()),
                "not every instance produced a winner");
  if (measured > 0) {
    samples_per_s /= measured;
    err_pct /= measured;
  }
  report->E2e("plan_samples_per_s", samples_per_s, "samples/s");
  report->E2e("estimate_err_pct", err_pct, "%");

  std::uniform_int_distribution<size_t> pick(0, built.size() - 1);
  OptimizerOptions serial = options;
  serial.search_threads = 1;
  for (int k = 0; k < 2; ++k) {
    const size_t i = pick(rng);
    galvatron::Result<TrainedPlan> one =
        Galvatron::Plan(built[i].model, built[i].cluster, serial);
    report->Check(one.ok() && galvatron::PlanToJson(one->plan) == plan_json[i],
                  "search_threads=1 and N disagree");
  }

  // The cheapest class (text models, 8 GPUs) and the costliest (vision
  // models, 16 GPUs) bracket the search-cost range.
  const std::vector<double>& cheap = slice.ms_by_class[0][0];
  const std::vector<double>& costly = slice.ms_by_class[1][1];
  report->E2e("cpu_ms_per_op",
              slice.cpu_ns / 1e6 / std::max<int64_t>(1, slice.plans), "ms");
  report->Layer("wall.ops_per_s", slice.plans / wall_s, "1/s");
  E2ePercentile(report, "primary_cpu_ms_p50", slice.cpu_ms_by_class[0][0],
                0.50);
  E2ePercentile(report, "secondary_cpu_ms_p50", slice.cpu_ms_by_class[1][1],
                0.50);
  report->Layer("wall.primary_ms_p50", Percentile(cheap, 0.5), "ms");
  report->Layer("wall.secondary_ms_p50", Percentile(costly, 0.5), "ms");
  // Tails take both halves of the traced run: one half has too few samples.
  LayerPercentile(report, "tail.primary_ms",
                  Concat(cheap, untraced.ms_by_class[0][0]), 0.90);
  LayerPercentile(report, "tail.secondary_ms",
                  Concat(costly, untraced.ms_by_class[1][1]), 0.90);
  report->detail.Num("plans_per_s", slice.plans / wall_s)
      .Latency("plan_ms_text_gpu8", Summarize(cheap))
      .Latency("plan_ms_vision_gpu8", Summarize(slice.ms_by_class[1][0]))
      .Latency("plan_ms_text_gpu16", Summarize(slice.ms_by_class[0][1]))
      .Latency("plan_ms_vision_gpu16", Summarize(costly))
      .Latency("plan_cpu_ms_text_gpu8",
               Summarize(slice.cpu_ms_by_class[0][0]))
      .Latency("plan_cpu_ms_vision_gpu16",
               Summarize(slice.cpu_ms_by_class[1][1]))
      .Num("plan_samples_per_s", samples_per_s)
      .Num("estimate_err_pct", err_pct)
      .Int("plans_attempted", slice.plans)
      .Int("plans_failed", slice.failed)
      .Num("setup_s", setup_s);

  if (!args.trace) return;
  const double n = static_cast<double>(std::max<int64_t>(1, slice.plans));
  report->Layer("search.optimize_ms", slice.optimize_ms / n, "ms");
  report->Layer("search.optimize_share",
                slice.optimize_ms / NsToMs(slice.end_ns - slice.start_ns),
                "ratio");
  report->Layer("search.enumerate_ms", slice.enumerate_ms / n, "ms");
  report->Layer("search.sweep_ms", slice.sweep_ms / n, "ms");
  report->Layer("search.unattributed_ms", slice.unattributed_ms / n, "ms");
  report->Layer("search.configs", slice.configs / n, "count");
  report->Layer("search.dp_states", slice.dp_states / n, "count");
  report->Layer("search.cost_cache_hit_ratio",
                Ratio(slice.cost_hits, slice.cost_hits + slice.cost_misses),
                "ratio");
  report->Layer("search.frontier_hit_ratio",
                Ratio(slice.frontier_hits,
                      slice.frontier_hits + slice.frontier_misses),
                "ratio");
  report->Layer("search.sweep_allocations", slice.sweep_allocations / n,
                "count");
  report->Layer("search.threads_used", slice.threads_used, "count");
  report->Layer("search.cpu_util", Ratio(slice.cpu_ns, slice.thread_wall_ns),
                "ratio");
  report->Layer("parallel.candidate_strategies", slice.candidates / n,
                "count");
  report->Layer("estimator.calls", slice.cost_misses / n, "count");
  if (measured > 0) {
    report->Layer("estimator.estimate_plan_us", estimate_us / measured, "us");
    report->Layer("sim.measure_ms", sim_ms / measured, "ms");
    report->Layer("sim.tasks", sim_tasks / measured, "count");
  }
  report->Layer("setup.build_ms", setup_s * 1e3, "ms");
  report->Layer("trace.overhead_pct",
                100.0 * ((slice.cpu_ns / n) /
                             (untraced.cpu_ns /
                              std::max<int64_t>(1, untraced.plans)) -
                         1.0),
                "%");

  const std::vector<Span> spans = tracer().spans();
  AddSpanMetrics(report, spans, slice.start_ns, slice.end_ns);
  int64_t off_path = 0;
  for (const Span& span : spans) {
    const bool in_window =
        span.start_ns < slice.end_ns && span.end_ns > slice.start_ns;
    if (in_window && span.name.rfind("search.", 0) != 0) ++off_path;
  }
  report->Check(off_path == 0, "non-search spans on the timed path");
}

}  // namespace perfbench
