#include "testing/reference_sweep.h"

#include <map>
#include <optional>
#include <utility>

#include "search/dp_search.h"
#include "search/sweep_space.h"
#include "util/string_util.h"

namespace galvatron {

namespace {

struct Candidate {
  TrainingPlan plan;
  PlanCost cost;
  int ordinal = 0;
  int rank = 0;
};

/// The optimizer's total order: throughput, then the lower PP degree, the
/// earlier configuration, the earlier-considered candidate.
bool Better(const Candidate& a, const Candidate& b) {
  if (a.cost.throughput_samples_per_sec != b.cost.throughput_samples_per_sec) {
    return a.cost.throughput_samples_per_sec >
           b.cost.throughput_samples_per_sec;
  }
  if (a.plan.pp_degree() != b.plan.pp_degree()) {
    return a.plan.pp_degree() < b.plan.pp_degree();
  }
  if (a.ordinal != b.ordinal) return a.ordinal < b.ordinal;
  return a.rank < b.rank;
}

bool Fatal(const Status& status) {
  return !status.IsOutOfMemory() && !status.IsInfeasible();
}

}  // namespace

Result<ReferenceSweepResult> ReferenceSweep(const ModelSpec& model,
                                            const ClusterSpec& cluster,
                                            const OptimizerOptions& options) {
  const CostEstimator estimator(&cluster, options.estimator);
  DpSearchOptions dp_options;
  dp_options.memory_granularity = options.memory_granularity;
  dp_options.allow_recompute = options.allow_recompute;
  dp_options.use_sparse_dp = options.use_sparse_dp;
  const DpSearch search(&estimator, dp_options);
  GALVATRON_ASSIGN_OR_RETURN(SweepSpace space,
                             EnumerateSweepSpace(model, cluster, options));

  std::optional<Candidate> best;
  std::map<int, Candidate> best_per_degree;
  auto offer = [&](Candidate candidate) {
    const int pp = candidate.plan.pp_degree();
    auto it = best_per_degree.find(pp);
    if (it == best_per_degree.end() || Better(candidate, it->second)) {
      best_per_degree[pp] = candidate;
    }
    if (!best.has_value() || Better(candidate, *best)) {
      best = std::move(candidate);
    }
  };

  ReferenceSweepResult result;
  int ordinal = 0;
  for (int batch = options.batch_step; batch <= options.max_batch;
       batch += options.batch_step) {
    bool any_pending = false;
    bool any_feasible = false;
    for (const SweepDegree& degree : space.degrees) {
      for (const int micro :
           MicroBatchCounts(degree.pp, batch, options.micro_batch_multipliers,
                            &any_pending)) {
        const int config = ordinal++;
        ++result.configs_explored;
        for (const auto& [rank, uniform] : degree.uniform_templates) {
          TrainingPlan plan = uniform;
          plan.global_batch = batch;
          plan.num_micro_batches = micro;
          Result<PlanCost> cost = estimator.EstimatePlan(model, plan);
          if (!cost.ok()) continue;
          any_feasible = true;
          offer(Candidate{std::move(plan), *std::move(cost), config, rank});
        }

        TrainingPlan plan;
        plan.model_name = model.name();
        plan.global_batch = batch;
        plan.num_micro_batches = micro;
        plan.schedule = options.schedule;
        bool fits = true;
        int first_layer = 0;
        for (int s = 0; s < degree.pp && fits; ++s) {
          const StageGeometry& geom = degree.geometry[static_cast<size_t>(s)];
          const int num_layers = degree.stage_sizes[static_cast<size_t>(s)];
          Result<DpSearchResult> stage = search.Run(
              model, first_layer, num_layers,
              *degree.stage_candidates[static_cast<size_t>(s)],
              geom.first_device, batch, micro,
              cluster.MinMemoryInRange(geom.first_device, geom.num_devices),
              plan.InFlightForDegree(degree.pp, s));
          if (!stage.ok()) {
            if (Fatal(stage.status())) return stage.status();
            fits = false;
            break;
          }
          StagePlan stage_plan;
          stage_plan.first_device = geom.first_device;
          stage_plan.num_devices = geom.num_devices;
          stage_plan.first_layer = first_layer;
          stage_plan.num_layers = num_layers;
          stage_plan.layer_strategies = std::move(stage->per_layer);
          if (options.allow_recompute) {
            stage_plan.recompute = std::move(stage->per_layer_recompute);
          }
          plan.stages.push_back(std::move(stage_plan));
          first_layer += num_layers;
        }
        if (!fits) continue;
        Result<PlanCost> cost = estimator.EstimatePlan(model, plan);
        if (!cost.ok()) {
          if (Fatal(cost.status())) return cost.status();
          continue;
        }
        any_feasible = true;
        offer(Candidate{std::move(plan), *std::move(cost), config,
                        degree.dp_rank});
      }
    }
    if (!any_feasible && !any_pending) break;
  }

  if (!best.has_value()) {
    return Status::Infeasible(StrFormat(
        "%s does not fit %d devices with %s each", model.name().c_str(),
        cluster.num_devices(),
        HumanBytes(static_cast<double>(
                       cluster.MinMemoryInRange(0, cluster.num_devices())))
            .c_str()));
  }
  result.plan = best->plan;
  result.estimated = best->cost;
  for (const auto& [pp, entry] : best_per_degree) {
    if (pp != result.plan.pp_degree()) result.alternates.push_back(entry.plan);
  }
  return result;
}

}  // namespace galvatron
