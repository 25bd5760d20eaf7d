#ifndef GALVATRON_TESTING_REFERENCE_SWEEP_H_
#define GALVATRON_TESTING_REFERENCE_SWEEP_H_

#include <vector>

#include "cluster/cluster.h"
#include "estimator/cost_estimator.h"
#include "ir/model.h"
#include "parallel/plan.h"
#include "search/optimizer.h"
#include "util/result.h"

namespace galvatron {

/// What the exhaustive sweep returns: the winner, its estimate and the best
/// plan of every other PP degree, in ascending PP order — the fields of
/// OptimizationResult that Optimizer::Optimize must reproduce exactly.
struct ReferenceSweepResult {
  TrainingPlan plan;
  PlanCost estimated;
  std::vector<TrainingPlan> alternates;
  int configs_explored = 0;
};

/// Oracle for Optimizer::Optimize: Algorithm 1 as the paper states it, with
/// no bound-and-prune, no plan or cost memo, no frontier cache and no
/// threads. Every enumerated (batch, degree, micro) configuration evaluates
/// its uniform single-strategy plans and runs its per-stage DP, each plan is
/// priced by a checked CostEstimator::EstimatePlan, and configurations are
/// ranked by the optimizer's total order (throughput, then lower PP degree,
/// then earlier ordinal, then earlier candidate). The configuration space is
/// the optimizer's own (EnumerateSweepSpace), so a divergence isolates the
/// sweep itself. Co-optimization rounds are not applied. Slow — tests only.
Result<ReferenceSweepResult> ReferenceSweep(const ModelSpec& model,
                                            const ClusterSpec& cluster,
                                            const OptimizerOptions& options);

}  // namespace galvatron

#endif  // GALVATRON_TESTING_REFERENCE_SWEEP_H_
