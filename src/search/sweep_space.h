#ifndef GALVATRON_SEARCH_SWEEP_SPACE_H_
#define GALVATRON_SEARCH_SWEEP_SPACE_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "ir/model.h"
#include "parallel/plan.h"
#include "parallel/strategy.h"
#include "search/cost_cache.h"
#include "search/optimizer.h"
#include "topology/topology.h"
#include "util/result.h"

namespace galvatron {

/// Everything Algorithm 1's sweep needs per PP degree, enumerated once up
/// front (B-independent): the stage geometry, per-stage candidate
/// strategies, the pipeline partition, and pre-built uniform
/// single-strategy plan templates. Equal-split degrees share one candidate
/// vector across all stages; uneven degrees (heterogeneous islands) carry
/// one per width.
struct SweepDegree {
  int pp = 1;
  /// Device block of each stage. Equal-split entries use {s*span, span};
  /// island-proportional entries may differ per stage.
  std::vector<StageGeometry> geometry;
  /// Candidate strategies per stage, shared between stages of one width.
  std::vector<std::shared_ptr<const std::vector<HybridStrategy>>>
      stage_candidates;
  std::vector<int> stage_sizes;
  /// Rank of the DP plan within a configuration: after every uniform
  /// candidate (the widest stage's count on uneven entries).
  int dp_rank = 0;
  /// True when every stage is num_devices/pp wide — the only shape
  /// MakeUniformPlan templates cover.
  bool equal_split = true;
  /// (candidate index, fully-built uniform plan at batch 1 / micro 1) per
  /// structurally valid candidate; the sweep patches the batch fields.
  std::vector<std::pair<int, TrainingPlan>> uniform_templates;
};

/// The configuration space of one Optimize call, in enumeration order:
/// equal-split degrees (each followed by its capacity-aware repartition on
/// memory-heterogeneous clusters), then island-proportional uneven splits.
struct SweepSpace {
  std::vector<SweepDegree> degrees;
  /// Distinct candidate strategy names across every stage width.
  int num_candidate_strategies = 0;
  /// True on mixed-generation or graph-backed clusters.
  bool graph_or_mixed = false;
  /// Candidate set per stage width enumerated so far.
  std::map<int, std::shared_ptr<const std::vector<HybridStrategy>>>
      width_candidates;
};

/// Enumerates the sweep's degrees for `model` on `cluster` (Algorithm 1
/// lines 1-5). Returns InvalidArgument when no PP degree is valid.
Result<SweepSpace> EnumerateSweepSpace(const ModelSpec& model,
                                       const ClusterSpec& cluster,
                                       const OptimizerOptions& options);

/// The candidate set of a stage width: the space's memoized entry, or a
/// fresh enumeration for a width the sweep never used.
Result<std::shared_ptr<const std::vector<HybridStrategy>>> CandidatesForWidth(
    const SweepSpace& space, int width, const DecisionTreeOptions& tree);

/// Micro-batch counts tried for a `pp`-deep pipeline at `batch`: 1 without
/// pipelining, else the multiples of the stage count that fit the batch
/// (GPipe needs m >= P to fill the pipe). Sets *pending when the batch
/// cannot fill the pipeline yet.
std::vector<int> MicroBatchCounts(int pp, int batch,
                                  const std::vector<int>& multipliers,
                                  bool* pending);

/// Admissible throughput upper bound of every memory-feasible plan of one
/// sweep degree at a given (batch, micro-batch count). Per stage, each
/// layer takes its cheapest option — every candidate strategy, plus its
/// recompute variant when enabled — by the same
/// LayerCost::IterationSeconds values the per-stage DP reads from the
/// SharedCostCache; the Slice-Gather, pipeline p2p and cross-layer memory
/// terms are dropped; layers are summed in EstimateStage's order and
/// stages pipelined with EstimatePlan's GPipe formula. Every dropped term
/// is >= 0 and IEEE rounding is monotone, so Evaluate() >= the
/// EstimatePlan throughput of every plan over this layout, bit for bit.
///
/// Memory enters only through two exact integer tests that no feasible
/// plan can fail (a stage's peak is its layers' resident bytes plus the
/// largest doubled transient, and must fit the stage budget): an option
/// whose own resident + 2 x transient bytes exceed the budget is skipped,
/// and a stage whose layers' smallest resident bytes already sum past the
/// budget makes the bound -infinity (no plan of the configuration fits).
///
/// Construction interns the degree's layer signatures, candidate strategies
/// and block fingerprints once; Evaluate is then allocation-free on a warm
/// thread and safe to call concurrently.
class ThroughputBound {
 public:
  /// `cache` must outlive this object. Stage budgets come from `cluster`,
  /// not from the cache's estimator: a shared cache may have been built
  /// for a budget variant of the same topology.
  ThroughputBound(SharedCostCache* cache, const ModelSpec& model,
                  const ClusterSpec& cluster, const SweepDegree& degree,
                  bool allow_recompute);

  /// The bound at (batch, micro) under `schedule`: +infinity when any
  /// layer estimate fails (such a configuration must never be skipped),
  /// -infinity when no plan can fit the memory budget.
  double Evaluate(int batch, int micro, PipelineSchedule schedule) const;

 private:
  struct Stage {
    int first_device = 0;
    int64_t budget = 0;  // bytes per device of the stage's block
    const std::vector<HybridStrategy>* candidates = nullptr;
    std::vector<int32_t> strategy_ids;  // per candidate
    std::vector<int32_t> fp_ids;        // per candidate
    /// Per stage layer: index into sig_ids / sig_layers.
    std::vector<int> local_sig;
    std::vector<int32_t> sig_ids;  // distinct signature -> interned id
    std::vector<int> sig_layers;   // distinct signature -> a model layer
  };

  SharedCostCache* cache_;
  int pp_ = 1;
  bool allow_recompute_ = false;
  std::vector<Stage> stages_;
};

}  // namespace galvatron

#endif  // GALVATRON_SEARCH_SWEEP_SPACE_H_
