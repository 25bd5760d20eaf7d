#include "search/optimizer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "search/cost_cache.h"
#include "search/sweep_space.h"
#include "util/alloc_counter.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace galvatron {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// CPU time the calling thread has consumed (excludes time preempted).
double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One pipeline stage of a DP result, as indices into the owning
/// SweepDegree's candidate vector. Two ints per layer instead of a
/// materialized HybridStrategy — the sweep ranks thousands of these and
/// materializes only the single committed winner.
struct StageDraft {
  int first_layer = 0;
  int num_layers = 0;
  std::vector<int32_t> options;    // candidate strategy index per layer
  std::vector<uint8_t> recompute;  // empty unless allow_recompute
};

/// A configuration's winning plan by reference: the degree it came from,
/// the batch shape, the shared cost entry, and either a uniform-template
/// index or a draft of candidate indices. No TrainingPlan is materialized
/// until the sweep commits its single winner (and the per-degree
/// alternates) — comparison needs only the cached cost and the ordinals.
struct RankedPlan {
  const SweepDegree* degree = nullptr;
  int batch = 1;
  int micro = 1;
  int pp = 1;
  std::shared_ptr<const PlanCost> cost;
  /// Within one configuration: uniform single-strategy candidates get their
  /// enumeration index, the DP plan gets candidates.size() — matching the
  /// order the serial sweep considered them in.
  int candidate_rank = 0;
  /// Global enumeration ordinal of the (batch, degree, micro) configuration.
  int config_ordinal = 0;
  /// >= 0: the winner is degree->uniform_templates[uniform_template] with
  /// the batch fields patched; -1: the DP plan described by `stages`.
  int uniform_template = -1;
  std::vector<StageDraft> stages;
};

/// Total order over plans: higher estimated throughput wins; exact ties
/// resolve to the lower PP degree, then the earlier-enumerated
/// configuration, then the earlier-considered candidate. Because no term
/// depends on evaluation timing, the merged winner is byte-identical
/// whether configurations were evaluated serially or by racing workers.
bool BetterPlan(const RankedPlan& a, const RankedPlan& b) {
  if (a.cost->throughput_samples_per_sec !=
      b.cost->throughput_samples_per_sec) {
    return a.cost->throughput_samples_per_sec >
           b.cost->throughput_samples_per_sec;
  }
  if (a.pp != b.pp) return a.pp < b.pp;
  if (a.config_ordinal != b.config_ordinal) {
    return a.config_ordinal < b.config_ordinal;
  }
  return a.candidate_rank < b.candidate_rank;
}

/// Everything the sweep's phases produce for one configuration. Merged
/// serially in ordinal order once the sweep has settled.
struct ConfigOutcome {
  bool feasible = false;  // at least one plan passed EstimatePlan
  bool has_best = false;
  RankedPlan best;
  int64_t dp_states = 0;
  int64_t dp_breakpoints = 0;
  int64_t dp_pruned = 0;
  int64_t dp_frontier_hits = 0;    // stage searches replayed from cache
  int64_t dp_frontier_misses = 0;  // stage searches that ran cold
  int64_t dp_allocations = 0;      // heap allocations inside DpSearch::Run
  int64_t sweep_allocations = 0;   // heap allocations of the whole evaluate
  Status error;  // non-OK only on fatal (non-OOM, non-infeasible) errors
};

/// Appends one stage's identity to a plan-cost memo key. Strategy levels
/// encode structurally — NOT via InternStrategy: interning formats the
/// strategy string first, and that formatting dominated the whole warm
/// sweep when profiled. Consecutive layers with one (strategy, recompute)
/// pair compress to a single run — uniform plans, the bulk of the sweep's
/// evaluations, shrink from O(layers) to O(1) words. Maximal runs partition
/// a stage's layers deterministically, so the encoding stays injective.
///
/// `layer(l)` returns (strategy pointer, recompute flag) for stage-local
/// layer l; runs compare strategies by VALUE, so a key built from a
/// StageDraft's candidate indices and one built from a materialized plan's
/// layer_strategies are word-identical — the draft path and the plan path
/// share one memo.
template <typename LayerFn>
void AppendStageKey(PlanCostKey& key, int first_device, int num_devices,
                    int first_layer, int num_layers, const LayerFn& layer) {
  key.words.push_back(first_device);
  key.words.push_back(num_devices);
  key.words.push_back(first_layer);
  key.words.push_back(num_layers);
  for (int l = 0; l < num_layers;) {
    const auto [strat, recompute] = layer(l);
    int run = l + 1;
    while (run < num_layers) {
      const auto [next, next_recompute] = layer(run);
      if (!(*next == *strat) || next_recompute != recompute) break;
      ++run;
    }
    key.words.push_back(run - l);
    key.words.push_back((strat->num_levels() << 1) | recompute);
    for (const ParallelComponent& level : strat->levels()) {
      key.words.push_back((static_cast<int32_t>(level.dim) << 16) |
                          level.degree);
    }
    l = run;
  }
}

}  // namespace

Optimizer::Optimizer(const ClusterSpec* cluster, OptimizerOptions options)
    : cluster_(cluster),
      options_(std::move(options)),
      estimator_(cluster, options_.estimator) {
  GALVATRON_CHECK(cluster != nullptr);
}

Result<OptimizationResult> Optimizer::Optimize(const ModelSpec& model) const {
  return Optimize(model, /*shared_cache=*/nullptr);
}

Result<OptimizationResult> Optimizer::Optimize(
    const ModelSpec& model, SharedCostCache* shared_cache,
    const std::function<bool()>& cancel_check) const {
  return Optimize(model, shared_cache, /*frontier_cache=*/nullptr,
                  cancel_check);
}

Result<OptimizationResult> Optimizer::Optimize(
    const ModelSpec& model, SharedCostCache* shared_cache,
    DpFrontierCache* frontier_cache,
    const std::function<bool()>& cancel_check) const {
  // Options validation. A negative thread count is a caller bug, not a
  // request for serial search — clamping it silently used to mask e.g.
  // sign errors in CLI/serve plumbing.
  if (options_.search_threads < 0) {
    return Status::InvalidArgument(StrFormat(
        "search_threads must be >= 0 (0 = all hardware threads), got %d",
        options_.search_threads));
  }
  const auto start = std::chrono::steady_clock::now();
  const int num_devices = cluster_->num_devices();
  const auto cancelled = [&cancel_check] {
    return cancel_check && cancel_check();
  };

  DpSearchOptions dp_options;
  dp_options.memory_granularity = options_.memory_granularity;
  dp_options.allow_recompute = options_.allow_recompute;
  dp_options.use_sparse_dp = options_.use_sparse_dp;
  // The sweep ranks results by index chains and materializes only the
  // committed winners (see MaterializeDpSearchResult calls below).
  dp_options.materialize_plans = false;
  DpSearch search(&estimator_, dp_options);

  // Sweep-wide memo over the estimator: every stage search of every
  // configuration (and every worker thread) shares it, so a repeated
  // Transformer block is estimated once per distinct shape per sweep. A
  // caller-provided cache extends the sharing across runs (the serving
  // daemon's warm path); its entries carry no memory budget, so reuse
  // across budget variants is sound.
  SharedCostCache local_cache(&estimator_, &model);
  SharedCostCache* cache = shared_cache != nullptr ? shared_cache
                                                   : &local_cache;
  const CostCacheStats cache_stats_before = cache->stats();

  // Run-local frontier sharing: even with no caller-provided cache, the
  // sparse sweep keeps one for the duration of this run. Under GPipe every
  // stage of a configuration holds the same resident micro-batch count, so
  // the P stages of a P-deep pipeline share one Run signature per distinct
  // layer block — one cold kernel run serves all of them, and repeated
  // signatures across (batch, micro) configurations replay too (the
  // frontier prefix property keeps the answers byte-identical; see
  // frontier_cache.h). Warm replays report zero states/breakpoints, so the
  // sparse-vs-dense telemetry invariants are unaffected.
  std::unique_ptr<DpFrontierCache> local_frontier;
  if (frontier_cache == nullptr && options_.use_sparse_dp) {
    local_frontier = std::make_unique<DpFrontierCache>();
  }
  DpFrontierCache* fcache =
      frontier_cache != nullptr ? frontier_cache : local_frontier.get();

  GALVATRON_ASSIGN_OR_RETURN(SweepSpace space,
                             EnumerateSweepSpace(model, *cluster_, options_));
  const std::vector<SweepDegree>& degrees = space.degrees;

  SearchStats stats;
  stats.num_candidate_strategies = space.num_candidate_strategies;
  stats.enumerate_seconds = SecondsSince(start);

  int threads = options_.search_threads;
  if (threads == 0) threads = ThreadPool::HardwareThreads();
  // The sweep is CPU-bound, so a pool wider than the physical core count
  // only buys thread start-up and context-switch cost; cap it so asking
  // for 4 threads on a smaller host is never slower than asking for 1.
  threads = std::min(threads, ThreadPool::HardwareThreads());
  stats.search_threads_used = threads;
  // Started on first use: a sweep whose phases all stay inline (see
  // run_phase) never pays for thread start-up.
  std::unique_ptr<ThreadPool> pool;

  // Whole-plan cost memo. EstimatePlan is budget-independent except for
  // the per-stage peak-vs-budget comparison, so the cost is computed once
  // with the check deferred, published to the (possibly cross-request)
  // cache, and the comparison re-applied here per call — with the same
  // stage order, short-circuiting, and error text as the checked call.
  // Keys are built into thread-local scratch (one sweep issues hundreds of
  // lookups, mostly hits, which need no owned copy) via AppendStageKey,
  // from a materialized plan or straight from a StageDraft's candidate
  // indices — both spell identical keys.
  auto plan_cost_key = [&](const TrainingPlan& plan) -> const PlanCostKey& {
    thread_local PlanCostKey key;
    key.words.clear();
    key.words.push_back(static_cast<int32_t>(plan.schedule));
    key.words.push_back(plan.global_batch);
    key.words.push_back(plan.num_micro_batches);
    for (const StagePlan& stage : plan.stages) {
      AppendStageKey(
          key, stage.first_device, stage.num_devices, stage.first_layer,
          stage.num_layers, [&](int l) {
            return std::pair<const HybridStrategy*, int32_t>(
                &stage.layer_strategies[static_cast<size_t>(l)],
                !stage.recompute.empty() &&
                        stage.recompute[static_cast<size_t>(l)] != 0
                    ? 1
                    : 0);
          });
    }
    key.Finalize();
    return key;
  };
  auto draft_cost_key = [&](const SweepDegree& degree, int batch, int micro,
                            const std::vector<StageDraft>& stages)
      -> const PlanCostKey& {
    thread_local PlanCostKey key;
    key.words.clear();
    key.words.push_back(static_cast<int32_t>(options_.schedule));
    key.words.push_back(batch);
    key.words.push_back(micro);
    for (size_t s = 0; s < stages.size(); ++s) {
      const StageDraft& d = stages[s];
      const StageGeometry& geom = degree.geometry[s];
      const std::vector<HybridStrategy>& candidates =
          *degree.stage_candidates[s];
      AppendStageKey(
          key, geom.first_device, geom.num_devices, d.first_layer,
          d.num_layers, [&](int l) {
            return std::pair<const HybridStrategy*, int32_t>(
                &candidates[static_cast<size_t>(
                    d.options[static_cast<size_t>(l)])],
                !d.recompute.empty() &&
                        d.recompute[static_cast<size_t>(l)] != 0
                    ? 1
                    : 0);
          });
    }
    key.Finalize();
    return key;
  };
  auto lookup_or_estimate = [&](const PlanCostKey& key,
                                const TrainingPlan& plan)
      -> Result<std::shared_ptr<const PlanCost>> {
    std::shared_ptr<const PlanCost> cost = cache->LookupPlan(key);
    if (cost == nullptr) {
      auto unchecked =
          estimator_.EstimatePlan(model, plan, /*check_memory=*/false);
      // Estimation errors stay uncached and are re-raised through the
      // checked call, so failure semantics match the unmemoized path.
      if (!unchecked.ok()) {
        auto checked = estimator_.EstimatePlan(model, plan);
        if (!checked.ok()) return checked.status();
        return std::shared_ptr<const PlanCost>(
            std::make_shared<PlanCost>(*std::move(checked)));
      }
      cost = cache->InsertPlan(key, *std::move(unchecked));
    }
    return cost;
  };
  auto check_plan_memory = [&](const TrainingPlan& plan,
                               const PlanCost& cost) -> Status {
    for (size_t i = 0; i < plan.stages.size(); ++i) {
      const StagePlan& stage = plan.stages[i];
      const int64_t budget = cluster_->MinMemoryInRange(
          stage.first_device, stage.layer_strategies.front().TotalDegree());
      const int64_t peak = cost.stages[i].peak_memory_bytes;
      if (peak > budget) {
        return Status::OutOfMemory(StrFormat(
            "stage needs %s but budget is %s",
            HumanBytes(static_cast<double>(peak)).c_str(),
            HumanBytes(static_cast<double>(budget)).c_str()));
      }
    }
    return Status::OK();
  };
  auto estimate_plan = [&](const TrainingPlan& plan)
      -> Result<std::shared_ptr<const PlanCost>> {
    GALVATRON_ASSIGN_OR_RETURN(
        std::shared_ptr<const PlanCost> cost,
        lookup_or_estimate(plan_cost_key(plan), plan));
    GALVATRON_RETURN_IF_ERROR(check_plan_memory(plan, *cost));
    return cost;
  };

  // Materializes a draft into `plan`, reusing its nested buffers — the
  // only place full strategy vectors are built for DP plans, reached on a
  // plan-memo miss and when the sweep commits a winner.
  auto materialize_draft = [&](const SweepDegree& degree, int batch, int micro,
                               const std::vector<StageDraft>& stages,
                               TrainingPlan& plan) {
    plan.model_name = model.name();
    plan.global_batch = batch;
    plan.num_micro_batches = micro;
    plan.schedule = options_.schedule;
    plan.stages.resize(stages.size());
    for (size_t s = 0; s < stages.size(); ++s) {
      const StageDraft& d = stages[s];
      StagePlan& stage = plan.stages[s];
      const StageGeometry& geom = degree.geometry[s];
      const std::vector<HybridStrategy>& candidates =
          *degree.stage_candidates[s];
      stage.first_device = geom.first_device;
      stage.num_devices = geom.num_devices;
      stage.first_layer = d.first_layer;
      stage.num_layers = d.num_layers;
      stage.layer_strategies.clear();
      stage.layer_strategies.reserve(d.options.size());
      for (const int32_t o : d.options) {
        stage.layer_strategies.push_back(candidates[static_cast<size_t>(o)]);
      }
      stage.recompute.assign(d.recompute.begin(), d.recompute.end());
    }
  };
  // Estimates a DP draft without materializing it: the memo key comes
  // straight from the candidate indices, so a sweep whose plan costs are
  // already memoized never copies a strategy at all. Only a memo miss
  // materializes the draft, into a thread-local scratch plan whose buffers
  // are reused across configurations. The memory check reads each stage's
  // leading strategy (its TotalDegree picks the budget row) and the cached
  // per-stage peaks — same order, short-circuiting, and message as
  // check_plan_memory.
  auto estimate_draft = [&](const SweepDegree& degree, int batch, int micro,
                            const std::vector<StageDraft>& stages)
      -> Result<std::shared_ptr<const PlanCost>> {
    const PlanCostKey& key = draft_cost_key(degree, batch, micro, stages);
    std::shared_ptr<const PlanCost> cost = cache->LookupPlan(key);
    if (cost == nullptr) {
      static thread_local TrainingPlan scratch;
      materialize_draft(degree, batch, micro, stages, scratch);
      GALVATRON_ASSIGN_OR_RETURN(cost, lookup_or_estimate(key, scratch));
    }
    for (size_t s = 0; s < stages.size(); ++s) {
      const StageDraft& d = stages[s];
      const int64_t budget = cluster_->MinMemoryInRange(
          degree.geometry[s].first_device,
          (*degree.stage_candidates[s])[static_cast<size_t>(
                                            d.options.front())]
              .TotalDegree());
      const int64_t peak = cost->stages[s].peak_memory_bytes;
      if (peak > budget) {
        return Status::OutOfMemory(StrFormat(
            "stage needs %s but budget is %s",
            HumanBytes(static_cast<double>(peak)).c_str(),
            HumanBytes(static_cast<double>(budget)).c_str()));
      }
    }
    return cost;
  };

  // One configuration of the sweep and everything its phases produce.
  // Configurations are appended in enumeration order, so a configuration's
  // index in `configs` is its ordinal.
  struct SweepConfig {
    const SweepDegree* degree = nullptr;
    int ordinal = 0;
    int batch = 1;
    int micro = 1;
    int incumbent_slot = 0;  // index of this PP degree's incumbent
    bool dp_done = false;    // the per-stage DP has run
    bool pruned = false;     // skipped by the refine phase's bound test
    double bound = 0.0;      // admissible throughput upper bound
    ConfigOutcome out;
  };
  std::vector<SweepConfig> configs;

  // Records `cost` as the configuration's best plan when it is strictly
  // better. Within one configuration the PP degree and ordinal are fixed
  // and candidates are considered in rank order (uniform templates, then
  // the DP plan), so BetterPlan reduces to strictly higher throughput —
  // earlier candidates keep ties.
  auto offer = [](SweepConfig& c, std::shared_ptr<const PlanCost> cost,
                  int rank, int uniform_template) {
    ConfigOutcome& out = c.out;
    out.feasible = true;
    if (out.has_best && !(cost->throughput_samples_per_sec >
                          out.best.cost->throughput_samples_per_sec)) {
      return;
    }
    out.best.degree = c.degree;
    out.best.batch = c.batch;
    out.best.micro = c.micro;
    out.best.pp = c.degree->pp;
    out.best.cost = std::move(cost);
    out.best.candidate_rank = rank;
    out.best.config_ordinal = c.ordinal;
    out.best.uniform_template = uniform_template;
    out.has_best = true;
  };

  // Uniform single-strategy plans: points of the same search space,
  // evaluated through the exact estimator so the search never loses to a
  // pure baseline because of DP-table memory quantization. The structure
  // comes from the pre-built per-degree template; only the batch fields
  // differ per configuration, patched into a thread-local scratch whose
  // nested vectors are reused across configurations. The guard reproduces
  // exactly the batch-dependent Validate failures MakeUniformPlan would hit.
  auto evaluate_uniform = [&](SweepConfig& c) {
    if (cancelled()) {
      c.out.error = Status::Cancelled("strategy sweep cancelled");
      return;
    }
    if (c.batch < 1 || c.micro < 1 || c.micro > c.batch) return;
    static thread_local TrainingPlan uniform_scratch;
    const SweepDegree& degree = *c.degree;
    for (size_t t = 0; t < degree.uniform_templates.size(); ++t) {
      uniform_scratch = degree.uniform_templates[t].second;
      uniform_scratch.global_batch = c.batch;
      uniform_scratch.num_micro_batches = c.micro;
      auto uniform_cost = estimate_plan(uniform_scratch);
      if (!uniform_cost.ok()) continue;
      offer(c, *std::move(uniform_cost), degree.uniform_templates[t].first,
            static_cast<int>(t));
    }
  };

  // Per-stage DP, collected as a draft of candidate indices (the kernel
  // runs with materialize_plans off and returns index chains only), then
  // estimated as a whole plan and offered after the uniform candidates.
  // Pure function of the configuration plus the (thread-safe, const)
  // estimator and shared caches — safe to run on any worker.
  auto evaluate_dp = [&](SweepConfig& c) {
    ConfigOutcome& out = c.out;
    c.dp_done = true;
    const SweepDegree& degree = *c.degree;
    // The probe plan carries just the schedule shape InFlightForDegree
    // reads.
    TrainingPlan probe;
    probe.global_batch = c.batch;
    probe.num_micro_batches = c.micro;
    probe.schedule = options_.schedule;

    std::vector<StageDraft> draft;
    draft.reserve(static_cast<size_t>(degree.pp));
    int first_layer = 0;
    for (int s = 0; s < degree.pp; ++s) {
      if (cancelled()) {
        out.error = Status::Cancelled("strategy sweep cancelled");
        return;
      }
      const int stage_layers = degree.stage_sizes[static_cast<size_t>(s)];
      const StageGeometry& geom = degree.geometry[static_cast<size_t>(s)];
      const int64_t stage_budget =
          cluster_->MinMemoryInRange(geom.first_device, geom.num_devices);
      auto result = search.Run(model, first_layer, stage_layers,
                               *degree.stage_candidates[static_cast<size_t>(s)],
                               geom.first_device, c.batch, c.micro,
                               stage_budget,
                               probe.InFlightForDegree(degree.pp, s), cache,
                               fcache, &cancel_check);
      if (fcache != nullptr) {
        // Warm infeasible answers are invisible here (no DpSearchResult to
        // carry the flag) and count as misses; the cache's own stats()
        // still record them as hits.
        if (result.ok() && result->frontier_hit) {
          ++out.dp_frontier_hits;
        } else {
          ++out.dp_frontier_misses;
        }
      }
      if (!result.ok()) {
        if (!result.status().IsInfeasible() &&
            !result.status().IsOutOfMemory()) {
          out.error = result.status();
        }
        return;
      }
      out.dp_states += result->states_explored;
      out.dp_breakpoints += result->breakpoints_emitted;
      out.dp_pruned += result->options_pruned;
      out.dp_allocations += result->allocations;
      StageDraft d;
      d.first_layer = first_layer;
      d.num_layers = stage_layers;
      d.options = std::move(result->per_layer_option);
      if (options_.allow_recompute) {
        d.recompute = std::move(result->per_layer_recompute);
      }
      draft.push_back(std::move(d));
      first_layer += stage_layers;
    }

    auto cost = estimate_draft(degree, c.batch, c.micro, draft);
    if (!cost.ok()) {
      if (!cost.status().IsOutOfMemory()) out.error = cost.status();
      return;
    }
    offer(c, *std::move(cost), degree.dp_rank, /*uniform_template=*/-1);
    // Only uniform templates were offered before, so a draft-backed best
    // means the DP plan won.
    if (out.best.uniform_template < 0) out.best.stages = std::move(draft);
  };

  // Materializes a RankedPlan into a full TrainingPlan — called once for
  // the winner and once per alternate, after the sweep has settled.
  auto materialize_plan = [&](const RankedPlan& ranked) -> TrainingPlan {
    TrainingPlan plan;
    if (ranked.uniform_template >= 0) {
      plan = ranked.degree
                 ->uniform_templates[static_cast<size_t>(
                     ranked.uniform_template)]
                 .second;
      plan.global_batch = ranked.batch;
      plan.num_micro_batches = ranked.micro;
      return plan;
    }
    materialize_draft(*ranked.degree, ranked.batch, ranked.micro,
                      ranked.stages, plan);
    return plan;
  };

  // Runs `phase` over `indices` of `configs`, inline or on the pool, and
  // charges each call's heap allocations to its configuration (the call
  // runs entirely on one worker, so a thread-local counter delta is
  // exact). Dispatch is adaptive: starting and waking workers costs more
  // than a cheap phase's whole compute (a warm sweep's phases take
  // microseconds), so indices run inline, in order, until the phase has
  // used kInlineSeconds of this thread's CPU time; the remainder fans out
  // across the pool only when the inline rate predicts at least
  // kPoolSeconds of work left. CPU time rather than wall time keeps the
  // decision independent of how busy the host is: a preempted caller
  // would otherwise mistake a stall for work and hand a cheap phase to
  // workers that then wait for cores. The clock is read after 1, 2, 4, ...
  // indices, so a warm phase pays a handful of reads. An `eager` phase
  // skips the inline prefix: after a settle wave that used kPoolSeconds of
  // CPU the sweep is cold, and the first index of the next wave (the
  // shallowest pipeline, with the most uniform templates) or of refine
  // (the highest bound, usually the widest stage's DP) is often the
  // phase's longest. Only latency changes — every phase writes per-configuration
  // slots that are merged in ordinal order, so the result is identical
  // however it ran.
  constexpr double kInlineSeconds = 1e-3;
  constexpr double kPoolSeconds = 5e-3;
  auto run_phase = [&](const std::vector<int>& indices, const auto& phase,
                       bool eager = false) {
    auto call = [&](int i) {
      SweepConfig& c = configs[static_cast<size_t>(
          indices[static_cast<size_t>(i)])];
      const int64_t allocs_before = CurrentThreadAllocCount();
      phase(c);
      c.out.sweep_allocations += CurrentThreadAllocCount() - allocs_before;
    };
    const int count = static_cast<int>(indices.size());
    const double cpu_start = threads > 1 ? ThreadCpuSeconds() : 0.0;
    int next = 0;
    int next_check = 1;
    while (next < count && !(eager && threads > 1)) {
      if (threads > 1 && next == next_check) {
        next_check *= 2;
        const double used = ThreadCpuSeconds() - cpu_start;
        if (used >= kInlineSeconds &&
            used / next * (count - next) >= kPoolSeconds) {
          break;
        }
      }
      call(next++);
    }
    if (next == count) return;
    if (pool == nullptr) pool = std::make_unique<ThreadPool>(threads);
    ParallelFor(pool.get(), count - next, [&](int i) { call(next + i); });
  };
  // The first fatal error among `indices`, by ordinal (indices ascending).
  auto first_error = [&](const std::vector<int>& indices) -> Status {
    for (const int i : indices) {
      const Status& error = configs[static_cast<size_t>(i)].out.error;
      if (!error.ok()) return error;
    }
    return Status::OK();
  };

  // One incumbent per PP degree: the highest throughput any evaluated plan
  // of that degree has reached. Per degree rather than global because the
  // alternates (best plan per PP degree) are part of the result; a
  // configuration is skipped only when its bound is strictly below its own
  // degree's incumbent, so neither the winner nor any alternate can be
  // lost (BetterPlan breaks exact throughput ties by ordinal, hence
  // strict).
  std::map<int, int> slot_of_pp;
  for (const SweepDegree& degree : degrees) {
    slot_of_pp.emplace(degree.pp, static_cast<int>(slot_of_pp.size()));
  }
  std::vector<std::atomic<double>> incumbents(slot_of_pp.size());
  for (std::atomic<double>& incumbent : incumbents) {
    incumbent.store(-std::numeric_limits<double>::infinity());
  }
  auto raise_incumbent = [&](const SweepConfig& c) {
    if (!c.out.has_best) return;
    const double throughput = c.out.best.cost->throughput_samples_per_sec;
    std::atomic<double>& incumbent =
        incumbents[static_cast<size_t>(c.incumbent_slot)];
    double current = incumbent.load(std::memory_order_relaxed);
    while (throughput > current &&
           !incumbent.compare_exchange_weak(current, throughput,
                                            std::memory_order_relaxed)) {
    }
  };

  // Phase 1, settle: Algorithm 1's batch loop — grow the batch until every
  // PP degree is out of memory. Each wave evaluates only the uniform
  // templates of its (degree, micro) configurations; the loop's exit test
  // needs DP feasibility only when no uniform plan fits and no degree is
  // still waiting for a batch that fills its pipeline, and only then does
  // the wave run DPs — until one fits, which decides the test exactly as
  // running all of them would.
  const auto settle_start = std::chrono::steady_clock::now();
  bool cold = false;  // the last settle wave used kPoolSeconds of CPU
  for (int batch = options_.batch_step;
       batch <= options_.max_batch; batch += options_.batch_step) {
    if (cancelled()) return Status::Cancelled("strategy sweep cancelled");
    bool any_pending = false;  // degrees whose pipelines the batch can't fill yet
    std::vector<int> wave;
    for (const SweepDegree& degree : degrees) {
      for (const int micro :
           MicroBatchCounts(degree.pp, batch,
                            options_.micro_batch_multipliers, &any_pending)) {
        SweepConfig c;
        c.degree = &degree;
        c.ordinal = static_cast<int>(configs.size());
        c.batch = batch;
        c.micro = micro;
        c.incumbent_slot = slot_of_pp.at(degree.pp);
        wave.push_back(static_cast<int>(configs.size()));
        configs.push_back(std::move(c));
      }
    }
    const double wave_cpu_start = threads > 1 ? ThreadCpuSeconds() : 0.0;
    run_phase(wave, evaluate_uniform, /*eager=*/cold);
    cold = threads > 1 && ThreadCpuSeconds() - wave_cpu_start >= kPoolSeconds;
    GALVATRON_RETURN_IF_ERROR(first_error(wave));
    const bool uniform_feasible =
        std::any_of(wave.begin(), wave.end(), [&](int i) {
          return configs[static_cast<size_t>(i)].out.feasible;
        });
    if (uniform_feasible || any_pending) continue;
    // The exit test needs only one feasible DP plan: DPs run deepest
    // pipeline and most micro-batches first (the configurations with the
    // least memory per device), and the rest of the wave is left to the
    // bound and refine phases once one fits.
    std::atomic<bool> found{false};
    run_phase(std::vector<int>(wave.rbegin(), wave.rend()),
              [&](SweepConfig& c) {
                if (found.load(std::memory_order_relaxed)) return;
                evaluate_dp(c);
                if (c.out.feasible) found.store(true);
              });
    GALVATRON_RETURN_IF_ERROR(first_error(wave));
    if (!found.load()) break;  // larger batches only use more memory
  }
  for (const SweepConfig& c : configs) raise_incumbent(c);
  stats.settle_seconds = SecondsSince(settle_start);

  // Phase 2, bound: an admissible throughput upper bound for every
  // configuration whose DP has not run (see ThroughputBound).
  const auto bound_start = std::chrono::steady_clock::now();
  std::vector<int> open;
  for (size_t i = 0; i < configs.size(); ++i) {
    if (!configs[i].dp_done) open.push_back(static_cast<int>(i));
  }
  std::vector<ThroughputBound> bounds;
  bounds.reserve(degrees.size());
  for (const SweepDegree& degree : degrees) {
    bounds.emplace_back(cache, model, *cluster_, degree,
                        options_.allow_recompute);
  }
  run_phase(open, [&](SweepConfig& c) {
    c.bound = bounds[static_cast<size_t>(c.degree - degrees.data())].Evaluate(
        c.batch, c.micro, options_.schedule);
  });
  stats.bound_seconds = SecondsSince(bound_start);

  // Phase 3, refine: run the remaining DPs in descending-bound order (ties
  // by ordinal), so the most promising configurations raise their degree's
  // incumbent first, and skip every configuration whose bound is strictly
  // below its incumbent or says no plan fits in memory. Racing workers may
  // skip more or fewer configurations, but every incumbent is the
  // throughput of a plan that is merged below, so a skip can never change
  // the winner or an alternate.
  const auto refine_start = std::chrono::steady_clock::now();
  if (cancelled()) return Status::Cancelled("strategy sweep cancelled");
  std::vector<int> order = open;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return configs[static_cast<size_t>(a)].bound >
           configs[static_cast<size_t>(b)].bound;
  });
  run_phase(order, [&](SweepConfig& c) {
    if (c.bound == -std::numeric_limits<double>::infinity() ||
        c.bound < incumbents[static_cast<size_t>(c.incumbent_slot)].load(
                      std::memory_order_relaxed)) {
      c.pruned = true;
      return;
    }
    evaluate_dp(c);
    raise_incumbent(c);
  }, /*eager=*/cold);
  stats.refine_seconds = SecondsSince(refine_start);

  // Deterministic merge: walk configurations in enumeration order; the
  // first fatal error (by ordinal) among the configurations that ran is
  // returned.
  RankedPlan best;
  bool have_best = false;
  // Best plan per PP degree, kept as alternates.
  std::map<int, RankedPlan> best_per_degree;
  for (SweepConfig& c : configs) {
    ConfigOutcome& out = c.out;
    if (!out.error.ok()) return out.error;
    ++stats.configs_explored;
    if (c.pruned) ++stats.configs_pruned;
    stats.dp_states_explored += out.dp_states;
    stats.dp_breakpoints_emitted += out.dp_breakpoints;
    stats.dp_options_pruned += out.dp_pruned;
    stats.dp_frontier_hits += out.dp_frontier_hits;
    stats.dp_frontier_misses += out.dp_frontier_misses;
    stats.dp_allocations += out.dp_allocations;
    stats.sweep_allocations += out.sweep_allocations;
    if (!out.has_best) continue;
    const int pp = out.best.pp;
    auto it = best_per_degree.find(pp);
    if (it == best_per_degree.end() || BetterPlan(out.best, it->second)) {
      best_per_degree[pp] = out.best;
    }
    if (!have_best || BetterPlan(out.best, best)) {
      best = std::move(out.best);
      have_best = true;
    }
  }
  stats.sweep_seconds = SecondsSince(start) - stats.enumerate_seconds;

  if (!have_best) {
    return Status::Infeasible(StrFormat(
        "%s does not fit %d devices with %s each", model.name().c_str(),
        num_devices,
        HumanBytes(static_cast<double>(
                       cluster_->MinMemoryInRange(0, num_devices)))
            .c_str()));
  }

  OptimizationResult result;
  result.plan = materialize_plan(best);
  result.estimated = PlanCost(*best.cost);

  // Co-optimization: feed the winning plan's measured per-layer times back
  // into the pipeline partitioner and re-search each stage.
  const auto co_optimize_start = std::chrono::steady_clock::now();
  for (int round = 0;
       round < options_.co_optimize_rounds && result.plan.pp_degree() > 1 &&
       !cancelled();
       ++round) {
    const int pp = result.plan.pp_degree();
    std::vector<double> layer_seconds;
    bool measured = true;
    for (const StagePlan& stage : result.plan.stages) {
      auto cost = estimator_.EstimateStage(
          model, stage.first_layer, stage.num_layers, stage.layer_strategies,
          stage.first_device, result.plan.global_batch,
          result.plan.num_micro_batches, stage.recompute,
          result.plan.InFlightMicroBatches(
              static_cast<int>(&stage - result.plan.stages.data())));
      if (!cost.ok()) {
        measured = false;
        break;
      }
      layer_seconds.insert(layer_seconds.end(),
                           cost->per_layer_seconds.begin(),
                           cost->per_layer_seconds.end());
    }
    if (!measured) break;
    Result<std::vector<int>> sizes = Status::Internal("unset");
    if (!space.graph_or_mixed) {
      sizes = PartitionByWeights(layer_seconds, pp);
    } else {
      // Mixed compute: weigh each layer by the throughput of the stage it
      // ran on (seconds x FLOP/s = flop-equivalents) and partition against
      // per-stage block throughput, so faster blocks absorb more layers.
      std::vector<double> capacities;
      std::vector<double> weights = layer_seconds;
      size_t l = 0;
      for (const StagePlan& stage : result.plan.stages) {
        const double throughput =
            stage.num_devices *
            cluster_->MinSustainedFlopsInRange(stage.first_device,
                                               stage.num_devices);
        capacities.push_back(throughput);
        for (int i = 0; i < stage.num_layers; ++i) {
          weights[l++] *= throughput;
        }
      }
      sizes = PartitionByWeightsWithCapacities(weights, capacities);
    }
    if (!sizes.ok()) break;
    bool same = true;
    for (int s = 0; s < pp; ++s) {
      if ((*sizes)[static_cast<size_t>(s)] !=
          result.plan.stages[static_cast<size_t>(s)].num_layers) {
        same = false;
      }
    }
    if (same) break;

    TrainingPlan refined;
    refined.model_name = model.name();
    refined.global_batch = result.plan.global_batch;
    refined.num_micro_batches = result.plan.num_micro_batches;
    refined.schedule = result.plan.schedule;
    int first_layer = 0;
    bool oom = false;
    for (int s = 0; s < pp && !oom; ++s) {
      // Device blocks come from the winning plan itself — uneven splits
      // keep their geometry across co-optimization rounds.
      const StagePlan& block = result.plan.stages[static_cast<size_t>(s)];
      auto candidates =
          CandidatesForWidth(space, block.num_devices, options_.tree);
      if (!candidates.ok()) {
        oom = true;
        break;
      }
      const int stage_layers = (*sizes)[static_cast<size_t>(s)];
      const int64_t stage_budget = cluster_->MinMemoryInRange(
          block.first_device, block.num_devices);
      auto stage_result =
          search.Run(model, first_layer, stage_layers, **candidates,
                     block.first_device, refined.global_batch,
                     refined.num_micro_batches, stage_budget,
                     refined.InFlightForDegree(pp, s), cache, fcache,
                     &cancel_check);
      if (!stage_result.ok()) {
        oom = true;
        break;
      }
      // The sweep-wide search runs with materialize_plans off; this stage
      // is being committed, so fill per_layer from the index chain.
      MaterializeDpSearchResult(**candidates, &*stage_result);
      StagePlan stage;
      stage.first_device = block.first_device;
      stage.num_devices = block.num_devices;
      stage.first_layer = first_layer;
      stage.num_layers = stage_layers;
      stage.layer_strategies = std::move(stage_result->per_layer);
      if (options_.allow_recompute) {
        stage.recompute = std::move(stage_result->per_layer_recompute);
      }
      refined.stages.push_back(std::move(stage));
      first_layer += stage_layers;
    }
    if (oom) break;
    auto cost = estimator_.EstimatePlan(model, refined);
    if (!cost.ok() || cost->throughput_samples_per_sec <=
                          result.estimated.throughput_samples_per_sec) {
      break;
    }
    result.plan = std::move(refined);
    result.estimated = *std::move(cost);
  }
  stats.co_optimize_seconds = SecondsSince(co_optimize_start);

  for (const auto& [pp, entry] : best_per_degree) {
    if (pp != result.plan.pp_degree()) {
      result.alternates.push_back(materialize_plan(entry));
    }
  }
  const CostCacheStats cache_stats = cache->stats();
  stats.cost_cache_hits = cache_stats.hits() - cache_stats_before.hits();
  stats.cost_cache_misses =
      cache_stats.misses() - cache_stats_before.misses();
  stats.cost_cache_lifetime_hits = cache_stats.hits();
  stats.cost_cache_lifetime_misses = cache_stats.misses();
  stats.used_external_cost_cache = shared_cache != nullptr;
  stats.search_seconds = SecondsSince(start);
  result.stats = stats;
  return result;
}

}  // namespace galvatron
