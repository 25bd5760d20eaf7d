#include "search/sweep_space.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <unordered_map>

#include "parallel/decision_tree.h"
#include "parallel/pipeline_partition.h"

namespace galvatron {

namespace {

/// PP degrees to try: powers of two dividing the device count, capped by
/// the layer count (stages must be non-empty).
std::vector<int> DefaultPipelineDegrees(int num_devices, int num_layers) {
  std::vector<int> degrees;
  for (int p = 1; p <= num_devices; p *= 2) {
    if (num_devices % p == 0 && p <= num_layers) degrees.push_back(p);
  }
  return degrees;
}

}  // namespace

Result<std::shared_ptr<const std::vector<HybridStrategy>>> CandidatesForWidth(
    const SweepSpace& space, int width, const DecisionTreeOptions& tree) {
  auto it = space.width_candidates.find(width);
  if (it != space.width_candidates.end()) return it->second;
  GALVATRON_ASSIGN_OR_RETURN(std::vector<HybridStrategy> enumerated,
                             EnumerateSingleLayerStrategies(width, tree));
  return std::make_shared<const std::vector<HybridStrategy>>(
      std::move(enumerated));
}

Result<SweepSpace> EnumerateSweepSpace(const ModelSpec& model,
                                       const ClusterSpec& cluster,
                                       const OptimizerOptions& options) {
  const int num_devices = cluster.num_devices();
  std::vector<int> pp_degrees = options.pp_degrees;
  if (pp_degrees.empty()) {
    pp_degrees = DefaultPipelineDegrees(num_devices, model.num_layers());
  }

  SweepSpace space;
  std::vector<SweepDegree>& degrees = space.degrees;
  // batch=1/micro=1 satisfies every batch-dependent Validate check, so a
  // template failure here is structural and holds for every configuration.
  auto build_uniform_templates = [&](SweepDegree& d) {
    if (!d.equal_split) return;  // templates require equal stage widths
    const std::vector<HybridStrategy>& candidates = *d.stage_candidates.front();
    for (size_t c = 0; c < candidates.size(); ++c) {
      auto uniform = MakeUniformPlan(model, num_devices, d.pp, d.stage_sizes,
                                     candidates[c], /*global_batch=*/1,
                                     /*num_micro_batches=*/1);
      if (!uniform.ok()) continue;
      uniform->schedule = options.schedule;
      d.uniform_templates.emplace_back(static_cast<int>(c),
                                       *std::move(uniform));
    }
  };
  std::set<std::string> candidate_names;
  // Candidate sets are pure functions of the stage width; uneven degrees
  // revisit widths, so enumerate each width once.
  auto candidates_for_width = [&](int width)
      -> Result<std::shared_ptr<const std::vector<HybridStrategy>>> {
    auto it = space.width_candidates.find(width);
    if (it != space.width_candidates.end()) return it->second;
    GALVATRON_ASSIGN_OR_RETURN(
        std::shared_ptr<const std::vector<HybridStrategy>> shared,
        CandidatesForWidth(space, width, options.tree));
    for (const HybridStrategy& s : *shared) {
      candidate_names.insert(s.ToString());
    }
    space.width_candidates.emplace(width, shared);
    return shared;
  };
  for (int pp : pp_degrees) {
    if (pp < 1 || num_devices % pp != 0 || pp > model.num_layers()) continue;
    SweepDegree d;
    d.pp = pp;
    const int span = num_devices / pp;
    GALVATRON_ASSIGN_OR_RETURN(
        std::shared_ptr<const std::vector<HybridStrategy>> candidates,
        candidates_for_width(span));
    d.geometry.reserve(static_cast<size_t>(pp));
    for (int s = 0; s < pp; ++s) {
      d.geometry.push_back(StageGeometry{s * span, span});
    }
    d.stage_candidates.assign(static_cast<size_t>(pp), candidates);
    d.dp_rank = static_cast<int>(candidates->size());
    GALVATRON_ASSIGN_OR_RETURN(
        d.stage_sizes, PartitionPipeline(model, pp, options.partition_policy));
    // Heterogeneous clusters: also try a capacity-aware partition that
    // hands roomier islands proportionally more layers.
    if (pp > 1 && !cluster.HasUniformMemory()) {
      SweepDegree hetero = d;
      std::vector<double> capacities;
      for (int s = 0; s < pp; ++s) {
        capacities.push_back(
            static_cast<double>(cluster.MinMemoryInRange(s * span, span)));
      }
      auto sizes = PartitionPipelineHeterogeneous(
          model, options.partition_policy, capacities);
      if (sizes.ok() && *sizes != d.stage_sizes) {
        hetero.stage_sizes = *std::move(sizes);
        build_uniform_templates(hetero);
        degrees.push_back(std::move(hetero));
      }
    }
    build_uniform_templates(d);
    degrees.push_back(std::move(d));
  }
  // Mixed-generation (or graph-backed) clusters: island-proportional
  // uneven stage splits, appended after the equal-split entries so
  // homogeneous enumeration ordinals are untouched. Faster islands get
  // more stages (and the layer partition then weighs stages by their
  // block's throughput), which no equal split can express when islands
  // differ in width or speed.
  space.graph_or_mixed =
      cluster.topology() != nullptr || !cluster.HasUniformCompute();
  if (options.allow_uneven_stages && space.graph_or_mixed) {
    const std::vector<DeviceIsland> islands = cluster.ComputeIslands();
    if (islands.size() > 1) {
      std::set<int> uneven_pps(pp_degrees.begin(), pp_degrees.end());
      uneven_pps.insert(static_cast<int>(islands.size()));
      for (const int pp : uneven_pps) {
        if (pp < 2 || pp > model.num_layers() || pp > num_devices) continue;
        auto geo = ProportionalStageGeometry(islands, pp);
        if (!geo.ok()) continue;
        SweepDegree d;
        d.pp = pp;
        d.geometry = *std::move(geo);
        d.equal_split =
            num_devices % pp == 0 &&
            std::all_of(d.geometry.begin(), d.geometry.end(),
                        [&](const StageGeometry& g) {
                          return g.num_devices == num_devices / pp;
                        });
        bool enumerated_ok = true;
        std::vector<double> capacities;
        for (const StageGeometry& g : d.geometry) {
          auto candidates = candidates_for_width(g.num_devices);
          if (!candidates.ok()) {
            enumerated_ok = false;
            break;
          }
          d.stage_candidates.push_back(*std::move(candidates));
          d.dp_rank = std::max(
              d.dp_rank,
              static_cast<int>(d.stage_candidates.back()->size()));
          capacities.push_back(
              g.num_devices *
              cluster.MinSustainedFlopsInRange(g.first_device,
                                               g.num_devices));
        }
        if (!enumerated_ok) continue;
        auto sizes = PartitionPipelineHeterogeneous(
            model, options.partition_policy, capacities);
        if (!sizes.ok()) {
          sizes = PartitionPipeline(model, pp, options.partition_policy);
        }
        if (!sizes.ok()) continue;
        d.stage_sizes = *std::move(sizes);
        const bool duplicate = std::any_of(
            degrees.begin(), degrees.end(), [&](const SweepDegree& existing) {
              return existing.pp == d.pp &&
                     existing.geometry == d.geometry &&
                     existing.stage_sizes == d.stage_sizes;
            });
        if (duplicate) continue;
        build_uniform_templates(d);
        degrees.push_back(std::move(d));
      }
    }
  }
  if (degrees.empty()) {
    return Status::InvalidArgument("no valid pipeline degrees");
  }
  space.num_candidate_strategies = static_cast<int>(candidate_names.size());
  return space;
}

std::vector<int> MicroBatchCounts(int pp, int batch,
                                  const std::vector<int>& multipliers,
                                  bool* pending) {
  std::vector<int> counts;
  if (pp == 1) {
    counts.push_back(1);
    return counts;
  }
  for (int mult : multipliers) {
    const int m = pp * mult;
    if (m <= batch) counts.push_back(m);
  }
  if (counts.empty() && pp <= batch) counts.push_back(pp);
  if (counts.empty()) *pending = true;
  return counts;
}

ThroughputBound::ThroughputBound(SharedCostCache* cache,
                                 const ModelSpec& model,
                                 const ClusterSpec& cluster,
                                 const SweepDegree& degree,
                                 bool allow_recompute)
    : cache_(cache), pp_(degree.pp), allow_recompute_(allow_recompute) {
  // Interned ids are what the DP's RunCostCache builds its LayerCostKeys
  // from, so the bound's lookups hit (and warm) the DP's own entries.
  std::unordered_map<const std::vector<HybridStrategy>*,
                     std::vector<int32_t>>
      strategy_ids;
  int first_layer = 0;
  stages_.resize(degree.geometry.size());
  for (size_t s = 0; s < stages_.size(); ++s) {
    Stage& stage = stages_[s];
    stage.first_device = degree.geometry[s].first_device;
    stage.budget = cluster.MinMemoryInRange(stage.first_device,
                                            degree.geometry[s].num_devices);
    stage.candidates = degree.stage_candidates[s].get();
    auto [ids, inserted] = strategy_ids.emplace(stage.candidates,
                                                std::vector<int32_t>());
    if (inserted) {
      for (const HybridStrategy& c : *stage.candidates) {
        ids->second.push_back(cache_->InternStrategy(c));
      }
    }
    stage.strategy_ids = ids->second;
    for (const HybridStrategy& c : *stage.candidates) {
      stage.fp_ids.push_back(cache_->InternFingerprint(
          stage.first_device, c.TotalDegree() > 0 ? c.TotalDegree() : 1));
    }
    const int num_layers = degree.stage_sizes[s];
    std::unordered_map<std::string, int> sig_to_local;
    for (int l = first_layer; l < first_layer + num_layers; ++l) {
      const std::string& sig = model.layer(l).signature();
      auto [it, fresh] = sig_to_local.emplace(
          sig, static_cast<int>(stage.sig_ids.size()));
      if (fresh) {
        stage.sig_ids.push_back(cache_->Intern(sig));
        stage.sig_layers.push_back(l);
      }
      stage.local_sig.push_back(it->second);
    }
    first_layer += num_layers;
  }
}

double ThroughputBound::Evaluate(int batch, int micro,
                                 PipelineSchedule schedule) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  TrainingPlan probe;  // carries only the schedule shape InFlight reads
  probe.global_batch = batch;
  probe.num_micro_batches = micro;
  probe.schedule = schedule;
  const EstimatorOptions& estimator_options =
      cache_->estimator().effective_options();
  // Per distinct signature of the current stage: the cheapest fitting
  // option's seconds and the smallest fitting option's resident bytes.
  thread_local std::vector<double> sig_seconds;
  thread_local std::vector<int64_t> sig_resident;
  double sum_u = 0.0;
  double max_u = 0.0;
  for (size_t s = 0; s < stages_.size(); ++s) {
    const Stage& stage = stages_[s];
    const int num_strategies = static_cast<int>(stage.candidates->size());
    LayerCostKey key;
    key.batch_per_group = batch;
    key.micro_batches = micro;
    key.resident_micro_batches =
        probe.InFlightForDegree(pp_, static_cast<int>(s));
    sig_seconds.assign(stage.sig_ids.size(), kInf);
    sig_resident.assign(stage.sig_ids.size(),
                        std::numeric_limits<int64_t>::max());
    for (size_t d = 0; d < stage.sig_ids.size(); ++d) {
      key.layer_sig = stage.sig_ids[d];
      for (int recompute = 0; recompute <= (allow_recompute_ ? 1 : 0);
           ++recompute) {
        key.recompute = recompute;
        for (int c = 0; c < num_strategies; ++c) {
          key.strategy = stage.strategy_ids[static_cast<size_t>(c)];
          key.fingerprint = stage.fp_ids[static_cast<size_t>(c)];
          Result<LayerCost> cost =
              cache_->Layer(key, stage.sig_layers[d],
                            (*stage.candidates)[static_cast<size_t>(c)],
                            stage.first_device);
          if (!cost.ok()) return kInf;
          const double seconds =
              cost->IterationSeconds(micro, estimator_options);
          if (std::isnan(seconds)) return kInf;
          if (cost->resident_memory_bytes +
                  2 * cost->transient_memory_bytes >
              stage.budget) {
            continue;  // no feasible plan holds this option
          }
          sig_seconds[d] = std::min(sig_seconds[d], seconds);
          sig_resident[d] =
              std::min(sig_resident[d], cost->resident_memory_bytes);
        }
      }
      if (sig_seconds[d] == kInf) return -kInf;  // no option fits
    }
    // EstimateStage's accumulation order, minus the Slice-Gather terms.
    double seconds = 0.0;
    int64_t resident = 0;
    for (const int d : stage.local_sig) {
      seconds += sig_seconds[static_cast<size_t>(d)];
      resident += sig_resident[static_cast<size_t>(d)];
    }
    if (resident > stage.budget) return -kInf;
    // EstimatePlan's pipelining, minus the boundary p2p terms.
    const double u = seconds / micro;
    sum_u += u;
    max_u = std::max(max_u, u);
  }
  const double iteration = sum_u + (micro - 1) * max_u;
  return batch / iteration;
}

}  // namespace galvatron
