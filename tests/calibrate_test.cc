/// Calibration subsystem tests (src/calibrate/): the robust trace-to-scale
/// fit, the versioned profile's hostile-float JSON round-trip and strict
/// rejection contract, the estimator byte-identity guarantee when no
/// profile is attached, and the mirror-vs-level topology regression — a
/// profile fitted from a mirror-topology trace must price a level-priced
/// twin cluster identically (satellite of the calibration PR; the fuzz
/// twin is FuzzCheck::kCalibrationIdentity).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "calibrate/fit.h"
#include "calibrate/profile.h"
#include "cluster/cluster.h"
#include "estimator/cost_estimator.h"
#include "ir/model_zoo.h"
#include "parallel/pipeline_partition.h"
#include "parallel/plan.h"
#include "sim/simulator.h"
#include "trace/analyzer.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "util/ring_buffer.h"
#include "util/rng.h"

namespace galvatron {
namespace calibrate {
namespace {

HybridStrategy Make(std::vector<ParallelComponent> levels) {
  auto r = HybridStrategy::Create(std::move(levels));
  EXPECT_TRUE(r.ok()) << r.status();
  return *std::move(r);
}

CommObservation Obs(LinkClass link, CollectiveKind kind, int64_t bytes,
                    double predicted, double measured) {
  CommObservation o;
  o.link_class = link;
  o.kind = kind;
  o.bytes = bytes;
  o.group_size = 4;
  o.predicted_sec = predicted;
  o.measured_sec = measured;
  return o;
}

TEST(SizeBucketTest, FloorsLog2AndClamps) {
  EXPECT_EQ(SizeBucket(0), 0);
  EXPECT_EQ(SizeBucket(1), 0);
  EXPECT_EQ(SizeBucket(2), 1);
  EXPECT_EQ(SizeBucket(3), 1);
  EXPECT_EQ(SizeBucket(1024), 10);
  EXPECT_EQ(SizeBucket((int64_t{1} << 20) - 1), 19);
  EXPECT_EQ(SizeBucket(int64_t{1} << 20), 20);
  EXPECT_EQ(SizeBucket(std::numeric_limits<int64_t>::max()), 62);
}

TEST(FitTest, RecoversExactScalePerGroup) {
  // Noise-free samples: the ratio fit must recover the generating scale
  // exactly (Huber reweighting never moves a zero-residual solution).
  std::vector<CommObservation> observations;
  for (int i = 1; i <= 8; ++i) {
    const double p = 1e-4 * i;
    observations.push_back(Obs(LinkClass::kPcie3, CollectiveKind::kAllReduce,
                               int64_t{1} << 20, p, 1.7 * p));
    observations.push_back(Obs(LinkClass::kInfiniBand100,
                               CollectiveKind::kAllGather, int64_t{1} << 22,
                               p, 0.8 * p));
  }
  auto profile = FitCalibrationProfile(observations, 1.3);
  ASSERT_TRUE(profile.ok()) << profile.status();
  EXPECT_EQ(profile->fitted_events, 16);
  EXPECT_DOUBLE_EQ(profile->overlap_slowdown, 1.3);
  ASSERT_EQ(profile->groups.size(), 2u);
  const CalibrationGroup* ar =
      profile->Find(LinkClass::kPcie3, CollectiveKind::kAllReduce, 20);
  ASSERT_NE(ar, nullptr);
  EXPECT_NEAR(ar->scale, 1.7, 1e-12);
  EXPECT_EQ(ar->sample_count, 8);
  EXPECT_NEAR(ar->rel_residual, 0.0, 1e-12);
  const CalibrationGroup* ag =
      profile->Find(LinkClass::kInfiniBand100, CollectiveKind::kAllGather, 22);
  ASSERT_NE(ag, nullptr);
  EXPECT_NEAR(ag->scale, 0.8, 1e-12);
}

TEST(FitTest, HuberReweightingShrinksOutlierPull) {
  // 12 clean samples at scale 2.0 plus one wild outlier (a collective that
  // straddled a stall). The robust fit must land closer to 2.0 than the
  // unweighted least-squares fit does.
  std::vector<CommObservation> observations;
  for (int i = 1; i <= 12; ++i) {
    const double p = 1e-4 * i;
    observations.push_back(Obs(LinkClass::kPcie3, CollectiveKind::kAllReduce,
                               int64_t{1} << 20, p, 2.0 * p));
  }
  observations.push_back(Obs(LinkClass::kPcie3, CollectiveKind::kAllReduce,
                             int64_t{1} << 20, 1e-4, 30 * 1e-4));

  FitOptions robust;  // defaults: 4 Huber passes
  FitOptions plain;
  plain.huber_iterations = 0;
  auto robust_fit = FitCalibrationProfile(observations, 0.0, robust);
  auto plain_fit = FitCalibrationProfile(observations, 0.0, plain);
  ASSERT_TRUE(robust_fit.ok()) << robust_fit.status();
  ASSERT_TRUE(plain_fit.ok()) << plain_fit.status();
  ASSERT_EQ(robust_fit->groups.size(), 1u);
  ASSERT_EQ(plain_fit->groups.size(), 1u);
  const double robust_err = std::abs(robust_fit->groups[0].scale - 2.0);
  const double plain_err = std::abs(plain_fit->groups[0].scale - 2.0);
  EXPECT_LT(robust_err, plain_err);
  EXPECT_LT(robust_err, 0.2);
}

TEST(FitTest, ClampsScalesAndDropsThinGroups) {
  // A 100x ratio means the model or trace is broken: the fitted scale is
  // clamped to the profile's accepted ceiling instead of poisoning it.
  std::vector<CommObservation> observations;
  for (int i = 1; i <= 3; ++i) {
    const double p = 1e-4 * i;
    observations.push_back(Obs(LinkClass::kPcie3, CollectiveKind::kAllReduce,
                               int64_t{1} << 20, p, 100 * p));
  }
  // A single-sample group must not steer a coefficient.
  observations.push_back(Obs(LinkClass::kNvLink, CollectiveKind::kAllGather,
                             int64_t{1} << 10, 1e-4, 2e-4));
  auto profile = FitCalibrationProfile(observations);
  ASSERT_TRUE(profile.ok()) << profile.status();
  ASSERT_EQ(profile->groups.size(), 1u);
  EXPECT_DOUBLE_EQ(profile->groups[0].scale, kMaxCalibrationScale);

  // When NO group survives min_group_samples, the fit is an error, not an
  // empty profile pretending to be calibrated.
  std::vector<CommObservation> thin = {
      Obs(LinkClass::kPcie3, CollectiveKind::kAllReduce, 1 << 20, 1e-4, 2e-4)};
  EXPECT_FALSE(FitCalibrationProfile(thin).ok());
  EXPECT_FALSE(FitCalibrationProfile({}).ok());
}

TEST(ProfileTest, CommScalePrefersExactThenNearestBucket) {
  CalibrationProfile profile;
  CalibrationGroup near;
  near.link_class = LinkClass::kPcie3;
  near.kind = CollectiveKind::kAllReduce;
  near.bucket = 10;
  near.scale = 2.0;
  CalibrationGroup far = near;
  far.bucket = 20;
  far.scale = 4.0;
  profile.groups = {near, far};
  ASSERT_TRUE(profile.Validate().ok());

  auto scale_at = [&](int bucket) {
    return profile.CommScale(LinkClass::kPcie3, CollectiveKind::kAllReduce,
                             int64_t{1} << bucket);
  };
  EXPECT_DOUBLE_EQ(scale_at(10), 2.0);  // exact
  EXPECT_DOUBLE_EQ(scale_at(20), 4.0);  // exact
  EXPECT_DOUBLE_EQ(scale_at(12), 2.0);  // nearest below
  EXPECT_DOUBLE_EQ(scale_at(15), 2.0);  // tie resolves to the smaller bucket
  EXPECT_DOUBLE_EQ(scale_at(16), 4.0);  // nearest above
  EXPECT_DOUBLE_EQ(scale_at(40), 4.0);  // extrapolates from the edge
  // A (link, kind) pair with no fitted group stays at the analytic model.
  EXPECT_DOUBLE_EQ(profile.CommScale(LinkClass::kPcie3,
                                     CollectiveKind::kAllGather, 1 << 10),
                   1.0);
  EXPECT_DOUBLE_EQ(profile.CommScale(LinkClass::kNvLink,
                                     CollectiveKind::kAllReduce, 1 << 10),
                   1.0);
}

TEST(ProfileTest, JsonRoundTripIsBitExactOverHostileFloats) {
  // Property test: any VALID profile — including boundary scales one ulp
  // inside the clamp range, denormal residuals and huge sample counts —
  // serializes to canonical JSON that reparses to the same document
  // byte-for-byte and the same fields bit-for-bit.
  Rng rng(0x5ca1ab1eULL);
  const double hostile_scales[] = {
      kMinCalibrationScale,
      kMaxCalibrationScale,
      std::nextafter(kMinCalibrationScale, 1.0),
      std::nextafter(kMaxCalibrationScale, 1.0),
      1.0,
      1.0 + 1e-16,
  };
  const double hostile_residuals[] = {
      0.0, std::numeric_limits<double>::denorm_min(), 0.25,
      std::numeric_limits<double>::max()};
  const double hostile_overlaps[] = {
      0.0, kMinOverlapSlowdown, kMaxOverlapSlowdown,
      std::nextafter(kMinOverlapSlowdown, 2.0), 1.3};
  for (int iteration = 0; iteration < 200; ++iteration) {
    CalibrationProfile profile;
    profile.fitted_events = static_cast<int64_t>(
        rng.NextBelow(uint64_t{1} << 62));
    profile.overlap_slowdown = hostile_overlaps[rng.NextBelow(5)];
    const int num_groups = static_cast<int>(rng.NextBelow(12));
    for (int g = 0; g < num_groups; ++g) {
      CalibrationGroup group;
      group.link_class = static_cast<LinkClass>(rng.NextBelow(4));
      group.kind = static_cast<CollectiveKind>(rng.NextBelow(5));
      group.bucket = static_cast<int>(rng.NextBelow(63));
      group.scale = rng.NextBelow(2) == 0
                        ? hostile_scales[rng.NextBelow(6)]
                        : std::exp2(rng.NextDouble(-4.0, 4.0));
      group.sample_count =
          static_cast<int64_t>(rng.NextBelow(uint64_t{1} << 62));
      group.rel_residual = hostile_residuals[rng.NextBelow(4)];
      profile.groups.push_back(group);
    }
    // Dedup keys: Validate rejects duplicates by design.
    if (!profile.Validate().ok()) continue;

    const std::string json = CalibrationProfileToJson(profile);
    auto parsed = ParseCalibrationProfileJson(json);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << json;
    EXPECT_EQ(CalibrationProfileToJson(*parsed), json);
    EXPECT_EQ(parsed->version, profile.version);
    EXPECT_EQ(parsed->fitted_events, profile.fitted_events);
    EXPECT_EQ(parsed->overlap_slowdown, profile.overlap_slowdown);
    ASSERT_EQ(parsed->groups.size(), profile.groups.size());
    for (size_t g = 0; g < profile.groups.size(); ++g) {
      EXPECT_EQ(parsed->groups[g].link_class, profile.groups[g].link_class);
      EXPECT_EQ(parsed->groups[g].kind, profile.groups[g].kind);
      EXPECT_EQ(parsed->groups[g].bucket, profile.groups[g].bucket);
      EXPECT_EQ(parsed->groups[g].scale, profile.groups[g].scale);
      EXPECT_EQ(parsed->groups[g].sample_count,
                profile.groups[g].sample_count);
      EXPECT_EQ(parsed->groups[g].rel_residual,
                profile.groups[g].rel_residual);
    }
  }
}

TEST(ProfileTest, ParseRejectsHostileDocuments) {
  const char* kGoodGroup =
      "{\"bucket\": 20, \"kind\": \"AllReduce\", \"link\": \"PCIe3\", "
      "\"rel_residual\": 0.1, \"samples\": 8, \"scale\": 1.5}";
  auto doc = [&](const std::string& version, const std::string& format,
                 const std::string& overlap, const std::string& groups) {
    return "{\"fitted_events\": 8, \"format\": \"" + format +
           "\", \"groups\": [" + groups + "], \"overlap_slowdown\": " +
           overlap + ", \"version\": " + version + "}";
  };
  // The well-formed control parses.
  ASSERT_TRUE(ParseCalibrationProfileJson(
                  doc("1", "galvatron-calibration", "1.3", kGoodGroup))
                  .ok());

  const std::string bad_docs[] = {
      "not json at all",
      "[1, 2, 3]",
      doc("1", "someone-elses-profile", "1.3", kGoodGroup),
      doc("2", "galvatron-calibration", "1.3", kGoodGroup),  // future version
      doc("1", "galvatron-calibration", "0.5", kGoodGroup),  // overlap < 1
      doc("1", "galvatron-calibration", "9.0", kGoodGroup),  // overlap > 8
      // Out-of-range scales (both sides of the clamp).
      doc("1", "galvatron-calibration", "0",
          "{\"bucket\": 20, \"kind\": \"AllReduce\", \"link\": \"PCIe3\", "
          "\"rel_residual\": 0, \"samples\": 8, \"scale\": 100.0}"),
      doc("1", "galvatron-calibration", "0",
          "{\"bucket\": 20, \"kind\": \"AllReduce\", \"link\": \"PCIe3\", "
          "\"rel_residual\": 0, \"samples\": 8, \"scale\": 0.01}"),
      // Duplicate group key.
      doc("1", "galvatron-calibration", "0",
          std::string(kGoodGroup) + ", " + kGoodGroup),
      // Unknown link / kind names, bucket out of range, negative residual.
      doc("1", "galvatron-calibration", "0",
          "{\"bucket\": 20, \"kind\": \"AllReduce\", \"link\": \"Carrier"
          "Pigeon\", \"rel_residual\": 0, \"samples\": 8, \"scale\": 1.5}"),
      doc("1", "galvatron-calibration", "0",
          "{\"bucket\": 20, \"kind\": \"Gossip\", \"link\": \"PCIe3\", "
          "\"rel_residual\": 0, \"samples\": 8, \"scale\": 1.5}"),
      doc("1", "galvatron-calibration", "0",
          "{\"bucket\": 63, \"kind\": \"AllReduce\", \"link\": \"PCIe3\", "
          "\"rel_residual\": 0, \"samples\": 8, \"scale\": 1.5}"),
      doc("1", "galvatron-calibration", "0",
          "{\"bucket\": 20, \"kind\": \"AllReduce\", \"link\": \"PCIe3\", "
          "\"rel_residual\": -1.0, \"samples\": 8, \"scale\": 1.5}"),
  };
  for (const std::string& bad : bad_docs) {
    EXPECT_FALSE(ParseCalibrationProfileJson(bad).ok()) << bad;
  }
}

// ---------------------------------------------------------------------------
// Estimator integration.

class CalibratedEstimatorTest : public ::testing::Test {
 protected:
  CalibratedEstimatorTest()
      : cluster_(MakeTitanNode8(16 * kGB)),
        bert_(BuildModel(ModelId::kBertHuge32)) {}

  TrainingPlan TwoStagePlan(const ModelSpec& model, int num_devices) {
    auto sizes = PartitionPipeline(model, 2, PartitionPolicy::kFlops);
    EXPECT_TRUE(sizes.ok()) << sizes.status();
    auto plan = MakeUniformPlan(
        model, num_devices, 2, *sizes,
        Make({{ParallelDim::kTensor, 2},
              {ParallelDim::kData, num_devices / 4}}),
        16, 4);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return *std::move(plan);
  }

  ClusterSpec cluster_;
  ModelSpec bert_;
};

void ExpectIdenticalCosts(const PlanCost& a, const PlanCost& b) {
  EXPECT_EQ(a.iteration_seconds, b.iteration_seconds);
  EXPECT_EQ(a.throughput_samples_per_sec, b.throughput_samples_per_sec);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (size_t s = 0; s < a.stages.size(); ++s) {
    EXPECT_EQ(a.stages[s].seconds, b.stages[s].seconds);
    EXPECT_EQ(a.stages[s].peak_memory_bytes, b.stages[s].peak_memory_bytes);
  }
}

TEST_F(CalibratedEstimatorTest, AbsentEmptyAndIdentityProfilesAreByteIdentical) {
  const TrainingPlan plan = TwoStagePlan(bert_, 8);

  CostEstimator analytic(&cluster_);
  auto base = analytic.EstimatePlan(bert_, plan);
  ASSERT_TRUE(base.ok()) << base.status();

  CalibrationProfile empty;
  ASSERT_TRUE(empty.empty());
  EstimatorOptions with_empty;
  with_empty.calibration = &empty;
  CostEstimator empty_estimator(&cluster_, with_empty);
  auto via_empty = empty_estimator.EstimatePlan(bert_, plan);
  ASSERT_TRUE(via_empty.ok());
  ExpectIdenticalCosts(*base, *via_empty);

  // Scale-1.0 groups multiply by exactly 1.0 — still byte-identical.
  CalibrationProfile identity;
  for (int bucket : {10, 20, 26}) {
    CalibrationGroup group;
    group.link_class = LinkClass::kPcie3;
    group.kind = CollectiveKind::kAllReduce;
    group.bucket = bucket;
    group.scale = 1.0;
    identity.groups.push_back(group);
  }
  ASSERT_TRUE(identity.Validate().ok());
  EstimatorOptions with_identity;
  with_identity.calibration = &identity;
  CostEstimator identity_estimator(&cluster_, with_identity);
  auto via_identity = identity_estimator.EstimatePlan(bert_, plan);
  ASSERT_TRUE(via_identity.ok());
  ExpectIdenticalCosts(*base, *via_identity);
}

TEST_F(CalibratedEstimatorTest, FittedScaleMovesCommCostsTheRightWay) {
  const TrainingPlan plan = TwoStagePlan(bert_, 8);
  CostEstimator analytic(&cluster_);
  auto base = analytic.EstimatePlan(bert_, plan);
  ASSERT_TRUE(base.ok());

  // One group per (PCIe3, kind) is enough: CommScale generalizes it to
  // every bucket of that pair via the nearest-bucket fallback.
  CalibrationProfile slow;
  for (CollectiveKind kind :
       {CollectiveKind::kAllReduce, CollectiveKind::kAllGather,
        CollectiveKind::kReduceScatter, CollectiveKind::kBroadcast,
        CollectiveKind::kPointToPoint}) {
    CalibrationGroup group;
    group.link_class = LinkClass::kPcie3;
    group.kind = kind;
    group.bucket = 20;
    group.scale = 2.0;
    slow.groups.push_back(group);
  }
  ASSERT_TRUE(slow.Validate().ok());
  EstimatorOptions options;
  options.calibration = &slow;
  CostEstimator calibrated(&cluster_, options);
  auto scaled = calibrated.EstimatePlan(bert_, plan);
  ASSERT_TRUE(scaled.ok());
  // Every comm second doubled; compute did not: strictly slower, less than
  // 2x overall.
  EXPECT_GT(scaled->iteration_seconds, base->iteration_seconds);
  EXPECT_LT(scaled->iteration_seconds, 2.0 * base->iteration_seconds);
  // Memory is not calibration's business.
  ASSERT_EQ(scaled->stages.size(), base->stages.size());
  for (size_t s = 0; s < base->stages.size(); ++s) {
    EXPECT_EQ(scaled->stages[s].peak_memory_bytes,
              base->stages[s].peak_memory_bytes);
  }
}

TEST_F(CalibratedEstimatorTest, ProfileOverlapSlowdownOverridesOptions) {
  CalibrationProfile profile;
  profile.overlap_slowdown = 2.5;
  ASSERT_TRUE(profile.Validate().ok());
  EstimatorOptions options;
  options.overlap_slowdown = 1.3;
  options.calibration = &profile;
  CostEstimator estimator(&cluster_, options);
  EXPECT_DOUBLE_EQ(estimator.effective_options().overlap_slowdown, 2.5);
  // The configured options are preserved verbatim for introspection.
  EXPECT_DOUBLE_EQ(estimator.options().overlap_slowdown, 1.3);

  // An unset (0) profile slowdown keeps the configured value.
  CalibrationProfile unset;
  CostEstimator untouched(
      &cluster_, {.overlap_slowdown = 1.3, .calibration = &unset});
  EXPECT_DOUBLE_EQ(untouched.effective_options().overlap_slowdown, 1.3);
}

// Satellite regression: MakeTitanCluster16's bandwidths are monotone
// non-increasing outward, so its mirror TopologyGraph prices every
// collective identically to the level rules. A profile fitted from a trace
// recorded on the MIRROR cluster must therefore apply byte-identically on
// the level-priced twin — calibration keys on stable LinkClass, not on
// which topology representation produced the trace.
TEST_F(CalibratedEstimatorTest, MirrorFittedProfileAppliesIdenticallyOnLevelTwin) {
  ClusterSpec level = MakeTitanCluster16(16 * kGB);
  auto graph = MakeMirrorTopology(level);
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto mirror = level.WithTopology(
      std::make_shared<TopologyGraph>(*std::move(graph)));
  ASSERT_TRUE(mirror.ok()) << mirror.status();

  const TrainingPlan plan = TwoStagePlan(bert_, 16);

  // Record the calibration trace on the mirror cluster.
  SimOptions sim_options;
  sim_options.record_trace = true;
  Simulator sim(&*mirror, sim_options);
  SimTrace sim_trace;
  auto metrics = sim.Run(bert_, plan, &sim_trace);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  auto exec = trace::RecordTrace(sim_trace);
  ASSERT_TRUE(exec.ok()) << exec.status();
  auto profile = CalibrateFromTraces({*exec});
  ASSERT_TRUE(profile.ok()) << profile.status();
  EXPECT_FALSE(profile->groups.empty());

  EstimatorOptions options;
  options.calibration = &*profile;
  CostEstimator on_level(&level, options);
  CostEstimator on_mirror(&*mirror, options);
  auto level_cost = on_level.EstimatePlan(bert_, plan);
  auto mirror_cost = on_mirror.EstimatePlan(bert_, plan);
  ASSERT_TRUE(level_cost.ok()) << level_cost.status();
  ASSERT_TRUE(mirror_cost.ok()) << mirror_cost.status();
  ExpectIdenticalCosts(*level_cost, *mirror_cost);

  // And the profile genuinely changed something vs the analytic model
  // (the simulator's jitter guarantees measured != predicted).
  CostEstimator analytic(&level);
  auto base = analytic.EstimatePlan(bert_, plan);
  ASSERT_TRUE(base.ok());
  EXPECT_NE(level_cost->iteration_seconds, base->iteration_seconds);
}

// ---------------------------------------------------------------------------
// Trace ingestion.

TEST_F(CalibratedEstimatorTest, ExtractObservationsCoversEveryCommTask) {
  const TrainingPlan plan = TwoStagePlan(bert_, 8);
  SimOptions sim_options;
  sim_options.record_trace = true;
  Simulator sim(&cluster_, sim_options);
  SimTrace sim_trace;
  auto metrics = sim.Run(bert_, plan, &sim_trace);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  auto exec = trace::RecordTrace(sim_trace);
  ASSERT_TRUE(exec.ok()) << exec.status();

  const std::vector<CommObservation> observations =
      ExtractObservations(*exec);
  ASSERT_FALSE(observations.empty());
  for (const CommObservation& o : observations) {
    EXPECT_GE(o.group_size, 2);
    EXPECT_GT(o.predicted_sec, 0.0);
    EXPECT_GT(o.measured_sec, 0.0);
    EXPECT_GT(o.bytes, 0);
  }
  const double overlap = EstimateOverlapSlowdown(*exec);
  EXPECT_TRUE(overlap == 0.0 || (overlap >= kMinOverlapSlowdown &&
                                 overlap <= kMaxOverlapSlowdown));

  // The attribution export carries the same samples, and the offline
  // parser reads them back 1:1.
  auto report = trace::Analyze(*exec);
  ASSERT_TRUE(report.ok()) << report.status();
  const std::string json = trace::ToAttributionJson(*exec, *report);
  auto samples = ParseAttributionSamples(json);
  ASSERT_TRUE(samples.ok()) << samples.status();
  ASSERT_EQ(samples->observations.size(), observations.size());
  for (size_t i = 0; i < observations.size(); ++i) {
    EXPECT_EQ(samples->observations[i].link_class,
              observations[i].link_class);
    EXPECT_EQ(samples->observations[i].kind, observations[i].kind);
    EXPECT_EQ(samples->observations[i].bytes, observations[i].bytes);
  }

  // Pre-calibration reports (no comm_samples) are told to re-record, not
  // silently treated as sample-free.
  EXPECT_FALSE(ParseAttributionSamples("{\"categories\": {}}").ok());
  EXPECT_FALSE(ParseAttributionSamples("garbage").ok());
}

TEST(FitTest, WrappedSampleRingFitsLikeTheFrontTrimmedBuffer) {
  // The serving daemon's sample buffer is a ring that overwrites its oldest
  // observation once full. Fed the same measure batches, its oldest-first
  // snapshot must equal the vector the daemon used to keep (append, then
  // erase from the front down to the capacity), so fitted profiles stay
  // byte-identical.
  constexpr size_t kCapacity = 97;  // batches straddle the wrap point
  RingBuffer<CommObservation> ring(kCapacity);
  std::vector<CommObservation> trimmed;
  Rng rng(41);
  const LinkClass links[] = {LinkClass::kPcie3, LinkClass::kInfiniBand100};
  const CollectiveKind kinds[] = {CollectiveKind::kAllReduce,
                                  CollectiveKind::kAllGather};
  size_t pushed = 0;
  for (int batch = 0; batch < 40; ++batch) {
    std::vector<CommObservation> observations;
    const int count = 1 + static_cast<int>(rng.NextBelow(20));
    for (int i = 0; i < count; ++i) {
      const double predicted = rng.NextDouble(1e-5, 1e-3);
      observations.push_back(
          Obs(links[rng.NextBelow(2)], kinds[rng.NextBelow(2)],
              int64_t{1} << (16 + rng.NextBelow(6)), predicted,
              predicted * rng.NextDouble(0.5, 2.0)));
    }
    trimmed.insert(trimmed.end(), observations.begin(), observations.end());
    if (trimmed.size() > kCapacity) {
      trimmed.erase(trimmed.begin(), trimmed.end() - kCapacity);
    }
    for (const CommObservation& observation : observations) {
      ring.Push(observation);
    }
    pushed += observations.size();
  }
  ASSERT_GT(pushed, 3 * kCapacity);  // wrapped several times
  const std::vector<CommObservation> snapshot = ring.Snapshot();
  ASSERT_EQ(snapshot.size(), trimmed.size());
  for (size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].bytes, trimmed[i].bytes) << i;
    EXPECT_EQ(snapshot[i].predicted_sec, trimmed[i].predicted_sec) << i;
    EXPECT_EQ(snapshot[i].measured_sec, trimmed[i].measured_sec) << i;
  }
  auto from_ring = FitCalibrationProfile(snapshot, 1.2);
  auto from_trim = FitCalibrationProfile(trimmed, 1.2);
  ASSERT_TRUE(from_ring.ok()) << from_ring.status();
  ASSERT_TRUE(from_trim.ok()) << from_trim.status();
  EXPECT_EQ(CalibrationProfileToJson(*from_ring),
            CalibrationProfileToJson(*from_trim));
}

}  // namespace
}  // namespace calibrate
}  // namespace galvatron
