/// Bound-and-prune sweep tests (docs/parallel_search.md, "Bound-and-prune
/// sweep"). Both are multi-threaded, whole-zoo-model sweeps, so ctest runs
/// this executable on its own (RUN_SERIAL) rather than beside the
/// timing-based perf tripwires.
///
/// Golden sweep outputs: the winner, every per-degree alternate and the
/// exact (%a) estimated throughput of Optimizer::Optimize for the eight zoo
/// models that fit a Titan node, on Titan-8 at three memory budgets, at one
/// and four search threads. The golden file was recorded from the
/// exhaustive sweep that ran every configuration's DP; the bound-and-prune
/// sweep must reproduce it byte for byte (docs/parallel_search.md,
/// "Bound-and-prune sweep").
///
/// On a mismatch the test prints the rendering it computed, so an
/// intentional cost-model change can refresh the file from the log.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cluster/cluster.h"
#include "ir/model.h"
#include "ir/model_zoo.h"
#include "search/optimizer.h"

namespace galvatron {
namespace {

const ModelId kGoldenModels[] = {
    ModelId::kBertHuge32, ModelId::kBertHuge48, ModelId::kViTHuge32,
    ModelId::kViTHuge48,  ModelId::kT5Large32,  ModelId::kT5Large48,
    ModelId::kSwinHuge32, ModelId::kSwinHuge48,
};
const int kGoldenBudgetsGb[] = {8, 12, 16};

std::string HexDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

/// One instance's block: a header line, then the winner, its throughput
/// and the alternates, or the error status.
std::string RenderInstance(ModelId id, int budget_gb, int threads) {
  const ModelSpec model = BuildModel(id);
  const ClusterSpec cluster = MakeTitanNode8(budget_gb * kGB);
  OptimizerOptions options;
  options.search_threads = threads;
  auto result = Optimizer(&cluster, options).Optimize(model);
  std::ostringstream os;
  os << "== " << ModelIdToString(id) << " titan8 " << budget_gb << "GB t"
     << threads << "\n";
  if (!result.ok()) {
    os << "status " << result.status().ToString() << "\n";
    return os.str();
  }
  os << "winner " << result->plan.ToString();
  os << "throughput " << HexDouble(result->estimated.throughput_samples_per_sec)
     << "\n";
  for (const TrainingPlan& alternate : result->alternates) {
    os << "alternate " << alternate.ToString();
  }
  return os.str();
}

TEST(SweepGoldenTest, WinnersAndAlternatesMatchTheExhaustiveSweep) {
  const std::string path =
      std::string(GALVATRON_GOLDEN_DIR) + "/sweep_titan8.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream golden;
  golden << in.rdbuf();

  std::string rendered;
  for (const int threads : {1, 4}) {
    for (const ModelId id : kGoldenModels) {
      for (const int gb : kGoldenBudgetsGb) {
        const std::string block = RenderInstance(id, gb, threads);
        // Locate this instance's block in the golden file for a focused
        // failure message; the whole-file comparison below is the gate.
        const std::string header = block.substr(0, block.find('\n') + 1);
        const size_t at = golden.str().find(header);
        EXPECT_NE(at, std::string::npos) << "no golden block " << header;
        if (at != std::string::npos) {
          EXPECT_EQ(golden.str().compare(at, block.size(), block), 0)
              << "golden mismatch; computed:\n"
              << block;
        }
        rendered += block;
      }
    }
  }
  EXPECT_EQ(rendered, golden.str());
}

/// The refine phase of the bound-and-prune sweep runs per-stage DPs on the
/// pool while workers raise per-degree incumbents that other workers' bound
/// tests read. Racing workers may prune different configurations, but the
/// winner, every alternate and the throughput bits must match the serial
/// sweep. A cold 16-GPU zoo sweep gives the refine phase enough work to fan
/// out (it only leaves the caller's thread past ~1 ms of predicted work);
/// under `ctest -L tsan` this is the data-race smoke of that phase.
TEST(ParallelOptimizerTest, ParallelRefineMatchesSerialSweep) {
  const ClusterSpec cluster = MakeTitanCluster16(16 * kGB);
  const ModelSpec model = BuildModel(ModelId::kViTHuge32);
  OptimizerOptions serial_options;
  serial_options.search_threads = 1;
  auto serial = Optimizer(&cluster, serial_options).Optimize(model);
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_GT(serial->stats.configs_pruned, 0);
  EXPECT_LT(serial->stats.configs_pruned, serial->stats.configs_explored);

  OptimizerOptions parallel_options;
  parallel_options.search_threads = 4;
  auto parallel = Optimizer(&cluster, parallel_options).Optimize(model);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(parallel->plan.ToString(), serial->plan.ToString());
  EXPECT_EQ(parallel->estimated.throughput_samples_per_sec,
            serial->estimated.throughput_samples_per_sec);
  ASSERT_EQ(parallel->alternates.size(), serial->alternates.size());
  for (size_t i = 0; i < serial->alternates.size(); ++i) {
    EXPECT_EQ(parallel->alternates[i].ToString(),
              serial->alternates[i].ToString());
  }
  EXPECT_EQ(parallel->stats.configs_explored,
            serial->stats.configs_explored);
}

}  // namespace
}  // namespace galvatron
