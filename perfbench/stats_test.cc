// Tests of perfbench's own statistics on synthetic inputs.

#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneToN(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = OneToN(100);
  EXPECT_EQ(Percentile(v, 0.50), 50);
  EXPECT_EQ(Percentile(v, 0.90), 90);
  EXPECT_EQ(Percentile(v, 0.99), 99);
  EXPECT_EQ(Percentile(v, 1.00), 100);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  // Rank ceil(0.5 * 5) = 3.
  EXPECT_EQ(Percentile({5, 1, 4, 2, 3}, 0.5), 3);
}

TEST(PercentileTest, PublishesOnlyWithTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 0.90), 10);
  EXPECT_TRUE(Publishable(100, 0.90));
  EXPECT_FALSE(Publishable(99, 0.90));
  EXPECT_TRUE(Publishable(1000, 0.99));
  EXPECT_FALSE(Publishable(999, 0.99));
  EXPECT_TRUE(Publishable(20, 0.50));
  EXPECT_FALSE(Publishable(19, 0.50));
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0);
}

TEST(PercentileTest, SummaryCarriesCount) {
  const Summary s = Summarize(OneToN(200));
  EXPECT_EQ(s.n, 200);
  EXPECT_DOUBLE_EQ(s.mean, 100.5);
  EXPECT_EQ(s.p50, 100);
  EXPECT_EQ(s.p90, 180);
  EXPECT_EQ(s.p99, 198);
}

LadderStep Step(double rate, double hit_p99, double warm_p99) {
  LadderStep step;
  step.rate = rate;
  step.attempted = 1000;
  step.p99_ms = {{"hit", hit_p99}, {"warm", warm_p99}};
  return step;
}

SloLimits Limits() {
  SloLimits limits;
  limits.p99_ms = {{"hit", 5.0}, {"warm", 50.0}};
  return limits;
}

TEST(MaxRateTest, HighestPassingStep) {
  const std::vector<LadderStep> steps = {
      Step(100, 1, 10), Step(200, 2, 20), Step(400, 6, 20), Step(800, 9, 90)};
  EXPECT_EQ(MaxRateAtSlo(steps, Limits()), 200);
}

TEST(MaxRateTest, EachClassHasItsOwnLimit) {
  // Warm at 60 ms fails its 50 ms limit even though hit passes.
  EXPECT_EQ(MaxRateAtSlo({Step(100, 1, 10), Step(200, 1, 60)}, Limits()), 100);
}

TEST(MaxRateTest, OneStalledStepDoesNotCapTheResult) {
  EXPECT_EQ(MaxRateAtSlo({Step(100, 1, 10), Step(200, 7, 10),
                          Step(400, 2, 20)},
                         Limits()),
            400);
}

TEST(MaxRateTest, FailedRequestsMissTheSlo) {
  LadderStep step = Step(300, 1, 1);
  step.failed = 1;
  EXPECT_EQ(MaxRateAtSlo({Step(100, 1, 1), step}, Limits()), 100);
  EXPECT_NE(SloViolation(step, Limits()).find("failed"), std::string::npos);
}

TEST(MaxRateTest, GrowingBacklogMissesTheSlo) {
  LadderStep step = Step(300, 1, 1);
  step.backlog_at_end = 20;  // 2% of 1000 is the limit
  EXPECT_TRUE(SloViolation(step, Limits()).empty());
  step.backlog_at_end = 21;
  EXPECT_NE(SloViolation(step, Limits()).find("backlog"), std::string::npos);
  EXPECT_EQ(MaxRateAtSlo({Step(100, 1, 1), step}, Limits()), 100);
}

TEST(MaxRateTest, LateGeneratorMissesTheSlo) {
  LadderStep step = Step(300, 1, 1);
  step.lag_p99_ms = 2.5;
  EXPECT_NE(SloViolation(step, Limits()).find("late"), std::string::npos);
  EXPECT_EQ(MaxRateAtSlo({Step(100, 1, 1), step}, Limits()), 100);
}

TEST(MaxRateTest, NothingPasses) {
  EXPECT_EQ(MaxRateAtSlo({Step(100, 9, 1)}, Limits()), 0);
  EXPECT_EQ(MaxRateAtSlo({}, Limits()), 0);
  LadderStep empty;
  EXPECT_EQ(SloViolation(empty, Limits()), "no requests");
}

TEST(SelfTimeTest, NestedChildren) {
  // root [0,100) with child a [10,40) and child b [50,70); a has child
  // c [20,30).
  const std::vector<Span> spans = {{"root", 0, 100, -1},
                                   {"a", 10, 40, 0},
                                   {"b", 50, 70, 0},
                                   {"c", 20, 30, 1}};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 10);
  // Self times of a properly nested tree tile the root.
  EXPECT_EQ(self[0] + self[1] + self[2] + self[3], 100);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // Two concurrent requests under one load step cover [10,60) together.
  const std::vector<Span> spans = {
      {"step", 0, 100, -1}, {"req", 10, 50, 0}, {"req", 30, 60, 0}};
  EXPECT_EQ(SelfTimesNs(spans)[0], 50);
}

TEST(SelfTimeTest, ChildrenClippedToParent) {
  const std::vector<Span> spans = {{"p", 10, 20, -1}, {"c", 0, 15, 0}};
  EXPECT_EQ(SelfTimesNs(spans)[0], 5);
}

TEST(SelfTimeTest, TotalsByName) {
  const std::vector<Span> spans = {
      {"step", 0, 100, -1}, {"req", 10, 50, 0}, {"req", 30, 60, 0}};
  const auto totals = TotalsByName(spans);
  EXPECT_EQ(totals.at("req").count, 2);
  EXPECT_EQ(totals.at("req").total_ns, 70);
  EXPECT_EQ(totals.at("req").self_ns, 70);
  EXPECT_EQ(totals.at("step").self_ns, 50);
}

}  // namespace
}  // namespace perfbench
