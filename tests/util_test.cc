#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/math_util.h"
#include "util/result.h"
#include "util/ring_buffer.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace galvatron {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::OutOfMemory("layer 3 exceeds budget");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsOutOfMemory());
  EXPECT_EQ(s.message(), "layer 3 exceeds budget");
  EXPECT_EQ(s.ToString(), "OutOfMemory: layer 3 exceeds budget");
}

TEST(StatusTest, CopyPreservesError) {
  Status s = Status::Infeasible("no plan");
  Status t = s;
  EXPECT_TRUE(t.IsInfeasible());
  EXPECT_EQ(t.message(), "no plan");
  // The original is unaffected.
  EXPECT_TRUE(s.IsInfeasible());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfMemory, StatusCode::kFailedPrecondition,
        StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kInfeasible}) {
    EXPECT_NE(StatusCodeToString(code), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> Doubled(int x) {
  GALVATRON_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return 2 * v;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 21);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(4), 8);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(MathTest, IsPowerOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(-4));
  EXPECT_FALSE(IsPowerOfTwo(6));
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
  EXPECT_EQ(CeilDiv(0, 5), 0);
}

TEST(MathTest, PowerOfTwoDivisors) {
  EXPECT_EQ(PowerOfTwoDivisors(8), (std::vector<int>{1, 2, 4, 8}));
  EXPECT_EQ(PowerOfTwoDivisors(12), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(PowerOfTwoDivisors(1), (std::vector<int>{1}));
}

TEST(MathTest, OrderedFactorizationsOf8UpTo3Parts) {
  // 8 = [8], [2,4], [4,2], [2,2,2] -> 4 ordered factorizations.
  auto f = OrderedFactorizations(8, 3);
  EXPECT_EQ(f.size(), 4u);
}

TEST(MathTest, OrderedFactorizationsRespectsMaxParts) {
  auto f = OrderedFactorizations(8, 2);
  // [8], [2,4], [4,2]
  EXPECT_EQ(f.size(), 3u);
}

TEST(MathTest, OrderedFactorizationsOfOneIsEmpty) {
  EXPECT_TRUE(OrderedFactorizations(1, 3).empty());
}

TEST(MathTest, OrderedFactorizationsProductInvariant) {
  for (int n : {4, 8, 16, 32, 64}) {
    for (const auto& parts : OrderedFactorizations(n, 3)) {
      int prod = 1;
      for (int p : parts) {
        EXPECT_GE(p, 2);
        prod *= p;
      }
      EXPECT_EQ(prod, n);
    }
  }
}

TEST(MathTest, RelativeError) {
  EXPECT_DOUBLE_EQ(RelativeError(110, 100), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(90, 100), 0.1);
  EXPECT_GT(RelativeError(1, 0), 0.0);  // eps guard, no division by zero
}

TEST(StringTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
}

TEST(StringTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.00B");
  EXPECT_EQ(HumanBytes(1536), "1.50KB");
  EXPECT_EQ(HumanBytes(3.0 * (1 << 30)), "3.00GB");
}

TEST(StringTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"x"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("| x |"), std::string::npos);
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, HashToUnitIsStable) {
  EXPECT_DOUBLE_EQ(Rng::HashToUnit(123), Rng::HashToUnit(123));
  EXPECT_NE(Rng::HashToUnit(123), Rng::HashToUnit(124));
}

TEST(RngTest, SplitIndependent) {
  Rng a(1);
  Rng b = a.Split();
  // Streams diverge.
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(RingBufferTest, KeepsTheNewestCapacityElementsOldestFirst) {
  RingBuffer<int> ring(3);
  EXPECT_TRUE(ring.empty());
  ring.Push(1);
  ring.Push(2);
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{1, 2}));
  for (int i = 3; i <= 7; ++i) ring.Push(i);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{5, 6, 7}));
  ring.Clear();
  EXPECT_TRUE(ring.empty());
  ring.Push(8);
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{8}));
}

TEST(RingBufferTest, ZeroCapacityDropsEverything) {
  RingBuffer<int> ring(0);
  ring.Push(1);
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.Snapshot().empty());
}

}  // namespace
}  // namespace galvatron
