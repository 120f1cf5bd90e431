// Base utilities: Status/StatusOr, the append-only table, RNG determinism,
// Zipfian skew, histogram percentiles.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/base/append_table.h"
#include "src/base/histogram.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/zipf.h"

namespace kflex {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_NE(s.ToString().find("INVALID_ARGUMENT"), std::string::npos);
}

TEST(Status, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ResourceExhausted("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(VerificationFailed("x").code(), StatusCode::kVerificationFailed);
  EXPECT_EQ(FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = NotFound("gone");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOr, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> out = std::move(v).value();
  EXPECT_EQ(*out, 7);
}

TEST(AppendTable, DenseIndicesAndEntriesNeverMove) {
  AppendTable<int> table;
  EXPECT_EQ(table.Get(0), nullptr);
  std::vector<int*> seen;
  for (int i = 0; i < 1000; i++) {  // crosses nine chunk boundaries
    auto entry = std::make_unique<int>(i);
    seen.push_back(entry.get());
    EXPECT_EQ(table.Append(std::move(entry)), static_cast<size_t>(i));
  }
  EXPECT_EQ(table.size(), 1000u);
  for (size_t i = 0; i < seen.size(); i++) {
    ASSERT_EQ(table.Get(i), seen[i]);
    EXPECT_EQ(*table.Get(i), static_cast<int>(i));
  }
  EXPECT_EQ(table.Get(1000), nullptr);
}

TEST(AppendTable, AppendWithSeesItsIndexAndAppendsNothingOnError) {
  AppendTable<size_t> table;
  table.Append(std::make_unique<size_t>(0));
  StatusOr<size_t> refused =
      table.AppendWith([](size_t) -> StatusOr<std::unique_ptr<size_t>> {
        return ResourceExhausted("full");
      });
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(table.size(), 1u);
  StatusOr<size_t> index =
      table.AppendWith([](size_t next) -> StatusOr<std::unique_ptr<size_t>> {
        return std::make_unique<size_t>(next);
      });
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*index, 1u);
  EXPECT_EQ(*table.Get(1), 1u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; i++) {
    if (a.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; i++) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Zipf, StaysInRange) {
  Rng rng(1);
  ZipfGenerator zipf(1000, 0.99);
  for (int i = 0; i < 20000; i++) {
    EXPECT_LT(zipf.Next(rng), 1000u);
  }
}

TEST(Zipf, IsSkewedTowardLowRanks) {
  Rng rng(2);
  ZipfGenerator zipf(10000, 0.99);
  std::map<uint64_t, int> counts;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; i++) {
    counts[zipf.Next(rng)]++;
  }
  // Rank 0 must dominate; the top-10 ranks get a large share.
  int top10 = 0;
  for (uint64_t r = 0; r < 10; r++) {
    top10 += counts[r];
  }
  EXPECT_GT(counts[0], kSamples / 30);
  EXPECT_GT(top10, kSamples / 5);
}

TEST(Zipf, ThetaZeroIsRoughlyUniform) {
  Rng rng(3);
  ZipfGenerator zipf(100, 0.01);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; i++) {
    counts[zipf.Next(rng)]++;
  }
  EXPECT_LT(counts[0], 100000 / 20);  // nothing dominates hard
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.Record(1234);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1234u);
  EXPECT_EQ(h.max(), 1234u);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 1234.0, 1234.0 * 0.07);
}

TEST(Histogram, PercentilesOfUniformRange) {
  Histogram h;
  for (uint64_t v = 1; v <= 10000; v++) {
    h.Record(v);
  }
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 5000.0, 5000.0 * 0.08);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 9900.0, 9900.0 * 0.08);
  EXPECT_EQ(h.Percentile(1.0), 10000u);
  EXPECT_NEAR(h.Mean(), 5000.5, 1.0);
}

TEST(Histogram, MergeCombines) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 100; i++) {
    a.Record(10);
    b.Record(1000);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, LargeValuesBucketedApproximately) {
  Histogram h;
  uint64_t v = 123'456'789'012ULL;
  h.Record(v);
  uint64_t p = h.Percentile(0.5);
  EXPECT_GE(p, v - v / 10);
  EXPECT_LE(p, v);
}

TEST(Histogram, SummaryMentionsCount) {
  Histogram h;
  h.Record(1);
  h.Record(2);
  EXPECT_NE(h.Summary().find("count=2"), std::string::npos);
}

}  // namespace
}  // namespace kflex
