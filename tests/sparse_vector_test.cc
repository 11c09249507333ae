#include "util/sparse_vector.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "util/rng.h"

namespace qkbfly {
namespace {

SparseVector Make(std::initializer_list<std::pair<uint32_t, double>> entries) {
  SparseVector v;
  for (auto [id, val] : entries) v.Add(id, val);
  v.Finalize();
  return v;
}

TEST(SparseVectorTest, FinalizeSortsAndMerges) {
  SparseVector v;
  v.Add(5, 1.0);
  v.Add(2, 2.0);
  v.Add(5, 3.0);
  v.Finalize();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.entries()[0].id, 2u);
  EXPECT_DOUBLE_EQ(v.entries()[0].value, 2.0);
  EXPECT_EQ(v.entries()[1].id, 5u);
  EXPECT_DOUBLE_EQ(v.entries()[1].value, 4.0);
}

TEST(SparseVectorTest, FinalizeDropsZeros) {
  SparseVector v;
  v.Add(1, 1.0);
  v.Add(1, -1.0);
  v.Add(2, 3.0);
  v.Finalize();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v.entries()[0].id, 2u);
}

TEST(SparseVectorTest, SumAndNorm) {
  auto v = Make({{1, 3.0}, {2, 4.0}});
  EXPECT_DOUBLE_EQ(v.Sum(), 7.0);
  EXPECT_DOUBLE_EQ(v.Norm(), 5.0);
}

TEST(SparseVectorTest, Dot) {
  auto a = Make({{1, 2.0}, {3, 1.0}});
  auto b = Make({{1, 3.0}, {2, 10.0}});
  EXPECT_DOUBLE_EQ(Dot(a, b), 6.0);
}

TEST(SparseVectorTest, CosineOfIdenticalVectorsIsOne) {
  auto a = Make({{1, 2.0}, {3, 1.0}});
  EXPECT_NEAR(CosineSimilarity(a, a), 1.0, 1e-12);
}

TEST(SparseVectorTest, CosineOfDisjointVectorsIsZero) {
  auto a = Make({{1, 2.0}});
  auto b = Make({{2, 2.0}});
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
}

TEST(SparseVectorTest, CosineOfEmptyIsZero) {
  SparseVector empty;
  empty.Finalize();
  auto a = Make({{1, 1.0}});
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, empty), 0.0);
}

TEST(SparseVectorTest, WeightedOverlapMatchesPaperFormula) {
  // sim = sum min / min(sum_a, sum_b)
  auto a = Make({{1, 1.0}, {2, 2.0}});        // sum = 3
  auto b = Make({{2, 1.0}, {3, 5.0}});        // sum = 6
  // common dim 2: min(2,1)=1; denom = min(3,6)=3
  EXPECT_NEAR(WeightedOverlap(a, b), 1.0 / 3.0, 1e-12);
}

TEST(SparseVectorTest, WeightedOverlapOfSubsetIsOne) {
  auto a = Make({{1, 1.0}, {2, 1.0}});
  auto b = Make({{1, 1.0}, {2, 1.0}, {3, 9.0}});
  EXPECT_NEAR(WeightedOverlap(a, b), 1.0, 1e-12);
}

TEST(SparseVectorTest, WeightedOverlapEmptyIsZero) {
  SparseVector empty;
  empty.Finalize();
  auto a = Make({{1, 1.0}});
  EXPECT_DOUBLE_EQ(WeightedOverlap(a, empty), 0.0);
}

TEST(SparseVectorTest, SumIsCachedByFinalizeAndResetByClear) {
  SparseVector v;
  EXPECT_EQ(v.Sum(), 0.0);
  v.Add(3, 0.1);
  v.Add(1, 0.2);
  v.Add(3, 0.7);
  v.Finalize();
  // Summed in ascending id order after the merge: 0.2 + (0.1 + 0.7).
  EXPECT_EQ(v.Sum(), 0.2 + (0.1 + 0.7));
  v.Clear();
  EXPECT_EQ(v.Sum(), 0.0);
}

// A random finalized vector: `n` draws of ids below `universe`, so
// duplicate ids meet in Finalize; some values negative when `signed_values`.
SparseVector RandomVector(Rng& rng, int n, uint32_t universe,
                          bool signed_values) {
  SparseVector v;
  for (int k = 0; k < n; ++k) {
    double value = rng.NextDouble() * 4.0;
    if (signed_values && rng.NextBool(0.3)) value = -value;
    v.Add(static_cast<uint32_t>(rng.NextUint64(universe)), value);
  }
  v.Finalize();
  return v;
}

// The row kernel must produce the same bytes as the one-pair merge for
// every column, and leave its dense array all zero.
void ExpectRowMatchesPairs(const SparseVector& row,
                           const std::vector<SparseVector>& cols,
                           std::vector<double>* dense, const char* what) {
  std::vector<const SparseVector*> ptrs;
  for (const SparseVector& c : cols) ptrs.push_back(&c);
  std::vector<double> got(cols.size(), -1.0);
  WeightedOverlapRow(row, {ptrs.data(), ptrs.size()}, dense, got.data());
  for (size_t j = 0; j < cols.size(); ++j) {
    const double want = WeightedOverlap(row, cols[j]);
    EXPECT_EQ(std::memcmp(&got[j], &want, sizeof(double)), 0)
        << what << " column " << j << ": " << got[j] << " vs " << want;
  }
  for (double d : *dense) ASSERT_EQ(d, 0.0) << what;
}

TEST(SparseVectorTest, WeightedOverlapRowIsBitIdenticalToPairs) {
  Rng rng(97);
  std::vector<double> dense;  // shared across rows, as the densifier does
  for (int trial = 0; trial < 300; ++trial) {
    const bool signed_values = trial % 3 == 0;
    const uint32_t universe = trial % 2 == 0 ? 40 : 600;
    SparseVector row =
        RandomVector(rng, rng.NextInt(0, 30), universe, signed_values);
    std::vector<SparseVector> cols;
    for (int c = 0, n = rng.NextInt(1, 8); c < n; ++c) {
      cols.push_back(
          RandomVector(rng, rng.NextInt(0, 30), universe, signed_values));
    }
    ExpectRowMatchesPairs(row, cols, &dense, "random");
  }
}

TEST(SparseVectorTest, WeightedOverlapRowEdgeCases) {
  std::vector<double> dense;
  SparseVector empty;  // never finalized, as BackgroundStats' empty context
  SparseVector finalized_empty;
  finalized_empty.Finalize();
  const SparseVector row = Make({{2, 1.5}, {5, 0.25}, {9, 3.0}});
  const SparseVector disjoint = Make({{1, 1.0}, {7, 2.0}, {400, 1.0}});
  const SparseVector subset = Make({{5, 0.5}, {9, 0.125}});
  const SparseVector superset = Make({{1, 4.0}, {2, 1.5}, {5, 0.25}, {9, 3.0}});
  const SparseVector negative = Make({{2, -1.0}, {5, 2.0}, {9, -0.5}});
  // Duplicate ids merged by Finalize, one pair cancelling to a dropped zero.
  SparseVector duplicates;
  for (auto [id, value] : std::vector<std::pair<uint32_t, double>>{
           {9, 1.0}, {2, 0.75}, {9, 0.5}, {5, 1.0}, {5, -1.0}, {2, 0.25}}) {
    duplicates.Add(id, value);
  }
  duplicates.Finalize();
  ASSERT_EQ(duplicates.size(), 2u);
  const std::vector<SparseVector> cols = {empty,  finalized_empty, disjoint,
                                          subset, superset,        negative,
                                          duplicates, row};
  ExpectRowMatchesPairs(row, cols, &dense, "row");
  ExpectRowMatchesPairs(empty, cols, &dense, "empty row");
  ExpectRowMatchesPairs(negative, cols, &dense, "negative row");
  ExpectRowMatchesPairs(duplicates, cols, &dense, "duplicate-id row");
  ExpectRowMatchesPairs(disjoint, cols, &dense, "wide row");
}

}  // namespace
}  // namespace qkbfly
