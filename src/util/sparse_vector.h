// Sparse feature vectors keyed by interned term ids. Used for TF-IDF context
// vectors (Section 4 edge weights) and for the ML models in src/ml.
#ifndef QKBFLY_UTIL_SPARSE_VECTOR_H_
#define QKBFLY_UTIL_SPARSE_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace qkbfly {

/// A sparse vector stored as (id, value) pairs sorted by id. Construction via
/// Add() may be unordered; Finalize() sorts and merges duplicate ids.
class SparseVector {
 public:
  struct Entry {
    uint32_t id;
    double value;
  };

  /// Appends a term contribution; duplicates are merged by Finalize().
  void Add(uint32_t id, double value) {
    entries_.push_back({id, value});
    finalized_ = false;
  }

  /// Empties the vector, keeping its capacity for reuse.
  void Clear() {
    entries_.clear();
    sum_ = 0.0;
    finalized_ = false;
  }

  /// Sorts entries by id and sums duplicates; drops zero entries, so a
  /// finalized vector holds no zero value. Caches the sum of the values.
  void Finalize();

  bool finalized() const { return finalized_; }
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Sum of all values (the denominator of the weighted-overlap measure),
  /// as of the last Finalize(); 0 for a vector never finalized.
  double Sum() const { return sum_; }

  /// Euclidean norm.
  double Norm() const;

 private:
  std::vector<Entry> entries_;
  double sum_ = 0.0;
  bool finalized_ = false;
};

/// Dot product of two finalized vectors.
double Dot(const SparseVector& a, const SparseVector& b);

/// Cosine similarity of two finalized vectors (0 if either is empty).
double CosineSimilarity(const SparseVector& a, const SparseVector& b);

/// The paper's weighted overlap coefficient:
///   sim(a, b) = sum_k min(a_k, b_k) / min(sum_k a_k, sum_k b_k).
/// Returns 0 for empty vectors. Both inputs must be finalized.
double WeightedOverlap(const SparseVector& a, const SparseVector& b);

/// WeightedOverlap(row, *cols[j]) into out[j] for every column, bit for bit.
/// `row` is scattered once into `dense` (indexed by id, all zero on entry
/// and again on return; grown to cover the row), and each column walks only
/// its own entries in ascending id. That is the one-pair merge's
/// intersection, in the same order, with the same min terms and the same
/// denominator. The presence test `dense[id] != 0` relies on finalized
/// vectors holding no zero value. All inputs must be finalized or empty.
void WeightedOverlapRow(const SparseVector& row,
                        std::span<const SparseVector* const> cols,
                        std::vector<double>* dense, double* out);

}  // namespace qkbfly

#endif  // QKBFLY_UTIL_SPARSE_VECTOR_H_
