#include "util/sparse_vector.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace qkbfly {

void SparseVector::Finalize() {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
  // Merge duplicate ids in place (two-pointer compaction) so a reused
  // vector's capacity survives Finalize — the densifier calls this on
  // retained per-sentence context vectors in its allocation-free hot path.
  size_t out = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (out > 0 && entries_[out - 1].id == entries_[i].id) {
      entries_[out - 1].value += entries_[i].value;
    } else {
      entries_[out++] = entries_[i];
    }
  }
  entries_.resize(out);
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [](const Entry& e) { return e.value == 0.0; }),
                 entries_.end());
  sum_ = 0.0;
  for (const Entry& e : entries_) sum_ += e.value;
  finalized_ = true;
}

double SparseVector::Norm() const {
  double ss = 0.0;
  for (const Entry& e : entries_) ss += e.value * e.value;
  return std::sqrt(ss);
}

namespace {

// Applies `fn(a_value, b_value)` over the id-aligned intersection.
template <typename Fn>
void ForEachCommon(const SparseVector& a, const SparseVector& b, Fn fn) {
  QKB_CHECK(a.finalized() && b.finalized());
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  size_t i = 0;
  size_t j = 0;
  while (i < ea.size() && j < eb.size()) {
    if (ea[i].id < eb[j].id) {
      ++i;
    } else if (eb[j].id < ea[i].id) {
      ++j;
    } else {
      fn(ea[i].value, eb[j].value);
      ++i;
      ++j;
    }
  }
}

}  // namespace

double Dot(const SparseVector& a, const SparseVector& b) {
  double sum = 0.0;
  ForEachCommon(a, b, [&sum](double x, double y) { sum += x * y; });
  return sum;
}

double CosineSimilarity(const SparseVector& a, const SparseVector& b) {
  double na = a.Norm();
  double nb = b.Norm();
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

double WeightedOverlap(const SparseVector& a, const SparseVector& b) {
  if (a.empty() || b.empty()) return 0.0;
  double overlap = 0.0;
  ForEachCommon(a, b,
                [&overlap](double x, double y) { overlap += std::min(x, y); });
  double denom = std::min(a.Sum(), b.Sum());
  if (denom <= 0.0) return 0.0;
  return overlap / denom;
}

void WeightedOverlapRow(const SparseVector& row,
                        std::span<const SparseVector* const> cols,
                        std::vector<double>* dense, double* out) {
  if (cols.empty()) return;
  if (row.empty()) {
    std::fill(out, out + cols.size(), 0.0);
    return;
  }
  QKB_CHECK(row.finalized());
  const auto& er = row.entries();
  // Entries are ascending, so the last id bounds the row: a column walk
  // stops at the first id past it.
  const size_t extent = static_cast<size_t>(er.back().id) + 1;
  if (dense->size() < extent) dense->resize(extent, 0.0);
  double* d = dense->data();
  for (const SparseVector::Entry& e : er) d[e.id] = e.value;
  const double row_sum = row.Sum();
  for (size_t j = 0; j < cols.size(); ++j) {
    const SparseVector& col = *cols[j];
    if (col.empty()) {
      out[j] = 0.0;
      continue;
    }
    QKB_CHECK(col.finalized());
    double overlap = 0.0;
    for (const SparseVector::Entry& e : col.entries()) {
      if (e.id >= extent) break;
      const double x = d[e.id];
      if (x != 0.0) overlap += std::min(x, e.value);
    }
    const double denom = std::min(row_sum, col.Sum());
    out[j] = denom <= 0.0 ? 0.0 : overlap / denom;
  }
  for (const SparseVector::Entry& e : er) d[e.id] = 0.0;
}

}  // namespace qkbfly
