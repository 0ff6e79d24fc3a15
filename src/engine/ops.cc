#include "engine/ops.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace od {
namespace engine {

namespace {

/// Rejects out-of-range column ids at operator entry. Callers routinely
/// feed `Schema::Find` results straight into an operator, and Find returns
/// -1 for an unknown name — without this check that -1 indexes the column
/// vector out of bounds. Validated once per call, so the per-row hot loops
/// stay unchecked.
void CheckColumn(const Table& t, ColumnId c, const char* op) {
  if (c < 0 || c >= t.num_columns()) {
    throw std::out_of_range(
        std::string(op) + ": column id " + std::to_string(c) +
        " out of range [0, " + std::to_string(t.num_columns()) +
        ") — note Schema::Find returns -1 for unknown column names");
  }
}

void CheckColumns(const Table& t, const std::vector<ColumnId>& cols,
                  const char* op) {
  for (ColumnId c : cols) CheckColumn(t, c, op);
}

}  // namespace

Table SortBy(const Table& t, const SortSpec& spec, bool* was_sorted) {
  CheckColumns(t, spec, "SortBy");
  // Already physically sorted: skip the O(n log n) permutation sort and the
  // gather entirely — an O(n) verification pass is all the order costs.
  const bool sorted = IsSortedBy(t, spec);
  if (was_sorted != nullptr) *was_sorted = sorted;
  if (sorted) {
    Table out = t;
    out.SetOrdering(spec);
    return out;
  }
  std::vector<int64_t> perm(t.num_rows());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](int64_t a, int64_t b) {
    return t.CompareRows(a, b, spec) < 0;
  });
  Table out = t.Gather(perm);
  out.SetOrdering(spec);
  return out;
}

bool IsSortedBy(const Table& t, const SortSpec& spec) {
  CheckColumns(t, spec, "IsSortedBy");
  for (int64_t i = 1; i < t.num_rows(); ++i) {
    if (t.CompareRows(i - 1, i, spec) > 0) return false;
  }
  return true;
}

bool Predicate::Matches(const Table& t, int64_t row) const {
  const Value v = t.col(col).Get(row);
  switch (op) {
    case Op::kEq: return v == lo;
    case Op::kLt: return v < lo;
    case Op::kLe: return v <= lo;
    case Op::kGt: return v > lo;
    case Op::kGe: return v >= lo;
    case Op::kBetween: return lo <= v && v <= hi;
  }
  return false;
}

std::vector<int64_t> FilterRowIds(const Table& t,
                                  const std::vector<Predicate>& preds) {
  for (const auto& p : preds) CheckColumn(t, p.col, "Filter");
  std::vector<int64_t> out;
  for (int64_t i = 0; i < t.num_rows(); ++i) {
    bool ok = true;
    for (const auto& p : preds) {
      if (!p.Matches(t, i)) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(i);
  }
  return out;
}

Table Concat(const std::vector<const Table*>& tables) {
  assert(!tables.empty());
  Table out(tables[0]->schema());
  for (const Table* t : tables) {
    for (int64_t row = 0; row < t->num_rows(); ++row) {
      for (int c = 0; c < t->num_columns(); ++c) {
        out.col(c).Append(t->col(c).Get(row));
      }
      out.FinishRow();
    }
  }
  return out;
}

bool SameRowMultiset(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  auto rows_of = [](const Table& t) {
    std::vector<std::string> rows;
    rows.reserve(t.num_rows());
    for (int64_t i = 0; i < t.num_rows(); ++i) {
      std::string row;
      for (int c = 0; c < t.num_columns(); ++c) {
        row += t.col(c).Get(i).ToString();
        row += '\x01';
      }
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  return rows_of(a) == rows_of(b);
}

}  // namespace engine
}  // namespace od
