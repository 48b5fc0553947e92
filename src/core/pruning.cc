#include "core/pruning.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/math.h"
#include "db/ops.h"

namespace pb::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;

/// A rounded, nonnegative cardinality quotient as a count, saturated at
/// `cap`. A quotient such as 1e308 / w is beyond INT64_MAX, where the cast
/// is undefined (x86 yields INT64_MIN, which "proves" lo > hi).
int64_t SaturatedCount(double q, int64_t cap) {
  if (!(q < static_cast<double>(cap))) return cap;
  return std::min(cap, static_cast<int64_t>(q));
}
}  // namespace

std::string CardinalityBounds::ToString() const {
  if (infeasible) return "[infeasible]";
  std::string hi_s = hi == INT64_MAX ? "inf" : std::to_string(hi);
  return "[" + std::to_string(lo) + ", " + hi_s + "]";
}

Result<std::vector<double>> ComputeAggWeights(
    const paql::AggCall& agg, const db::Table& table,
    const std::vector<size_t>& rows) {
  std::vector<double> w(rows.size(), 0.0);
  if (agg.func == db::AggFunc::kCount && !agg.arg) {
    std::fill(w.begin(), w.end(), 1.0);
    return w;
  }
  if (!agg.arg) {
    return Status::InvalidArgument("aggregate requires an argument");
  }
  if (agg.func != db::AggFunc::kCount && agg.func != db::AggFunc::kSum) {
    return Status::InvalidArgument(
        std::string(db::AggFuncToString(agg.func)) +
        " has no per-tuple linear weight");
  }
  db::ExprPtr bound = agg.arg->Clone();
  PB_RETURN_IF_ERROR(bound->Bind(table.schema()));
  if (agg.func == db::AggFunc::kCount) {
    // COUNT(col) only needs the null mask, which every storage layout
    // maintains — including the kNull (untyped Value) fallback, whose
    // cells used to drop to the per-row Eval path below.
    if (bound->kind == db::ExprKind::kColumnRef && bound->column_index >= 0 &&
        static_cast<size_t>(bound->column_index) <
            table.schema().num_columns()) {
      const db::Column& col = table.column_data(bound->column_index);
      const db::NullBitmap& nulls = col.nulls();
      if (nulls.null_count() == static_cast<int64_t>(col.size())) {
        // All-NULL column (e.g. a kNull-typed attribute that never saw a
        // value): every weight is zero — validate the indices and return
        // the zero fill without touching the bitmap.
        for (size_t i = 0; i < rows.size(); ++i) {
          if (rows[i] >= col.size()) {
            return Status::OutOfRange("row index out of range");
          }
        }
        return w;
      }
      for (size_t i = 0; i < rows.size(); ++i) {
        if (rows[i] >= col.size()) {
          return Status::OutOfRange("row index out of range");
        }
        w[i] = nulls.Test(rows[i]) ? 0.0 : 1.0;
      }
      return w;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i] >= table.num_rows()) {
        return Status::OutOfRange("row index out of range");
      }
      PB_ASSIGN_OR_RETURN(db::Value v, bound->Eval(table, rows[i]));
      w[i] = v.is_null() ? 0.0 : 1.0;
    }
    return w;
  }
  // SUM: one contiguous-span gather when the argument is a bare numeric
  // column, per-row expression evaluation otherwise. NULL contributes 0.
  PB_ASSIGN_OR_RETURN(std::vector<std::optional<double>> vals,
                      db::GatherNumericBound(table, *bound, rows));
  for (size_t i = 0; i < rows.size(); ++i) {
    w[i] = vals[i].value_or(0.0);
  }
  return w;
}

Result<AggWeightBounds> ComputeAggWeightBounds(
    const paql::AggCall& agg, const db::Table& table,
    const std::vector<size_t>& rows) {
  AggWeightBounds out;
  if (rows.empty()) return out;  // caller handles n == 0 before bounds
  if (agg.func == db::AggFunc::kCount && !agg.arg) {
    out.computed = true;
    out.min = out.max = 1.0;
    return out;
  }
  if (!agg.arg) {
    return Status::InvalidArgument("aggregate requires an argument");
  }
  if (agg.func != db::AggFunc::kCount && agg.func != db::AggFunc::kSum) {
    return out;  // no linear weight; the materializing path reports it
  }
  db::ExprPtr bound = agg.arg->Clone();
  PB_RETURN_IF_ERROR(bound->Bind(table.schema()));
  if (bound->kind != db::ExprKind::kColumnRef || bound->column_index < 0 ||
      static_cast<size_t>(bound->column_index) >=
          table.schema().num_columns()) {
    return out;  // expression argument: fall back to materialized weights
  }
  const db::Column& col = table.column_data(bound->column_index);

  if (agg.func == db::AggFunc::kCount) {
    // COUNT(col) weights are the 0/1 null indicator; the bitmap is always
    // resident, so bounding it never reads value data (and is not counted
    // as a zone-map skip).
    const db::NullBitmap& nulls = col.nulls();
    bool any_null = false, any_value = false;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i] >= col.size()) {
        return Status::OutOfRange("row index out of range");
      }
      (nulls.any() && nulls.Test(rows[i]) ? any_null : any_value) = true;
    }
    out.computed = true;
    out.min = any_null ? 0.0 : 1.0;
    out.max = any_value ? 1.0 : 0.0;
    return out;
  }

  // SUM(bare numeric column): blocks fully covered by the candidate list
  // are bounded from their zone maps alone; partially covered blocks fall
  // back to reading the covered values.
  if (!col.numeric_storage()) return out;
  const db::NumericColumnView view = col.NumericView();
  const storage::ZoneMap* zones = col.ZoneMaps();
  const size_t bs = col.block_size();
  const size_t n = col.size();
  bool seen = false;
  double mn = 0.0, mx = 0.0;
  auto add = [&](double v) {
    if (!seen) {
      mn = mx = v;
      seen = true;
    } else {
      if (v < mn) mn = v;
      if (v > mx) mx = v;
    }
  };
  size_t i = 0;
  while (i < rows.size()) {
    if (rows[i] >= n) return Status::OutOfRange("row index out of range");
    const size_t b = rows[i] / bs;
    const size_t begin = b * bs;
    const size_t count = std::min(bs, n - begin);
    // Full coverage: the next `count` candidates are exactly this block's
    // rows (the common case — filter output is ascending and dense).
    bool full = i + count <= rows.size() && rows[i] == begin;
    if (full) {
      for (size_t k = 1; k < count; ++k) {
        if (rows[i + k] != begin + k) {
          full = false;
          break;
        }
      }
    }
    if (full) {
      const storage::ZoneMap& z = zones[b];
      if (z.has_minmax()) {
        add(z.min);
        add(z.max);
      }
      if (z.null_count > 0) add(0.0);  // NULL weighs 0, same as the gather
      ++out.zone_map_skipped_blocks;
      i += count;
    } else {
      const size_t end = begin + count;
      for (; i < rows.size() && rows[i] < end; ++i) {
        add(view.IsNull(rows[i]) ? 0.0 : view[rows[i]]);
      }
    }
  }
  PB_RETURN_IF_ERROR(view.status());
  out.computed = true;
  out.min = mn;
  out.max = mx;
  return out;
}

Result<CardinalityBounds> DeriveCardinalityBounds(
    const paql::AnalyzedQuery& aq, const std::vector<size_t>& candidates) {
  CardinalityBounds out;
  const int64_t n = static_cast<int64_t>(candidates.size());
  const int64_t k = aq.max_multiplicity;
  const int64_t max_occurrences = n * k;

  out.lo = 0;
  out.hi = max_occurrences;

  // Per-tuple weights, materialized lazily: single-aggregate constraints
  // usually get by on AggWeightBounds (zone maps / null bitmaps) and never
  // need the vector at all.
  std::vector<std::vector<double>> weights(aq.aggs.size());
  std::vector<bool> materialized(aq.aggs.size(), false);
  auto ensure_weights = [&](size_t a) -> Status {
    if (!materialized[a]) {
      PB_ASSIGN_OR_RETURN(weights[a],
                          ComputeAggWeights(aq.aggs[a], *aq.table, candidates));
      materialized[a] = true;
    }
    return Status::OK();
  };

  for (const paql::LinearConstraint& lc : aq.linear_constraints) {
    // Combined per-tuple weight w_i = sum_k coeff_k * weight_k(i).
    double wmin = kInf, wmax = -kInf;
    if (n == 0) {
      wmin = wmax = 0.0;
    } else if (lc.terms.size() == 1) {
      // Single-aggregate constraint (the common case): weight bounds from
      // zone-map metadata when the aggregate shape allows, else min/max
      // over the materialized span. Both are bit-identical; the metadata
      // path skips the value data of fully covered blocks.
      const paql::LinearAggTerm& t = lc.terms[0];
      PB_ASSIGN_OR_RETURN(
          AggWeightBounds b,
          ComputeAggWeightBounds(aq.aggs[t.agg_index], *aq.table, candidates));
      double mn, mx;
      if (b.computed) {
        out.zone_map_skipped_blocks += b.zone_map_skipped_blocks;
        mn = b.min;
        mx = b.max;
      } else {
        PB_RETURN_IF_ERROR(ensure_weights(t.agg_index));
        const std::vector<double>& w = weights[t.agg_index];
        auto [mn_it, mx_it] = std::minmax_element(w.begin(), w.end());
        mn = *mn_it;
        mx = *mx_it;
      }
      wmin = std::min(t.coeff * mn, t.coeff * mx);
      wmax = std::max(t.coeff * mn, t.coeff * mx);
    } else {
      for (const paql::LinearAggTerm& t : lc.terms) {
        PB_RETURN_IF_ERROR(ensure_weights(t.agg_index));
      }
      for (int64_t i = 0; i < n; ++i) {
        double w = 0.0;
        for (const paql::LinearAggTerm& t : lc.terms) {
          w += t.coeff * weights[t.agg_index][i];
        }
        wmin = std::min(wmin, w);
        wmax = std::max(wmax, w);
      }
    }

    // A package with c occurrences has weighted sum in [c*wmin, c*wmax];
    // feasible c must satisfy  c*wmin <= hi  and  c*wmax >= lo. Quotients
    // saturate just past max_occurrences: a larger lower bound is exactly
    // as infeasible, and a larger upper bound is exactly as loose.
    int64_t c_lo = 0, c_hi = max_occurrences;
    const int64_t lo_cap =
        max_occurrences < INT64_MAX ? max_occurrences + 1 : max_occurrences;

    // c * wmax >= lo  (lower cardinality bound; the paper's l).
    if (lc.lo != -kInf) {
      if (wmax > kEps) {
        if (lc.lo > 0) {
          c_lo = std::max(
              c_lo, SaturatedCount(std::ceil(lc.lo / wmax - kEps), lo_cap));
        }
      } else if (wmax < -kEps) {
        // All weights negative: the sum only decreases with c.
        if (lc.lo > 0) {
          out.infeasible = true;  // positive lower bound unreachable
        } else {
          c_hi = std::min(c_hi, SaturatedCount(std::floor(lc.lo / wmax + kEps),
                                               max_occurrences));
        }
      } else {  // wmax ~ 0
        if (lc.lo > kEps) out.infeasible = true;
      }
    }

    // c * wmin <= hi  (upper cardinality bound; the paper's u).
    if (lc.hi != kInf) {
      if (wmin > kEps) {
        if (lc.hi < 0) {
          out.infeasible = true;  // positive-weight sum cannot be negative
        } else {
          c_hi = std::min(c_hi, SaturatedCount(std::floor(lc.hi / wmin + kEps),
                                               max_occurrences));
        }
      } else if (wmin < -kEps) {
        if (lc.hi < 0) {
          c_lo = std::max(
              c_lo, SaturatedCount(std::ceil(lc.hi / wmin - kEps), lo_cap));
        }
      } else {  // wmin ~ 0
        if (lc.hi < -kEps) out.infeasible = true;
      }
    }

    out.lo = std::max(out.lo, c_lo);
    out.hi = std::min(out.hi, c_hi);
  }

  if (out.lo > out.hi) out.infeasible = true;

  // Search-space accounting (§4.1's headline formula). With REPEAT k > 1 we
  // approximate by treating each tuple as k occurrence slots.
  int64_t slots = max_occurrences;
  out.log2_unpruned =
      n > 0 ? static_cast<double>(n) * std::log2(1.0 + static_cast<double>(k))
            : 0.0;
  if (out.infeasible) {
    out.log2_pruned = -kInf;
  } else {
    out.log2_pruned = Log2BinomialSum(slots, out.lo, std::min(out.hi, slots));
  }
  return out;
}

}  // namespace pb::core
