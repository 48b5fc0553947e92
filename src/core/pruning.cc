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

namespace {

/// Min/max of one aggregate's per-tuple weights over the candidate rows,
/// derived without materializing them when the aggregate's shape allows
/// (COUNT(*), COUNT(bare column), SUM(bare numeric column); `computed`
/// false otherwise). Bit-identical to min/max over the weights: zone
/// min/max accumulate the values a scan would visit, extended with 0.0
/// exactly when the block has NULLs (NULL weighs 0).
struct AggWeightBounds {
  bool computed = false;
  double min = 0.0;
  double max = 0.0;
  /// Fully-covered blocks bounded from zone metadata (no value read).
  int64_t zone_map_skipped_blocks = 0;
};

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

/// The bounds §4.1's formula gives for `aq` from its per-constraint weight
/// ranges over `num_candidates` candidates; zone_map_skipped_blocks aside,
/// they depend on the ranges only through their values.
CardinalityBounds BoundsFromWeightRanges(const paql::AnalyzedQuery& aq,
                                         const std::vector<WeightRange>& ranges,
                                         size_t num_candidates) {
  CardinalityBounds out;
  const int64_t n = static_cast<int64_t>(num_candidates);
  const int64_t k = aq.max_multiplicity;
  const int64_t max_occurrences = n * k;

  out.lo = 0;
  out.hi = max_occurrences;

  for (size_t c = 0; c < aq.linear_constraints.size(); ++c) {
    const paql::LinearConstraint& lc = aq.linear_constraints[c];
    // Combined per-tuple weight w_i = sum_k coeff_k * weight_k(i); an
    // empty package weighs 0.
    const double wmin = n == 0 ? 0.0 : ranges[c].min;
    const double wmax = n == 0 ? 0.0 : ranges[c].max;

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

/// Appends `count` values to `v`, growing its capacity by an eighth
/// instead of doubling it: kept inputs live as long as their state, so the
/// slack is memory held for good.
template <typename T>
void AppendTight(std::vector<T>& v, const T* values, size_t count) {
  if (v.size() + count > v.capacity()) {
    v.reserve(v.size() + count + v.size() / 8);
  }
  v.insert(v.end(), values, values + count);
}

/// Sets inputs->ranges to each linear constraint's WeightRange over
/// inputs->candidates and returns the bounds they give. A single-aggregate
/// constraint reads zone maps where AggWeightBounds can; any other ranges
/// over its weight column, built on first need.
Result<CardinalityBounds> BoundCandidates(const paql::AnalyzedQuery& aq,
                                          QueryInputs* inputs) {
  const std::vector<size_t>& candidates = inputs->candidates;
  std::vector<WeightRange>& ranges = inputs->ranges;
  ranges.assign(aq.linear_constraints.size(), WeightRange());
  int64_t zone_map_skipped_blocks = 0;
  for (size_t c = 0; c < ranges.size() && !candidates.empty(); ++c) {
    const paql::LinearConstraint& lc = aq.linear_constraints[c];
    if (lc.terms.size() == 1) {
      // Weight bounds from zone-map metadata when the aggregate shape
      // allows: bit-identical to min/max over the weights, without reading
      // the value data of fully covered blocks. Scaling by the coefficient
      // is monotone, so the scaled extremes are the extremes of the scaled
      // weights.
      const paql::LinearAggTerm& t = lc.terms[0];
      PB_ASSIGN_OR_RETURN(
          const AggWeightBounds b,
          ComputeAggWeightBounds(aq.aggs[t.agg_index], *aq.table, candidates));
      if (b.computed) {
        zone_map_skipped_blocks += b.zone_map_skipped_blocks;
        ranges[c].min = std::min(t.coeff * b.min, t.coeff * b.max);
        ranges[c].max = std::max(t.coeff * b.min, t.coeff * b.max);
        continue;
      }
    }
    PB_RETURN_IF_ERROR(inputs->Weigh(aq));
    for (double w : inputs->weights[c]) ranges[c].Add(w);
  }
  CardinalityBounds out = BoundsFromWeightRanges(aq, ranges, candidates.size());
  out.zone_map_skipped_blocks = zone_map_skipped_blocks;
  return out;
}

/// The weight columns of `rows`: one ComputeAggWeights pass per aggregate
/// of `aq`, combined. The only place weights are computed.
Result<WeightColumns> WeighRows(const paql::AnalyzedQuery& aq,
                                const std::vector<size_t>& rows) {
  std::vector<std::vector<double>> per_agg(aq.aggs.size());
  for (size_t a = 0; a < aq.aggs.size(); ++a) {
    PB_ASSIGN_OR_RETURN(per_agg[a],
                        ComputeAggWeights(aq.aggs[a], *aq.table, rows));
  }
  auto combine = [&](const std::vector<paql::LinearAggTerm>& terms) {
    std::vector<double> w(rows.size(), 0.0);
    for (size_t i = 0; i < rows.size(); ++i) {
      for (const paql::LinearAggTerm& t : terms) {
        w[i] += t.coeff * per_agg[t.agg_index][i];
      }
    }
    return w;
  };
  WeightColumns columns;
  columns.reserve(aq.linear_constraints.size() + 1);
  for (const paql::LinearConstraint& lc : aq.linear_constraints) {
    columns.push_back(combine(lc.terms));
  }
  if (aq.has_objective) columns.push_back(combine(aq.objective_terms));
  return columns;
}

}  // namespace

Status QueryInputs::Weigh(const paql::AnalyzedQuery& aq) {
  if (weighed) return Status::OK();
  PB_ASSIGN_OR_RETURN(weights, WeighRows(aq, candidates));
  weighed = true;
  return Status::OK();
}

bool QueryInputs::Fits(const paql::AnalyzedQuery& aq) const {
  const size_t linear = aq.linear_constraints.size();
  return rows_scanned <= aq.table->num_rows() && ranges.size() == linear &&
         (!weighed || weights.size() == linear + (aq.has_objective ? 1 : 0));
}

Result<CardinalityBounds> DeriveCardinalityBounds(
    const paql::AnalyzedQuery& aq, const std::vector<size_t>& candidates) {
  QueryInputs inputs;
  inputs.candidates = candidates;
  return BoundCandidates(aq, &inputs);
}

Result<CardinalityBounds> PrepareQuery(const paql::AnalyzedQuery& aq,
                                       QueryInputs* inputs) {
  const size_t num_rows = aq.table->num_rows();
  if (inputs->rows_scanned == 0 || !inputs->Fits(aq)) {
    QueryInputs fresh;
    PB_ASSIGN_OR_RETURN(fresh.candidates,
                        db::FilterIndices(*aq.table, aq.query.where));
    fresh.candidates.shrink_to_fit();  // kept inputs hold no slack
    PB_ASSIGN_OR_RETURN(const CardinalityBounds bounds,
                        BoundCandidates(aq, &fresh));
    fresh.rows_scanned = num_rows;
    *inputs = std::move(fresh);
    return bounds;
  }
  if (inputs->rows_scanned < num_rows) {
    // The appended rows are filtered and weighed aside and folded in only
    // once every step succeeded.
    PB_ASSIGN_OR_RETURN(
        const std::vector<size_t> appended,
        db::FilterIndices(*aq.table, aq.query.where, inputs->rows_scanned));
    if (!appended.empty()) {
      PB_ASSIGN_OR_RETURN(const WeightColumns w, WeighRows(aq, appended));
      for (size_t c = 0; c < inputs->ranges.size(); ++c) {
        for (double v : w[c]) inputs->ranges[c].Add(v);
      }
      if (inputs->weighed) {
        for (size_t c = 0; c < w.size(); ++c) {
          AppendTight(inputs->weights[c], w[c].data(), w[c].size());
        }
      }
      AppendTight(inputs->candidates, appended.data(), appended.size());
    }
    inputs->rows_scanned = num_rows;
  }
  return BoundsFromWeightRanges(aq, inputs->ranges, inputs->candidates.size());
}

}  // namespace pb::core
