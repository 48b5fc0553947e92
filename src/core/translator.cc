#include "core/translator.h"

#include <cmath>
#include <utility>

#include "db/ops.h"

namespace pb::core {

namespace {

/// Evaluates an extreme-constraint argument for each candidate; NULLs come
/// back as std::nullopt (SQL MIN/MAX skip NULLs). Bare column references
/// gather from the contiguous column span in one pass.
Result<std::vector<std::optional<double>>> EvalExtremeArg(
    const db::ExprPtr& arg, const db::Table& table,
    const std::vector<size_t>& rows) {
  return db::GatherNumeric(table, arg, rows);
}

}  // namespace

Result<IlpTranslation> TranslateToIlp(const paql::AnalyzedQuery& aq,
                                      const TranslateOptions& options) {
  if (!aq.TranslatesToIlp()) {
    return Status::Unimplemented("query is not ILP-translatable: " +
                                 aq.not_translatable_reason);
  }
  if (options.bounds && options.bounds->infeasible) {
    return Status::Infeasible(
        "cardinality pruning proves the query infeasible");
  }

  IlpTranslation out;
  if (options.candidates != nullptr) {
    out.candidates = std::move(*options.candidates);
  } else {
    PB_ASSIGN_OR_RETURN(out.candidates,
                        db::FilterIndices(*aq.table, aq.query.where));
  }
  const size_t n = out.candidates.size();

  // Per-tuple weights of each canonical aggregate.
  std::vector<std::vector<double>> weights(aq.aggs.size());
  for (size_t a = 0; a < aq.aggs.size(); ++a) {
    PB_ASSIGN_OR_RETURN(
        weights[a], ComputeAggWeights(aq.aggs[a], *aq.table, out.candidates));
  }

  // Objective coefficient per candidate.
  std::vector<double> obj(n, 0.0);
  if (aq.has_objective) {
    for (const paql::LinearAggTerm& t : aq.objective_terms) {
      for (size_t i = 0; i < n; ++i) {
        obj[i] += t.coeff * weights[t.agg_index][i];
      }
    }
  }

  // Variables. MAX(e)<=c / MIN(e)>=c constraints fix violating tuples to 0.
  std::vector<double> ub(n, static_cast<double>(aq.max_multiplicity));
  for (const paql::ExtremeConstraint& ec : aq.extreme_constraints) {
    bool is_upper_side =
        (ec.func == db::AggFunc::kMax &&
         (ec.op == db::BinaryOp::kLe || ec.op == db::BinaryOp::kLt ||
          ec.op == db::BinaryOp::kEq)) ||
        (ec.func == db::AggFunc::kMin &&
         (ec.op == db::BinaryOp::kGe || ec.op == db::BinaryOp::kGt ||
          ec.op == db::BinaryOp::kEq));
    if (!is_upper_side) continue;
    PB_ASSIGN_OR_RETURN(auto vals,
                        EvalExtremeArg(ec.arg, *aq.table, out.candidates));
    for (size_t i = 0; i < n; ++i) {
      if (!vals[i]) continue;  // NULLs are invisible to MIN/MAX
      bool violates;
      if (ec.func == db::AggFunc::kMax) {
        violates = ec.op == db::BinaryOp::kLt ? *vals[i] >= ec.bound
                                              : *vals[i] > ec.bound;
      } else {
        violates = ec.op == db::BinaryOp::kGt ? *vals[i] <= ec.bound
                                              : *vals[i] < ec.bound;
      }
      if (violates && ub[i] > 0) {
        ub[i] = 0;
        ++out.num_fixed_out;
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    out.model.AddVariable("x" + std::to_string(out.candidates[i]), 0.0, ub[i],
                          obj[i], /*is_integer=*/true);
  }
  out.model.SetSense(aq.has_objective && !aq.maximize
                         ? solver::ObjectiveSense::kMinimize
                         : solver::ObjectiveSense::kMaximize);

  // Linear global-constraint rows. The translator emits rows (one
  // span-gather over the candidate weights per constraint) and never
  // touches column storage: each LP workspace derives its own column view
  // from these rows (solver::ColumnsOf) when a solve begins.
  for (const paql::LinearConstraint& lc : aq.linear_constraints) {
    std::vector<solver::LinearTerm> terms;
    terms.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      double w = 0.0;
      for (const paql::LinearAggTerm& t : lc.terms) {
        w += t.coeff * weights[t.agg_index][i];
      }
      if (w != 0.0) terms.push_back({static_cast<int>(i), w});
    }
    double lo = std::isfinite(lc.lo) ? lc.lo : -solver::kInfinity;
    double hi = std::isfinite(lc.hi) ? lc.hi : solver::kInfinity;
    out.model.AddConstraint(lc.source_text, std::move(terms), lo, hi);
  }

  // MAX(e)>=c / MIN(e)<=c: at least one qualifying tuple must be selected.
  for (const paql::ExtremeConstraint& ec : aq.extreme_constraints) {
    bool is_lower_side =
        (ec.func == db::AggFunc::kMax &&
         (ec.op == db::BinaryOp::kGe || ec.op == db::BinaryOp::kGt ||
          ec.op == db::BinaryOp::kEq)) ||
        (ec.func == db::AggFunc::kMin &&
         (ec.op == db::BinaryOp::kLe || ec.op == db::BinaryOp::kLt ||
          ec.op == db::BinaryOp::kEq));
    if (!is_lower_side) continue;
    PB_ASSIGN_OR_RETURN(auto vals,
                        EvalExtremeArg(ec.arg, *aq.table, out.candidates));
    std::vector<solver::LinearTerm> terms;
    for (size_t i = 0; i < n; ++i) {
      if (!vals[i]) continue;
      bool qualifies;
      if (ec.func == db::AggFunc::kMax) {
        // Need some tuple with value >= c (or > c, or == c for equality).
        qualifies = ec.op == db::BinaryOp::kGt   ? *vals[i] > ec.bound
                    : ec.op == db::BinaryOp::kEq ? *vals[i] == ec.bound
                                                 : *vals[i] >= ec.bound;
      } else {
        qualifies = ec.op == db::BinaryOp::kLt   ? *vals[i] < ec.bound
                    : ec.op == db::BinaryOp::kEq ? *vals[i] == ec.bound
                                                 : *vals[i] <= ec.bound;
      }
      if (qualifies && ub[i] > 0) {
        terms.push_back({static_cast<int>(i), 1.0});
      }
    }
    if (terms.empty()) {
      return Status::Infeasible("extreme constraint '" + ec.source_text +
                                "' cannot be satisfied by any candidate");
    }
    out.model.AddConstraint(ec.source_text, std::move(terms), 1.0,
                            solver::kInfinity);
  }

  // AVG/MIN/MAX semantics force a non-empty package.
  if (aq.requires_nonempty) {
    std::vector<solver::LinearTerm> terms;
    for (size_t i = 0; i < n; ++i) {
      if (ub[i] > 0) terms.push_back({static_cast<int>(i), 1.0});
    }
    if (terms.empty()) {
      return Status::Infeasible(
          "no candidate can populate the required non-empty package");
    }
    out.model.AddConstraint("nonempty", std::move(terms), 1.0,
                            solver::kInfinity);
  }

  // Redundant-but-tightening cardinality row from §4.1 pruning.
  if (options.bounds) {
    const CardinalityBounds& b = *options.bounds;
    bool tightens = b.lo > 0 || b.hi < static_cast<int64_t>(n) *
                                            aq.max_multiplicity;
    if (tightens) {
      std::vector<solver::LinearTerm> terms;
      for (size_t i = 0; i < n; ++i) {
        terms.push_back({static_cast<int>(i), 1.0});
      }
      out.model.AddConstraint(
          "cardinality_pruning", std::move(terms),
          static_cast<double>(b.lo),
          b.hi == INT64_MAX ? solver::kInfinity : static_cast<double>(b.hi));
    }
  }

  return out;
}

Package DecodeSolution(const IlpTranslation& translation,
                       const std::vector<double>& x) {
  Package pkg;
  for (size_t j = 0; j < translation.candidates.size() && j < x.size(); ++j) {
    int64_t m = static_cast<int64_t>(std::llround(x[j]));
    if (m > 0) pkg.Add(translation.candidates[j], m);
  }
  return pkg;
}

}  // namespace pb::core
