#include "core/translator.h"

#include <cmath>
#include <utility>

#include "db/ops.h"

namespace pb::core {

namespace {

Status CheckTranslatable(const paql::AnalyzedQuery& aq,
                         const CardinalityBounds* bounds) {
  if (!aq.TranslatesToIlp()) {
    return Status::Unimplemented("query is not ILP-translatable: " +
                                 aq.not_translatable_reason);
  }
  if (bounds && bounds->infeasible) {
    return Status::Infeasible(
        "cardinality pruning proves the query infeasible");
  }
  return Status::OK();
}

/// Whether §4.1's cardinality row lo <= sum x_i <= hi over `n` candidates
/// cuts anything the variable bounds allow.
bool Tightens(const paql::AnalyzedQuery& aq, const CardinalityBounds& b,
              size_t n) {
  return b.lo > 0 || b.hi < static_cast<int64_t>(n) * aq.max_multiplicity;
}

/// The model over `inputs`, weighed here if they are not yet.
Result<IlpTranslation> Translate(const paql::AnalyzedQuery& aq,
                                 QueryInputs* inputs,
                                 const CardinalityBounds* bounds) {
  PB_RETURN_IF_ERROR(inputs->Weigh(aq));
  const WeightColumns& weights = inputs->weights;
  IlpTranslation out;
  out.candidates = inputs->candidates;
  const size_t n = out.candidates.size();

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
    // One gather per argument; NULLs come back empty.
    PB_ASSIGN_OR_RETURN(auto vals,
                        db::GatherNumeric(*aq.table, ec.arg, out.candidates));
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
                          aq.has_objective ? weights.back()[i] : 0.0,
                          /*is_integer=*/true);
  }
  out.model.SetSense(aq.has_objective && !aq.maximize
                         ? solver::ObjectiveSense::kMinimize
                         : solver::ObjectiveSense::kMaximize);

  // Linear global-constraint rows, one per weight column. The translator
  // emits rows and never touches column storage: each LP workspace derives
  // its own column view from these rows (solver::ColumnsOf) when a solve
  // begins.
  for (size_t c = 0; c < aq.linear_constraints.size(); ++c) {
    const paql::LinearConstraint& lc = aq.linear_constraints[c];
    std::vector<solver::LinearTerm> terms;
    terms.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const double w = weights[c][i];
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
                        db::GatherNumeric(*aq.table, ec.arg, out.candidates));
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
  if (bounds && Tightens(aq, *bounds, n)) {
    std::vector<solver::LinearTerm> terms;
    for (size_t i = 0; i < n; ++i) {
      terms.push_back({static_cast<int>(i), 1.0});
    }
    out.model.AddConstraint("cardinality_pruning", std::move(terms),
                            static_cast<double>(bounds->lo),
                            bounds->hi == INT64_MAX
                                ? solver::kInfinity
                                : static_cast<double>(bounds->hi));
  }

  return out;
}

}  // namespace

Result<IlpTranslation> TranslateToIlp(const paql::AnalyzedQuery& aq,
                                      const TranslateOptions& options) {
  PB_RETURN_IF_ERROR(CheckTranslatable(aq, options.bounds));
  QueryInputs inputs;
  PB_ASSIGN_OR_RETURN(inputs.candidates,
                      db::FilterIndices(*aq.table, aq.query.where));
  return Translate(aq, &inputs, options.bounds);
}

Result<IlpTranslation> TranslateToIlp(const paql::AnalyzedQuery& aq,
                                      QueryInputs* inputs,
                                      const CardinalityBounds& bounds) {
  PB_RETURN_IF_ERROR(CheckTranslatable(aq, &bounds));
  return Translate(aq, inputs, &bounds);
}

std::pair<int, int> CountIlpDimensions(const paql::AnalyzedQuery& aq,
                                       size_t num_candidates,
                                       const CardinalityBounds& bounds) {
  // Translate's rows: one per linear constraint, the non-empty row (which
  // fails without a candidate) and the cardinality row when it tightens.
  if (!CheckTranslatable(aq, &bounds).ok() ||
      (aq.requires_nonempty && num_candidates == 0)) {
    return {};
  }
  return {static_cast<int>(num_candidates),
          static_cast<int>(aq.linear_constraints.size()) +
              (aq.requires_nonempty ? 1 : 0) +
              (Tightens(aq, bounds, num_candidates) ? 1 : 0)};
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

void AddNoGoodCut(const Package& pkg, const std::string& name,
                  IlpTranslation* translation) {
  std::vector<solver::LinearTerm> terms;
  double rhs = -1.0;
  for (size_t j = 0; j < translation->candidates.size(); ++j) {
    const bool in_pkg = pkg.MultiplicityOf(translation->candidates[j]) > 0;
    terms.push_back({static_cast<int>(j), in_pkg ? 1.0 : -1.0});
    if (in_pkg) rhs += 1.0;
  }
  translation->model.AddConstraint(name, std::move(terms), -solver::kInfinity,
                                   rhs);
}

}  // namespace pb::core
