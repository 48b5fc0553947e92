#include "paql/analyzer.h"

#include <cmath>
#include <map>

#include "common/strings.h"
#include "paql/parser.h"

namespace pb::paql {

namespace {

/// Strict-inequality slack: '<' and '>' against continuous data are encoded
/// as non-strict bounds nudged by this relative epsilon (documented in
/// DESIGN.md; exact strictness is preserved by the search-based strategies,
/// which evaluate the original GExpr).
constexpr double kStrictEps = 1e-9;

/// A linear combination of canonical aggregates plus a constant, or
/// "not linear" with a reason.
struct LinearForm {
  double constant = 0.0;
  // agg_index -> coeff, over AnalyzedQuery::aggs (kSum/kCount entries) and
  // a parallel "avg" map for AVG terms awaiting the multiply-by-COUNT
  // rewrite.
  std::map<size_t, double> coeffs;
  std::map<size_t, double> avg_coeffs;  // key: index into `avg_args`
  bool linear = true;
  std::string reason;

  bool IsConstant() const {
    return linear && coeffs.empty() && avg_coeffs.empty();
  }
  bool HasAvg() const { return !avg_coeffs.empty(); }

  static LinearForm NotLinear(std::string why) {
    LinearForm f;
    f.linear = false;
    f.reason = std::move(why);
    return f;
  }
};

class Analyzer {
 public:
  Analyzer(const Query& query, const db::Catalog& catalog)
      : query_(query), catalog_(catalog) {}

  Result<AnalyzedQuery> Run() {
    AnalyzedQuery out;
    out.query = query_;
    PB_ASSIGN_OR_RETURN(out.table, catalog_.Get(query_.relation));
    out.max_multiplicity = query_.repeat.value_or(1);

    // Bind the base predicate (type errors surface here, once).
    if (out.query.where) {
      PB_RETURN_IF_ERROR(out.query.where->Bind(out.table->schema()));
    }

    aq_ = &out;
    if (query_.such_that) {
      AnalyzeSuchThat(*query_.such_that, out);
      // Bind errors inside aggregate args are hard errors even when the
      // constraint shape is not translatable.
      PB_RETURN_IF_ERROR(bind_error_);
    }
    if (query_.objective) {
      out.has_objective = true;
      out.maximize = query_.objective->sense == ObjectiveSense::kMaximize;
      AnalyzeObjective(*query_.objective, out);
      PB_RETURN_IF_ERROR(bind_error_);
    }
    return out;
  }

 private:
  /// Canonicalizes an aggregate (binding its argument) and returns its index
  /// in aq_->aggs. COUNT/SUM only.
  size_t InternAgg(db::AggFunc func, const db::ExprPtr& arg) {
    AggCall call;
    call.func = func;
    call.arg = arg ? arg->Clone() : nullptr;
    if (call.arg) {
      Status s = call.arg->Bind(aq_->table->schema());
      if (!s.ok() && bind_error_.ok()) bind_error_ = s;
    }
    std::string key = call.CanonicalKey();
    auto it = agg_index_.find(key);
    if (it != agg_index_.end()) return it->second;
    size_t idx = aq_->aggs.size();
    aq_->aggs.push_back(std::move(call));
    agg_index_[key] = idx;
    return idx;
  }

  size_t InternAvgArg(const db::ExprPtr& arg) {
    db::ExprPtr bound = arg->Clone();
    Status s = bound->Bind(aq_->table->schema());
    if (!s.ok() && bind_error_.ok()) bind_error_ = s;
    std::string key = AsciiToLower(bound->ToString());
    auto it = avg_index_.find(key);
    if (it != avg_index_.end()) return it->second;
    size_t idx = avg_args_.size();
    avg_args_.push_back(std::move(bound));
    avg_index_[key] = idx;
    return idx;
  }

  /// Builds the linear form of an arithmetic global expression.
  LinearForm BuildLinearForm(const GExpr& e) {
    switch (e.kind) {
      case GExprKind::kLiteral: {
        LinearForm f;
        auto d = e.literal.ToDouble();
        if (!d.ok()) {
          return LinearForm::NotLinear("non-numeric literal '" +
                                       e.literal.ToString() + "'");
        }
        f.constant = *d;
        return f;
      }
      case GExprKind::kAgg: {
        LinearForm f;
        switch (e.agg.func) {
          case db::AggFunc::kCount:
          case db::AggFunc::kSum:
            f.coeffs[InternAgg(e.agg.func, e.agg.arg)] = 1.0;
            return f;
          case db::AggFunc::kAvg:
            f.avg_coeffs[InternAvgArg(e.agg.arg)] = 1.0;
            return f;
          case db::AggFunc::kMin:
          case db::AggFunc::kMax:
            // Handled at the comparison level (extreme constraints); inside
            // arithmetic they are non-linear.
            return LinearForm::NotLinear(
                std::string(db::AggFuncToString(e.agg.func)) +
                " inside arithmetic is not linear");
        }
        return LinearForm::NotLinear("unknown aggregate");
      }
      case GExprKind::kArith: {
        LinearForm l = BuildLinearForm(*e.children[0]);
        if (!l.linear) return l;
        LinearForm r = BuildLinearForm(*e.children[1]);
        if (!r.linear) return r;
        switch (e.op) {
          case db::BinaryOp::kAdd:
          case db::BinaryOp::kSub: {
            double sign = e.op == db::BinaryOp::kAdd ? 1.0 : -1.0;
            l.constant += sign * r.constant;
            for (auto& [k, v] : r.coeffs) l.coeffs[k] += sign * v;
            for (auto& [k, v] : r.avg_coeffs) l.avg_coeffs[k] += sign * v;
            return l;
          }
          case db::BinaryOp::kMul: {
            const LinearForm* scalar = l.IsConstant() ? &l : nullptr;
            const LinearForm* other = scalar ? &r : &l;
            if (!scalar && r.IsConstant()) scalar = &r;
            if (!scalar) {
              return LinearForm::NotLinear(
                  "product of two aggregate expressions is not linear");
            }
            LinearForm out = *other;
            double c = scalar->constant;
            out.constant *= c;
            for (auto& [k, v] : out.coeffs) v *= c;
            for (auto& [k, v] : out.avg_coeffs) v *= c;
            return out;
          }
          case db::BinaryOp::kDiv: {
            if (!r.IsConstant()) {
              return LinearForm::NotLinear(
                  "division by an aggregate expression is not linear");
            }
            if (r.constant == 0.0) {
              return LinearForm::NotLinear("division by zero constant");
            }
            LinearForm out = l;
            out.constant /= r.constant;
            for (auto& [k, v] : out.coeffs) v /= r.constant;
            for (auto& [k, v] : out.avg_coeffs) v /= r.constant;
            return out;
          }
          default:
            return LinearForm::NotLinear("unsupported arithmetic operator");
        }
      }
      default:
        return LinearForm::NotLinear(
            "boolean sub-expression inside arithmetic");
    }
  }

  /// Tries to capture a single MIN/MAX comparison: FUNC(e) op constant or
  /// constant op FUNC(e).
  bool TryExtreme(const GExpr& cmp, AnalyzedQuery& out) {
    const GExpr* agg_side = nullptr;
    const GExpr* const_side = nullptr;
    db::BinaryOp op = cmp.op;
    if (cmp.children[0]->kind == GExprKind::kAgg) {
      agg_side = cmp.children[0].get();
      const_side = cmp.children[1].get();
    } else if (cmp.children[1]->kind == GExprKind::kAgg) {
      agg_side = cmp.children[1].get();
      const_side = cmp.children[0].get();
      // Flip the comparison: c op AGG  ==>  AGG op' c.
      switch (op) {
        case db::BinaryOp::kLt: op = db::BinaryOp::kGt; break;
        case db::BinaryOp::kLe: op = db::BinaryOp::kGe; break;
        case db::BinaryOp::kGt: op = db::BinaryOp::kLt; break;
        case db::BinaryOp::kGe: op = db::BinaryOp::kLe; break;
        default: break;
      }
    } else {
      return false;
    }
    if (agg_side->agg.func != db::AggFunc::kMin &&
        agg_side->agg.func != db::AggFunc::kMax) {
      return false;
    }
    if (const_side->kind != GExprKind::kLiteral) return false;
    auto d = const_side->literal.ToDouble();
    if (!d.ok()) return false;
    if (op == db::BinaryOp::kNe) return false;  // disjunctive: not capturable

    ExtremeConstraint ec;
    ec.func = agg_side->agg.func;
    ec.arg = agg_side->agg.arg ? agg_side->agg.arg->Clone() : nullptr;
    if (!ec.arg) return false;  // MIN(*) is rejected by the parser anyway
    Status s = ec.arg->Bind(aq_->table->schema());
    if (!s.ok()) {
      if (bind_error_.ok()) bind_error_ = s;
      return false;
    }
    ec.op = op;
    ec.bound = *d;
    ec.source_text = cmp.ToString();
    out.extreme_constraints.push_back(std::move(ec));
    out.requires_nonempty = true;
    return true;
  }

  /// Converts "lo <= form <= hi" into a LinearConstraint, applying the
  /// AVG rewrite when needed. Returns false (with reason) if not linear.
  bool EmitRange(LinearForm form, double lo, double hi,
                 const std::string& source, AnalyzedQuery& out,
                 std::string* why) {
    if (!form.linear) {
      *why = form.reason;
      return false;
    }
    lo -= form.constant;
    hi -= form.constant;
    form.constant = 0;
    if (form.HasAvg()) {
      // Rewrite requires the non-AVG part to be empty: AVG terms only.
      if (!form.coeffs.empty()) {
        *why = "mixing AVG with SUM/COUNT in one constraint is not linear";
        return false;
      }
      // sum_a c_a * AVG(e_a) in [lo, hi]
      //   ==>  sum_a c_a * SUM(e_a) - lo*COUNT(*) >= 0   (and hi side)
      // Both rows share the SUM terms; emit as two rows referencing
      // COUNT(*) with coefficient -bound.
      size_t count_idx = InternAgg(db::AggFunc::kCount, nullptr);
      auto emit_side = [&](double bound, bool is_lower) {
        if (!std::isfinite(bound)) return;
        LinearConstraint lc;
        for (auto& [a, c] : form.avg_coeffs) {
          size_t sum_idx = InternAgg(db::AggFunc::kSum, avg_args_[a]);
          lc.terms.push_back({sum_idx, c});
        }
        lc.terms.push_back({count_idx, -bound});
        lc.lo = is_lower ? 0.0 : -kInfDouble();
        lc.hi = is_lower ? kInfDouble() : 0.0;
        lc.source_text = source;
        out.linear_constraints.push_back(std::move(lc));
      };
      emit_side(lo, /*is_lower=*/true);
      emit_side(hi, /*is_lower=*/false);
      out.requires_nonempty = true;
      return true;
    }
    LinearConstraint lc;
    for (auto& [k, c] : form.coeffs) {
      if (c != 0.0) lc.terms.push_back({k, c});
    }
    lc.lo = lo;
    lc.hi = hi;
    lc.source_text = source;
    out.linear_constraints.push_back(std::move(lc));
    return true;
  }

  static double kInfDouble() {
    return std::numeric_limits<double>::infinity();
  }

  /// Recursively decomposes the SUCH THAT tree. Top-level ANDs split into
  /// conjuncts; anything else must be a translatable comparison/BETWEEN or
  /// the query is flagged not-ILP-translatable.
  void AnalyzeSuchThat(const GExpr& e, AnalyzedQuery& out) {
    switch (e.kind) {
      case GExprKind::kBool:
        if (e.op == db::BinaryOp::kAnd) {
          AnalyzeSuchThat(*e.children[0], out);
          AnalyzeSuchThat(*e.children[1], out);
          return;
        }
        MarkNotTranslatable(out, "OR in global constraints is disjunctive");
        return;
      case GExprKind::kNot:
        MarkNotTranslatable(out, "NOT in global constraints is disjunctive");
        return;
      case GExprKind::kCompare: {
        if (TryExtreme(e, out)) return;
        LinearForm l = BuildLinearForm(*e.children[0]);
        LinearForm r = BuildLinearForm(*e.children[1]);
        if (!l.linear || !r.linear) {
          MarkNotTranslatable(out, !l.linear ? l.reason : r.reason);
          return;
        }
        // Move everything left: (l - r) op 0.
        LinearForm diff = l;
        diff.constant -= r.constant;
        for (auto& [k, v] : r.coeffs) diff.coeffs[k] -= v;
        for (auto& [k, v] : r.avg_coeffs) diff.avg_coeffs[k] -= v;
        double scale = 1.0;
        for (auto& [k, v] : diff.coeffs) {
          scale = std::max(scale, std::abs(v));
        }
        double eps = kStrictEps * scale + kStrictEps;
        std::string why;
        bool ok = true;
        switch (e.op) {
          case db::BinaryOp::kLe:
            ok = EmitRange(diff, -kInfDouble(), 0.0, e.ToString(), out, &why);
            break;
          case db::BinaryOp::kLt:
            ok = EmitRange(diff, -kInfDouble(), -eps, e.ToString(), out, &why);
            break;
          case db::BinaryOp::kGe:
            ok = EmitRange(diff, 0.0, kInfDouble(), e.ToString(), out, &why);
            break;
          case db::BinaryOp::kGt:
            ok = EmitRange(diff, eps, kInfDouble(), e.ToString(), out, &why);
            break;
          case db::BinaryOp::kEq:
            ok = EmitRange(diff, 0.0, 0.0, e.ToString(), out, &why);
            break;
          case db::BinaryOp::kNe:
            ok = false;
            why = "'<>' is disjunctive";
            break;
          default:
            ok = false;
            why = "unsupported comparison";
        }
        if (!ok) MarkNotTranslatable(out, why);
        return;
      }
      case GExprKind::kBetween: {
        if (e.negated) {
          MarkNotTranslatable(out, "NOT BETWEEN is disjunctive");
          return;
        }
        LinearForm mid = BuildLinearForm(*e.children[0]);
        LinearForm lo = BuildLinearForm(*e.children[1]);
        LinearForm hi = BuildLinearForm(*e.children[2]);
        if (!mid.linear || !lo.linear || !hi.linear || !lo.IsConstant() ||
            !hi.IsConstant()) {
          MarkNotTranslatable(out,
                              !mid.linear ? mid.reason
                                          : "BETWEEN bounds must be constants");
          return;
        }
        std::string why;
        if (!EmitRange(mid, lo.constant, hi.constant, e.ToString(), out,
                       &why)) {
          MarkNotTranslatable(out, why);
        }
        return;
      }
      default:
        MarkNotTranslatable(out, "global constraint must be a comparison");
    }
  }

  void AnalyzeObjective(const Objective& obj, AnalyzedQuery& out) {
    LinearForm f = BuildLinearForm(*obj.expr);
    if (!f.linear || f.HasAvg()) {
      out.objective_linear = false;
      if (out.not_translatable_reason.empty()) {
        out.not_translatable_reason =
            f.linear ? "AVG objectives are fractional (not linear)"
                     : f.reason;
      }
      return;
    }
    for (auto& [k, c] : f.coeffs) {
      if (c != 0.0) out.objective_terms.push_back({k, c});
    }
    // A constant objective is trivially linear (and pointless but legal).
  }

  void MarkNotTranslatable(AnalyzedQuery& out, std::string why) {
    out.ilp_translatable = false;
    if (out.not_translatable_reason.empty()) {
      out.not_translatable_reason = std::move(why);
    }
  }

  const Query& query_;
  const db::Catalog& catalog_;
  AnalyzedQuery* aq_ = nullptr;
  std::map<std::string, size_t> agg_index_;
  std::map<std::string, size_t> avg_index_;
  std::vector<db::ExprPtr> avg_args_;
  Status bind_error_;
};

}  // namespace

Result<AnalyzedQuery> Analyze(const Query& query, const db::Catalog& catalog) {
  Analyzer analyzer(query, catalog);
  return analyzer.Run();
}

Result<AnalyzedQuery> ParseAndAnalyze(std::string_view text,
                                      const db::Catalog& catalog) {
  PB_ASSIGN_OR_RETURN(Query q, Parse(text));
  return Analyze(q, catalog);
}

}  // namespace pb::paql
