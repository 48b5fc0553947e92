#include "ui/template.h"

#include "common/strings.h"

namespace pb::ui {

namespace {

/// Flattens the SUCH THAT conjunction into displayable constraints.
void CollectConjuncts(const paql::GExpr& e,
                      std::vector<const paql::GExpr*>* out) {
  if (e.kind == paql::GExprKind::kBool && e.op == db::BinaryOp::kAnd) {
    CollectConjuncts(*e.children[0], out);
    CollectConjuncts(*e.children[1], out);
    return;
  }
  out->push_back(&e);
}

}  // namespace

Result<std::string> RenderPackageTemplate(const paql::AnalyzedQuery& aq,
                                          const core::Package& sample,
                                          const TemplateOptions& options) {
  std::string out;
  out += "== Package template: " + aq.query.package_alias + " over " +
         aq.query.relation + " ==\n\n";

  if (options.show_paql) {
    out += aq.query.ToPaql() + "\n\n";
  }

  if (aq.query.where) {
    out += "Base constraints (each tuple):\n";
    out += "  - " + aq.query.where->ToString() + "\n";
  }
  if (aq.query.such_that) {
    out += "Global constraints (the whole package):\n";
    std::vector<const paql::GExpr*> conjuncts;
    CollectConjuncts(*aq.query.such_that, &conjuncts);
    for (const paql::GExpr* c : conjuncts) {
      out += "  - " + c->ToString() + "\n";
      out += "      (" + paql::DescribeGlobalConstraint(*c) + ")\n";
    }
  }
  if (aq.query.objective) {
    out += "Objective:\n  - " + aq.query.objective->ToString() + "\n";
    out += "      (" + paql::DescribeObjective(*aq.query.objective) + ")\n";
  }

  out += "\nSample package (" + std::to_string(sample.TotalCount()) +
         " tuples):\n";
  PB_ASSIGN_OR_RETURN(const db::Table materialized,
                      core::MaterializePackage(*aq.table, sample, "sample"));
  PB_ASSIGN_OR_RETURN(const std::string rendered,
                      materialized.ToString(options.max_sample_rows));
  out += rendered;

  // Live aggregate readout for every aggregate the query mentions.
  if (!aq.aggs.empty()) {
    out += "\nCurrent package aggregates:\n";
    for (const paql::AggCall& agg : aq.aggs) {
      PB_ASSIGN_OR_RETURN(db::Value v,
                          core::EvalPackageAgg(agg, *aq.table, sample));
      out += "  " + agg.ToString() + " = " + v.ToString() + "\n";
    }
  }
  return out;
}

}  // namespace pb::ui
