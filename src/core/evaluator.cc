#include "core/evaluator.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "core/enumerator.h"
#include "core/translator.h"
#include "db/ops.h"
#include "paql/analyzer.h"

namespace pb::core {

namespace {

/// Candidate count at or below which a non-translatable query runs brute
/// force instead of local search.
constexpr size_t kBruteForceThreshold = 24;

}  // namespace

const char* StrategyToString(Strategy s) {
  switch (s) {
    case Strategy::kAuto:         return "Auto";
    case Strategy::kIlpSolver:    return "IlpSolver";
    case Strategy::kBruteForce:   return "BruteForce";
    case Strategy::kLocalSearch:  return "LocalSearch";
    case Strategy::kPruning:      return "Pruning";
    case Strategy::kSketchRefine: return "SketchRefine";
  }
  return "?";
}

bool SketchRefineEligible(const paql::AnalyzedQuery& aq,
                          const EvaluationOptions& options) {
  // SketchRefine cannot express MIN/MAX constraints, and spilled tables are
  // append-frozen, so their partitions would never be maintained.
  return options.strategy == Strategy::kAuto && aq.TranslatesToIlp() &&
         aq.extreme_constraints.empty() && !aq.table->spilled();
}

Result<QueryRoute> PlanQuery(const paql::AnalyzedQuery& aq,
                             const CardinalityBounds& bounds,
                             size_t num_candidates,
                             const EvaluationOptions& options,
                             bool maintained_partitions) {
  if (bounds.infeasible) {
    return QueryRoute{Strategy::kPruning, std::nullopt,
                      "pruning proves infeasibility"};
  }
  if (options.strategy == Strategy::kPruning ||
      options.strategy == Strategy::kSketchRefine) {
    return Status::InvalidArgument(std::string("strategy ") +
                                   StrategyToString(options.strategy) +
                                   " cannot be forced");
  }
  if (options.strategy != Strategy::kAuto) {
    return QueryRoute{options.strategy, std::nullopt, "forced by options"};
  }
  if (!aq.TranslatesToIlp()) {
    if (num_candidates <= kBruteForceThreshold) {
      return QueryRoute{Strategy::kBruteForce, std::nullopt,
                        "disjunctive/non-linear constraints on a small "
                        "candidate set: exhaustive search is exact and cheap"};
    }
    return QueryRoute{Strategy::kLocalSearch, Strategy::kBruteForce,
                      "disjunctive/non-linear constraints: the solver cannot "
                      "express them; heuristic search (incomplete)"};
  }
  if (maintained_partitions && SketchRefineEligible(aq, options)) {
    return QueryRoute{Strategy::kSketchRefine, Strategy::kIlpSolver,
                      "maintained partitions: after appends only the dirty "
                      "groups re-solve"};
  }
  if (!aq.has_objective) {
    return QueryRoute{Strategy::kLocalSearch, Strategy::kIlpSolver,
                      "feasibility-only query: a short heuristic burst "
                      "usually answers before the solver is needed"};
  }
  return QueryRoute{Strategy::kIlpSolver, std::nullopt,
                    "conjunctive linear optimization query: "
                    "branch-and-bound is exact"};
}

Status MilpResultStatus(const solver::MilpResult& r) {
  switch (r.status) {
    case solver::MilpStatus::kOptimal:
    case solver::MilpStatus::kFeasible:
      return Status::OK();
    case solver::MilpStatus::kInfeasible:
      return Status::Infeasible("no package satisfies the constraints");
    case solver::MilpStatus::kUnbounded:
      return Status::Unbounded(
          "the objective is unbounded (add COUNT/SUM limits)");
    case solver::MilpStatus::kNoSolution:
      return Status::ResourceExhausted(
          r.cancelled ? "query cancelled before a package was found"
                      : "query budget exhausted before a package was found");
  }
  return Status::Internal("unknown solver status");
}

Result<EvaluationResult> RunStep(Strategy step, const QueryRoute& route,
                                 const paql::AnalyzedQuery& aq,
                                 const EvaluationOptions& options,
                                 const CardinalityBounds& bounds,
                                 std::vector<size_t>* candidates) {
  EvaluationResult out;
  out.strategy_used = step;
  out.bounds = bounds;
  out.num_candidates = candidates->size();
  switch (step) {
    case Strategy::kPruning:
      return Status::Infeasible(
          "cardinality pruning proves no package can satisfy the "
          "constraints");
    case Strategy::kIlpSolver: {
      TranslateOptions topts;
      topts.bounds = &bounds;
      topts.candidates = candidates;
      PB_ASSIGN_OR_RETURN(IlpTranslation translation,
                          TranslateToIlp(aq, topts));
      PB_ASSIGN_OR_RETURN(solver::MilpResult r,
                          solver::SolveMilp(translation.model, options.milp));
      PB_RETURN_IF_ERROR(MilpResultStatus(r));
      out.package = DecodeSolution(translation, r.x);
      out.objective = aq.has_objective ? r.objective : 0.0;
      out.proven_optimal = r.status == solver::MilpStatus::kOptimal;
      return out;
    }
    case Strategy::kBruteForce: {
      BruteForceOptions bf = options.brute_force;
      // The last resort after a failed heuristic stays bounded.
      if (route.fallback == Strategy::kBruteForce) {
        bf.time_limit_s = std::min(bf.time_limit_s, 10.0);
      }
      PB_ASSIGN_OR_RETURN(BruteForceResult r,
                          BruteForceSearch(aq, *candidates, bounds, bf));
      if (!r.found) {
        if (!r.exhausted) {
          return Status::ResourceExhausted(
              "brute-force budget exhausted before a package was found");
        }
        return Status::Infeasible("no package satisfies the constraints");
      }
      out.package = std::move(r.best);
      out.objective = r.best_objective;
      out.proven_optimal = r.exhausted;
      return out;
    }
    case Strategy::kLocalSearch: {
      LocalSearchOptions ls = options.local_search;
      if (route.fallback == Strategy::kIlpSolver) {
        ls.time_limit_s = std::min(ls.time_limit_s, 0.25);
        ls.max_restarts = 3;
      }
      PB_ASSIGN_OR_RETURN(LocalSearchResult r,
                          LocalSearch(aq, *candidates, bounds, ls));
      if (!r.found) {
        return Status::Infeasible(
            "local search found no valid package (the query may still be "
            "satisfiable: the heuristic is incomplete)");
      }
      out.package = std::move(r.package);
      out.objective = r.objective;
      return out;
    }
    case Strategy::kAuto:
    case Strategy::kSketchRefine:
      break;
  }
  return Status::InvalidArgument(std::string("no evaluator step runs ") +
                                 StrategyToString(step));
}

Result<EvaluationResult> QueryEvaluator::Evaluate(
    const std::string& paql, const EvaluationOptions& options) {
  PB_ASSIGN_OR_RETURN(paql::AnalyzedQuery aq,
                      paql::ParseAndAnalyze(paql, *catalog_));
  return Evaluate(aq, options);
}

Result<EvaluationResult> QueryEvaluator::Evaluate(
    const paql::AnalyzedQuery& aq, const EvaluationOptions& options) {
  Stopwatch timer;
  PB_ASSIGN_OR_RETURN(std::vector<size_t> candidates,
                      db::FilterIndices(*aq.table, aq.query.where));
  PB_ASSIGN_OR_RETURN(CardinalityBounds bounds,
                      DeriveCardinalityBounds(aq, candidates));
  PB_ASSIGN_OR_RETURN(const QueryRoute route,
                      PlanQuery(aq, bounds, candidates.size(), options));
  Result<EvaluationResult> r =
      RunStep(route.strategy, route, aq, options, bounds, &candidates);
  if (route.fallback && r.status().code() == StatusCode::kInfeasible) {
    r = RunStep(*route.fallback, route, aq, options, bounds, &candidates);
  }
  if (r.ok()) r->seconds = timer.ElapsedSeconds();
  return r;
}

Result<std::vector<Package>> QueryEvaluator::EvaluateAll(
    const paql::AnalyzedQuery& aq, const EvaluationOptions& options) {
  const size_t limit = static_cast<size_t>(aq.query.limit.value_or(1));
  if (aq.TranslatesToIlp() && aq.max_multiplicity == 1) {
    EnumerateOptions opts;
    opts.max_packages = limit;
    opts.milp = options.milp;
    return EnumerateViaSolver(aq, opts);
  }
  return EnumerateExhaustively(aq, limit, options.brute_force);
}

Result<std::vector<Package>> QueryEvaluator::EvaluateAll(
    const std::string& paql, const EvaluationOptions& options) {
  PB_ASSIGN_OR_RETURN(paql::AnalyzedQuery aq,
                      paql::ParseAndAnalyze(paql, *catalog_));
  return EvaluateAll(aq, options);
}

}  // namespace pb::core
