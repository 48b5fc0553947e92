#include "core/evaluator.h"

#include "common/stopwatch.h"
#include "core/enumerator.h"
#include "core/translator.h"
#include "db/ops.h"
#include "paql/analyzer.h"

namespace pb::core {

const char* StrategyToString(Strategy s) {
  switch (s) {
    case Strategy::kAuto:        return "Auto";
    case Strategy::kIlpSolver:   return "IlpSolver";
    case Strategy::kBruteForce:  return "BruteForce";
    case Strategy::kLocalSearch: return "LocalSearch";
  }
  return "?";
}

namespace {

/// `candidates` are the WHERE survivors `bounds` came from; the translation
/// takes them over.
Result<EvaluationResult> RunIlp(const paql::AnalyzedQuery& aq,
                                const EvaluationOptions& options,
                                const CardinalityBounds& bounds,
                                std::vector<size_t>* candidates) {
  EvaluationResult out;
  out.strategy_used = Strategy::kIlpSolver;
  out.bounds = bounds;
  TranslateOptions topts;
  if (options.use_pruning) topts.bounds = &bounds;
  topts.candidates = candidates;
  PB_ASSIGN_OR_RETURN(IlpTranslation translation, TranslateToIlp(aq, topts));
  out.num_candidates = translation.candidates.size();
  PB_ASSIGN_OR_RETURN(solver::MilpResult r,
                      solver::SolveMilp(translation.model, options.milp));
  out.milp = r;
  switch (r.status) {
    case solver::MilpStatus::kOptimal:
    case solver::MilpStatus::kFeasible:
      out.package = DecodeSolution(translation, r.x);
      out.objective = aq.has_objective ? r.objective : 0.0;
      out.proven_optimal = r.status == solver::MilpStatus::kOptimal;
      return out;
    case solver::MilpStatus::kInfeasible:
      return Status::Infeasible("no package satisfies the constraints");
    case solver::MilpStatus::kUnbounded:
      return Status::Unbounded(
          "the objective is unbounded (add COUNT/SUM limits)");
    case solver::MilpStatus::kNoSolution:
      return Status::ResourceExhausted(
          "solver budget exhausted before a package was found");
  }
  return Status::Internal("unknown solver status");
}

Result<EvaluationResult> RunBruteForce(const paql::AnalyzedQuery& aq,
                                       const EvaluationOptions& options,
                                       const CardinalityBounds& bounds) {
  EvaluationResult out;
  out.strategy_used = Strategy::kBruteForce;
  out.bounds = bounds;
  BruteForceOptions bf = options.brute_force;
  bf.use_cardinality_pruning = options.use_pruning;
  PB_ASSIGN_OR_RETURN(BruteForceResult r, BruteForceSearch(aq, bf));
  out.brute_force = r;
  if (!r.found) {
    if (!r.exhausted) {
      return Status::ResourceExhausted(
          "brute-force budget exhausted before a package was found");
    }
    return Status::Infeasible("no package satisfies the constraints");
  }
  out.package = r.best;
  out.objective = r.best_objective;
  out.proven_optimal = r.exhausted;
  return out;
}

Result<EvaluationResult> RunLocalSearch(const paql::AnalyzedQuery& aq,
                                        const EvaluationOptions& options,
                                        const CardinalityBounds& bounds) {
  EvaluationResult out;
  out.strategy_used = Strategy::kLocalSearch;
  out.bounds = bounds;
  PB_ASSIGN_OR_RETURN(LocalSearchResult r,
                      LocalSearch(aq, options.local_search));
  out.local_search = r;
  if (!r.found) {
    return Status::Infeasible(
        "local search found no valid package (the query may still be "
        "satisfiable: the heuristic is incomplete)");
  }
  out.package = r.package;
  out.objective = r.objective;
  out.proven_optimal = false;
  return out;
}

}  // namespace

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
  if (options.use_pruning && bounds.infeasible) {
    return Status::Infeasible(
        "cardinality pruning proves no package can satisfy the constraints");
  }

  // RunIlp takes the candidate list over; every decision below uses n.
  const size_t n = candidates.size();
  auto finish = [&](Result<EvaluationResult> r) -> Result<EvaluationResult> {
    if (r.ok()) {
      r->seconds = timer.ElapsedSeconds();
      if (r->num_candidates == 0) r->num_candidates = n;
    }
    return r;
  };

  switch (options.strategy) {
    case Strategy::kIlpSolver:
      return finish(RunIlp(aq, options, bounds, &candidates));
    case Strategy::kBruteForce:
      return finish(RunBruteForce(aq, options, bounds));
    case Strategy::kLocalSearch:
      return finish(RunLocalSearch(aq, options, bounds));
    case Strategy::kAuto:
      break;
  }

  // ---- The hybrid policy (paper §5: "heuristically combines all of
  // them").
  const bool translatable =
      aq.ilp_translatable && (!aq.has_objective || aq.objective_linear);

  if (!translatable) {
    if (n <= options.brute_force_threshold) {
      return finish(RunBruteForce(aq, options, bounds));
    }
    auto ls = RunLocalSearch(aq, options, bounds);
    if (ls.ok()) return finish(std::move(ls));
    // Heuristic failed; a bounded brute-force pass is the last resort.
    EvaluationOptions bf_opts = options;
    bf_opts.brute_force.time_limit_s =
        std::min(bf_opts.brute_force.time_limit_s, 10.0);
    return finish(RunBruteForce(aq, bf_opts, bounds));
  }

  if (!aq.has_objective) {
    // Feasibility query: a short local-search burst often answers without
    // touching the solver.
    EvaluationOptions quick = options;
    quick.local_search.time_limit_s =
        std::min(options.local_search.time_limit_s, 0.25);
    quick.local_search.max_restarts = 3;
    auto ls = RunLocalSearch(aq, quick, bounds);
    if (ls.ok()) return finish(std::move(ls));
    return finish(RunIlp(aq, options, bounds, &candidates));
  }

  // Optimization query: the solver is exact; tiny inputs go exhaustive
  // (cheaper than the LP machinery and exact for any shape).
  if (n <= 12 && aq.max_multiplicity <= 2) {
    return finish(RunBruteForce(aq, options, bounds));
  }
  return finish(RunIlp(aq, options, bounds, &candidates));
}

Result<std::vector<Package>> QueryEvaluator::EvaluateAll(
    const paql::AnalyzedQuery& aq, const EvaluationOptions& options) {
  const size_t limit = static_cast<size_t>(aq.query.limit.value_or(1));
  const bool translatable =
      aq.ilp_translatable && (!aq.has_objective || aq.objective_linear);
  if (translatable && aq.max_multiplicity == 1) {
    EnumerateOptions opts;
    opts.max_packages = limit;
    opts.milp = options.milp;
    return EnumerateViaSolver(aq, opts);
  }
  BruteForceOptions bf = options.brute_force;
  bf.use_cardinality_pruning = options.use_pruning;
  return EnumerateExhaustively(aq, limit, bf);
}

Result<std::vector<Package>> QueryEvaluator::EvaluateAll(
    const std::string& paql, const EvaluationOptions& options) {
  PB_ASSIGN_OR_RETURN(paql::AnalyzedQuery aq,
                      paql::ParseAndAnalyze(paql, *catalog_));
  return EvaluateAll(aq, options);
}

}  // namespace pb::core
