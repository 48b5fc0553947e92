#include "oracle.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "common/strings.h"
#include "core/translator.h"
#include "db/ops.h"
#include "paql/analyzer.h"
#include "storage/storage_budget.h"

namespace pbb {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

}  // namespace

// ---- Replayer -------------------------------------------------------------------

Replayer::Replayer(bool incremental_maintenance, size_t partition_size,
                   pb::storage::BlockCache* cache)
    : incremental_(incremental_maintenance),
      partition_size_(partition_size),
      cache_(cache) {}

const ReplayAnswer* Replayer::Last(const std::string& paql) const {
  auto it = last_.find(std::string(pb::StripAsciiWhitespace(paql)));
  return it == last_.end() ? nullptr : &it->second;
}

ReplayAnswer Replayer::Run(const std::string& paql) {
  ReplayAnswer out;
  LayerSpans& sp = out.spans;
  const std::string key(pb::StripAsciiWhitespace(paql));
  const pb::storage::BlockCacheStats before =
      cache_ != nullptr ? cache_->stats() : pb::storage::BlockCacheStats{};
  // Count-only budget: records this request's peak pinned bytes.
  pb::storage::StorageBudget budget = pb::storage::StorageBudget::Limited(0);
  [&] {
    pb::storage::StorageBudgetScope scope(budget);
    Clock::time_point t = Clock::now();
    auto aq_or = pb::paql::ParseAndAnalyze(paql, catalog_);
    sp.parse = Since(t);
    if (!aq_or.ok()) {
      out.status = aq_or.status();
      return;
    }
    const pb::paql::AnalyzedQuery& aq = *aq_or;
    if (!aq.ilp_translatable || (aq.has_objective && !aq.objective_linear)) {
      out.status = pb::Status::Unimplemented(
          "the replay covers the ILP-translatable route only");
      return;
    }
    t = Clock::now();
    auto candidates = pb::db::FilterIndices(*aq.table, aq.query.where);
    sp.filter = Since(t);
    if (!candidates.ok()) {
      out.status = candidates.status();
      return;
    }
    sp.rows_examined = static_cast<int64_t>(aq.table->num_rows());
    sp.candidates = static_cast<int64_t>(candidates->size());
    t = Clock::now();
    auto bounds = pb::core::DeriveCardinalityBounds(aq, *candidates);
    sp.bounds = Since(t);
    if (!bounds.ok()) {
      out.status = bounds.status();
      return;
    }
    sp.zone_skipped_blocks = bounds->zone_map_skipped_blocks;
    if (bounds->infeasible) {
      sp.infeasible = true;
      out.strategy = "Pruning";
      out.status = pb::Status::Infeasible("pruning proves infeasibility");
      return;
    }
    if (incremental_ && aq.extreme_constraints.empty() &&
        !aq.table->spilled()) {
      RunSketchRefine(aq, *bounds, key, &out);
    } else {
      RunIlp(aq, *bounds, &out);
    }
    if (!out.status.ok()) return;
    t = Clock::now();
    auto valid = pb::core::IsValidPackage(aq, out.package);
    sp.verify = Since(t);
    if (!valid.ok() || !*valid) {
      out.status = pb::Status::Internal("replayed package is not valid");
    }
  }();
  sp.peak_pinned_bytes = budget.peak_pinned_bytes();
  if (cache_ != nullptr) {
    const pb::storage::BlockCacheStats after = cache_->stats();
    sp.pins = (after.hits + after.misses) - (before.hits + before.misses);
    sp.block_reads = after.misses - before.misses;
    sp.evictions = after.evictions - before.evictions;
  }
  last_[key] = out;
  return out;
}

void Replayer::RunSketchRefine(const pb::paql::AnalyzedQuery& aq,
                               const pb::core::CardinalityBounds& bounds,
                               const std::string& key, ReplayAnswer* out) {
  // The engine's maintained route, with this replay's own state.
  LayerSpans& sp = out->spans;
  pb::core::SketchRefineOptions sro;
  sro.partition_size = partition_size_;
  sro.state = &states_[key];
  const Clock::time_point t = Clock::now();
  auto r = pb::core::SketchRefine(aq, sro);
  sp.sketch_refine = Since(t);
  sp.sketch = true;
  if (!r.ok()) {
    if (r.status().code() == pb::StatusCode::kUnimplemented) {
      RunIlp(aq, bounds, out);
    } else {
      out->strategy = "SketchRefine";
      out->status = r.status();
    }
    return;
  }
  sp.dirty_groups = r->dirty_groups;
  sp.groups_reused = r->groups_reused;
  sp.sketch_lp_iterations = r->lp_iterations;
  if (!r->found) {
    RunIlp(aq, bounds, out);
    return;
  }
  out->strategy = "SketchRefine";
  out->package = r->package;
  out->objective = aq.has_objective ? r->objective : 0.0;
}

void Replayer::RunIlp(const pb::paql::AnalyzedQuery& aq,
                      const pb::core::CardinalityBounds& bounds,
                      ReplayAnswer* out) {
  LayerSpans& sp = out->spans;
  out->strategy = "IlpSolver";
  pb::core::TranslateOptions topts;
  topts.bounds = &bounds;
  Clock::time_point t = Clock::now();
  auto tr = pb::core::TranslateToIlp(aq, topts);
  sp.translate += Since(t);
  if (!tr.ok()) {
    out->status = tr.status();
    return;
  }
  sp.ilp = true;
  for (const pb::solver::Constraint& c : tr->model.constraints()) {
    sp.model_nnz += static_cast<int64_t>(c.terms.size());
  }
  pb::solver::MilpOptions milp;
  milp.warm = &warm_[tr->model.StructuralSignature()];
  t = Clock::now();
  auto r = pb::solver::SolveMilp(tr->model, milp);
  sp.solve = Since(t);
  if (!r.ok()) {
    out->status = r.status();
    return;
  }
  sp.nodes = r->nodes;
  sp.lp_iterations = r->lp_iterations;
  sp.dual_iterations = r->lp_dual_iterations;
  sp.refactorizations = r->lp_refactorizations;
  switch (r->status) {
    case pb::solver::MilpStatus::kOptimal:
    case pb::solver::MilpStatus::kFeasible:
      t = Clock::now();
      out->package = pb::core::DecodeSolution(*tr, r->x);
      sp.decode = Since(t);
      out->objective = aq.has_objective ? r->objective : 0.0;
      out->proven_optimal = r->status == pb::solver::MilpStatus::kOptimal;
      return;
    case pb::solver::MilpStatus::kInfeasible:
      out->status = pb::Status::Infeasible("no package satisfies the query");
      return;
    case pb::solver::MilpStatus::kUnbounded:
      out->status = pb::Status::Unbounded("unbounded objective");
      return;
    case pb::solver::MilpStatus::kNoSolution:
      out->status = pb::Status::ResourceExhausted("no solution in budget");
      return;
  }
}

// ---- envelopes ------------------------------------------------------------------

ServedAnswer ReadEnvelope(const pb::json::Value& envelope) {
  ServedAnswer a;
  a.ok = envelope.GetBool("ok");
  if (!a.ok) {
    if (const pb::json::Value* err = envelope.Find("error")) {
      a.error_code = err->GetString("code");
    }
    return a;
  }
  const pb::json::Value* result = envelope.Find("result");
  if (result == nullptr) return a;
  if (const pb::json::Value* pkg = result->Find("package")) {
    const pb::json::Value* rows = pkg->Find("rows");
    const pb::json::Value* mult = pkg->Find("multiplicity");
    if (rows != nullptr && mult != nullptr &&
        rows->items().size() == mult->items().size()) {
      for (size_t i = 0; i < rows->items().size(); ++i) {
        a.package.rows.push_back(
            static_cast<size_t>(rows->items()[i].as_int()));
        a.package.multiplicity.push_back(mult->items()[i].as_int());
      }
    }
  }
  a.objective = result->GetNumber("objective");
  a.proven_optimal = result->GetBool("proven_optimal");
  a.strategy = result->GetString("strategy");
  if (const pb::json::Value* c = result->Find("counters")) {
    a.result_cache_hit = c->GetBool("result_cache_hit");
    a.warm_start_hit = c->GetBool("warm_start_hit");
    a.table_rows = c->GetInt("table_rows");
  }
  if (const pb::json::Value* t = result->Find("timings")) {
    a.total_seconds = t->GetNumber("total_seconds");
  }
  return a;
}

// ---- Checker --------------------------------------------------------------------

std::string Checker::Check(const std::string& paql, bool expect_infeasible,
                           const ServedAnswer& a) const {
  auto aq = pb::paql::ParseAndAnalyze(paql, *resident_);
  if (!aq.ok()) return "checker cannot analyze the query";
  if (!a.ok) {
    if (!expect_infeasible ||
        a.error_code != pb::StatusCodeToString(pb::StatusCode::kInfeasible)) {
      return "error envelope " + a.error_code;
    }
    auto candidates = pb::db::FilterIndices(*aq->table, aq->query.where);
    if (!candidates.ok()) return "checker filter failed";
    auto bounds = pb::core::DeriveCardinalityBounds(*aq, *candidates);
    if (!bounds.ok() || !bounds->infeasible) {
      return "served Infeasible, but the checker's bounds do not prove it";
    }
    return "";
  }
  if (expect_infeasible) return "answered a query built to be infeasible";
  if (a.strategy == "IlpSolver" && !a.proven_optimal) {
    return "ILP answer not proven optimal";
  }
  auto valid = pb::core::IsValidPackage(*aq, a.package);
  if (!valid.ok() || !*valid) return "package fails IsValidPackage";
  auto objective = pb::core::PackageObjective(*aq, a.package);
  if (!objective.ok()) return "checker cannot evaluate the objective";
  if (std::abs(*objective - a.objective) >
      kTol * std::max(1.0, std::abs(*objective))) {
    return "objective differs from the recomputed value";
  }
  return "";
}

std::string Checker::SelfTest(const std::string& paql,
                              const ServedAnswer& a) const {
  if (!Check(paql, false, a).empty()) return "self-test base answer rejected";
  ServedAnswer dropped = a;
  dropped.package.rows.pop_back();
  dropped.package.multiplicity.pop_back();
  if (Check(paql, false, dropped).empty()) {
    return "a package with one row dropped was not flagged";
  }
  ServedAnswer moved = a;
  moved.objective += 10 * kTol * std::max(1.0, std::abs(a.objective));
  if (Check(paql, false, moved).empty()) {
    return "an objective moved past the tolerance was not flagged";
  }
  return "";
}

}  // namespace pbb
