#include "core/enumerator.h"

#include "common/stopwatch.h"
#include "core/translator.h"

namespace pb::core {

namespace {
/// Wall-clock budget of one EnumerateViaSolver call, all its solves included.
constexpr double kEnumerateTimeLimitS = 30.0;
}  // namespace

Result<std::vector<Package>> EnumerateViaSolver(
    const paql::AnalyzedQuery& aq, const EnumerateOptions& options) {
  if (aq.max_multiplicity != 1) {
    return Status::Unimplemented(
        "solver-based enumeration requires binary multiplicities (no REPEAT)");
  }
  Stopwatch timer;
  QueryInputs inputs;
  PB_ASSIGN_OR_RETURN(const CardinalityBounds bounds,
                      PrepareQuery(aq, &inputs));
  if (bounds.infeasible) return std::vector<Package>{};
  PB_ASSIGN_OR_RETURN(IlpTranslation translation,
                      TranslateToIlp(aq, &inputs, bounds));

  std::vector<Package> out;
  while (out.size() < options.max_packages &&
         timer.ElapsedSeconds() < kEnumerateTimeLimitS) {
    solver::MilpOptions milp = options.milp;
    milp.time_limit_s = std::min(milp.time_limit_s,
                                 kEnumerateTimeLimitS - timer.ElapsedSeconds());
    PB_ASSIGN_OR_RETURN(solver::MilpResult r,
                        solver::SolveMilp(translation.model, milp));
    if (!r.has_solution()) break;
    out.push_back(DecodeSolution(translation, r.x));
    AddNoGoodCut(out.back(), "nogood" + std::to_string(out.size()),
                 &translation);
  }
  return out;
}

Result<std::vector<Package>> EnumerateExhaustively(
    const paql::AnalyzedQuery& aq, size_t max_packages,
    const BruteForceOptions& options) {
  BruteForceOptions opts = options;
  opts.collect_limit = max_packages;
  PB_ASSIGN_OR_RETURN(BruteForceResult r, BruteForceSearch(aq, opts));
  return r.all;
}

Result<std::vector<Package>> EnumeratePackages(
    const paql::AnalyzedQuery& aq, const EnumerateOptions& options,
    const BruteForceOptions& brute_force) {
  if (aq.TranslatesToIlp() && aq.max_multiplicity == 1) {
    return EnumerateViaSolver(aq, options);
  }
  return EnumerateExhaustively(aq, options.max_packages, brute_force);
}

double PackageJaccardDistance(const Package& a, const Package& b) {
  // Merge-walk over the sorted row lists.
  size_t i = 0, j = 0;
  int64_t intersection = 0, union_size = 0;
  while (i < a.rows.size() || j < b.rows.size()) {
    if (j >= b.rows.size() || (i < a.rows.size() && a.rows[i] < b.rows[j])) {
      union_size += a.multiplicity[i];
      ++i;
    } else if (i >= a.rows.size() || b.rows[j] < a.rows[i]) {
      union_size += b.multiplicity[j];
      ++j;
    } else {
      intersection += std::min(a.multiplicity[i], b.multiplicity[j]);
      union_size += std::max(a.multiplicity[i], b.multiplicity[j]);
      ++i;
      ++j;
    }
  }
  if (union_size == 0) return 0.0;  // both empty
  return 1.0 - static_cast<double>(intersection) /
                   static_cast<double>(union_size);
}

Result<std::vector<Package>> EnumerateDiverse(
    const paql::AnalyzedQuery& aq, size_t max_packages, size_t pool_factor,
    const EnumerateOptions& options) {
  if (max_packages == 0) return std::vector<Package>{};
  // Build the candidate pool.
  EnumerateOptions pool_opts = options;
  pool_opts.max_packages = max_packages * std::max<size_t>(pool_factor, 1);
  PB_ASSIGN_OR_RETURN(std::vector<Package> pool,
                      EnumeratePackages(aq, pool_opts));
  if (pool.size() <= max_packages) return pool;

  // Greedy max-min selection. The pool comes best-first, so seeding with
  // pool[0] keeps the top-quality package in every result set.
  std::vector<Package> chosen;
  std::vector<bool> used(pool.size(), false);
  chosen.push_back(pool[0]);
  used[0] = true;
  std::vector<double> min_dist(pool.size(), 0.0);
  for (size_t p = 0; p < pool.size(); ++p) {
    min_dist[p] = PackageJaccardDistance(pool[p], pool[0]);
  }
  while (chosen.size() < max_packages) {
    size_t best = 0;
    double best_dist = -1.0;
    for (size_t p = 0; p < pool.size(); ++p) {
      if (!used[p] && min_dist[p] > best_dist) {
        best_dist = min_dist[p];
        best = p;
      }
    }
    if (best_dist < 0) break;
    used[best] = true;
    chosen.push_back(pool[best]);
    for (size_t p = 0; p < pool.size(); ++p) {
      if (!used[p]) {
        min_dist[p] = std::min(min_dist[p],
                               PackageJaccardDistance(pool[p], pool[best]));
      }
    }
  }
  return chosen;
}

}  // namespace pb::core
