// Package enumeration: producing *many* valid packages rather than one.
//
// The paper's interface needs this twice: the visual summary lays out "only
// packages found so far" (§3.2), and the Challenges section calls out that
// "constraint solvers are typically limited to returning a single package
// solution at a time, and retrieving more packages requires modifying and
// re-evaluating the query" (§5). EnumerateViaSolver implements exactly that
// modify-and-re-evaluate loop with no-good cuts; EnumerateExhaustively uses
// the brute-force oracle for small inputs.

#ifndef PB_CORE_ENUMERATOR_H_
#define PB_CORE_ENUMERATOR_H_

#include <vector>

#include "common/status.h"
#include "core/brute_force.h"
#include "core/package.h"
#include "solver/milp.h"

namespace pb::core {

struct EnumerateOptions {
  size_t max_packages = 50;
  solver::MilpOptions milp;
};

/// Repeatedly solves the translated ILP, excluding each found package with
/// a no-good cut (sum_{i in P} x_i - sum_{i not in P} x_i <= |P| - 1),
/// until max_packages are found or 30 s have passed (no solve runs past
/// that). Packages come out in non-increasing objective quality. Requires an
/// ILP-translatable query with REPEAT absent (binary multiplicities —
/// no-good cuts for general integers would not exclude single points).
Result<std::vector<Package>> EnumerateViaSolver(
    const paql::AnalyzedQuery& aq, const EnumerateOptions& options = {});

/// Collects up to `max_packages` valid packages exhaustively (exact for any
/// query shape; practical only for small candidate counts).
Result<std::vector<Package>> EnumerateExhaustively(
    const paql::AnalyzedQuery& aq, size_t max_packages,
    const BruteForceOptions& options = {});

/// Up to options.max_packages packages, best first: EnumerateViaSolver when
/// `aq` translates to an ILP without REPEAT, else EnumerateExhaustively.
Result<std::vector<Package>> EnumeratePackages(
    const paql::AnalyzedQuery& aq, const EnumerateOptions& options,
    const BruteForceOptions& brute_force = {});

/// Jaccard distance between two packages as multisets:
/// 1 - |A ∩ B| / |A ∪ B| (multiplicities included). 0 = identical.
double PackageJaccardDistance(const Package& a, const Package& b);

/// §5's "diverse package results" challenge: "we plan to devise techniques
/// to present the user with the most diverse and potentially interesting
/// packages." Enumerates a pool of `max_packages * pool_factor` candidates
/// (solver cuts when possible, exhaustive otherwise), then greedily keeps
/// the packages maximizing the minimum Jaccard distance to those already
/// chosen — the best-quality package always comes first.
Result<std::vector<Package>> EnumerateDiverse(
    const paql::AnalyzedQuery& aq, size_t max_packages,
    size_t pool_factor = 4, const EnumerateOptions& options = {});

}  // namespace pb::core

#endif  // PB_CORE_ENUMERATOR_H_
