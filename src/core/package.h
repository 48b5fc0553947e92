// Package: the answer object of a package query — a multiset of base-table
// tuples, stored as (row index, multiplicity) pairs against the query's
// base table.
//
// Aggregate semantics over packages:
//   COUNT(*)           total multiplicity (0 for the empty package)
//   COUNT(e)/SUM(e)    NULL cells skipped; SUM of an empty package is 0
//   AVG/MIN/MAX        NULL over an empty package; a comparison against
//                      NULL is unsatisfied (SQL three-valued logic)

#ifndef PB_CORE_PACKAGE_H_
#define PB_CORE_PACKAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/table.h"
#include "paql/analyzer.h"

namespace pb::core {

/// A multiset of base-table rows. Invariant: `rows` strictly increasing,
/// multiplicities >= 1 (normalized form; use Normalize() after bulk edits).
struct Package {
  std::vector<size_t> rows;
  std::vector<int64_t> multiplicity;

  bool empty() const { return rows.empty(); }

  /// Total tuple count (sum of multiplicities).
  int64_t TotalCount() const;

  /// Adds `count` occurrences of `row`, keeping the normalized form.
  void Add(size_t row, int64_t count = 1);

  /// Removes up to `count` occurrences of `row`; returns how many were
  /// actually removed.
  int64_t Remove(size_t row, int64_t count = 1);

  /// Multiplicity of `row` (0 when absent).
  int64_t MultiplicityOf(size_t row) const;

  /// Sorts by row and merges duplicates; drops zero multiplicities.
  void Normalize();

  /// Stable content identity ("3x1,7x2" = row 3 once, row 7 twice).
  std::string Fingerprint() const;

  bool operator==(const Package& other) const {
    return rows == other.rows && multiplicity == other.multiplicity;
  }
};

/// Evaluates one aggregate over a package (see semantics above).
Result<db::Value> EvalPackageAgg(const paql::AggCall& agg,
                                 const db::Table& table, const Package& pkg);

/// Evaluates a global-constraint expression over a package. Comparisons and
/// BETWEEN yield BOOL or NULL; arithmetic yields numerics.
Result<db::Value> EvalGExpr(const paql::GExpr& e, const db::Table& table,
                            const Package& pkg);

/// True iff the package satisfies the whole SUCH THAT clause (a missing
/// clause is trivially satisfied; NULL results count as unsatisfied).
Result<bool> SatisfiesGlobalConstraints(const paql::AnalyzedQuery& aq,
                                        const Package& pkg);

/// True iff every member tuple satisfies the WHERE clause. Reads each
/// member's cells from the table, so a failed spilled-block read is the
/// returned error, not a verdict.
Result<bool> SatisfiesBaseConstraints(const paql::AnalyzedQuery& aq,
                                      const Package& pkg);

/// Full validity: base + global + multiplicity cap (REPEAT).
Result<bool> IsValidPackage(const paql::AnalyzedQuery& aq, const Package& pkg);

/// Objective value of the package (0 when the query has no objective).
Result<double> PackageObjective(const paql::AnalyzedQuery& aq,
                                const Package& pkg);

/// Materializes the package as a table (repeated tuples appear repeatedly),
/// e.g. for display or CSV export. A row past the table is OutOfRange, and
/// a cell that cannot be read (a failed spilled-block pin) is its error.
Result<db::Table> MaterializePackage(const db::Table& table,
                                     const Package& pkg,
                                     const std::string& name = "package");

}  // namespace pb::core

#endif  // PB_CORE_PACKAGE_H_
