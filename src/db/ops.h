// The relational operators package queries run against a Table: the
// requests the paper's evaluation strategies send "via SQL" to the DBMS.
//   - base constraints (the WHERE scan) -> FilterIndices
//   - per-tuple weights of an aggregate -> GatherNumeric[Bound]
//   - package aggregates (SUCH THAT, objective) -> AggregateRows
//   - §4.2's literal replacement join -> CrossJoin
// No PaQL clause projects, sorts or groups a relation, so none of those
// operators is here. Packages reference base tuples by row index, so every
// operator but CrossJoin answers in row indices or values, not tables.

#ifndef PB_DB_OPS_H_
#define PB_DB_OPS_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/expr.h"
#include "db/table.h"

namespace pb::db {

/// Indices of rows from `first_row` on satisfying `pred` (null = all
/// rows), ascending. This is the form the package engine uses: packages
/// reference base tuples by index. Column-versus-literal predicates run
/// block-at-a-time with one pin per spilled block (see db/filter.h),
/// charged to the calling thread's StorageBudget; other shapes are
/// evaluated row by row. Both paths return the same rows, and a failed
/// block read is an error, never a non-match. The answer is the suffix of
/// the full scan's from `first_row` on, and reads only those rows: a
/// caller that saw the first rows of an append-only table scans just the
/// rows appended since (empty when `first_row` >= the row count).
Result<std::vector<size_t>> FilterIndices(const Table& table,
                                          const ExprPtr& pred,
                                          size_t first_row = 0);

enum class AggFunc { kCount, kSum, kAvg, kMin, kMax };

const char* AggFuncToString(AggFunc f);

/// Aggregates `arg` over a subset of row indices (with multiplicities),
/// used to validate packages without materializing them. For kCount, `arg`
/// may be null (COUNT(*)). SQL semantics: NULL inputs are skipped; empty
/// input yields NULL for SUM/AVG/MIN/MAX and 0 for COUNT. MIN/MAX ignore
/// multiplicities; SUM/AVG/COUNT scale by them.
Result<Value> AggregateRows(const Table& table, AggFunc func,
                            const ExprPtr& arg,
                            const std::vector<size_t>& rows,
                            const std::vector<int64_t>& multiplicities);

/// Cartesian product with an optional theta predicate evaluated over the
/// concatenated row. Columns are prefixed "left.x" / "right.x" when names
/// collide; otherwise original names are kept.
Result<Table> CrossJoin(const Table& left, const Table& right,
                        const ExprPtr& pred,
                        const std::string& result_name = "join");

/// Evaluates `expr` for each index in `rows` as a double (nullopt for SQL
/// NULL). When `expr` is a bare reference to a numeric column this is one
/// vectorized gather over the contiguous column span; otherwise it falls
/// back to per-row expression evaluation. A clone of `expr` is bound
/// against `table` internally; out-of-range row indices are an error.
Result<std::vector<std::optional<double>>> GatherNumeric(
    const Table& table, const ExprPtr& expr, const std::vector<size_t>& rows);

/// As GatherNumeric, but `expr` must already be bound against `table`'s
/// schema — the repeated-call form (no per-call clone + bind).
Result<std::vector<std::optional<double>>> GatherNumericBound(
    const Table& table, const Expr& expr, const std::vector<size_t>& rows);

}  // namespace pb::db

#endif  // PB_DB_OPS_H_
