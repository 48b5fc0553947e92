// CompiledFilter: block-at-a-time evaluation of WHERE predicates.
//
// FilterIndices (db/ops.h) is the one WHERE scan of a query. Its row path
// runs Expr::Matches per row, which builds a Value per cell and, on a
// spilled column, pins the cell's block through the BlockCache for every
// cell. WHERE clauses are mostly column-versus-literal tests joined by
// AND/OR/NOT; CompiledFilter compiles exactly those shapes into a small
// program and runs it a block of rows at a time over NumericColumnView
// block spans: one pin per block per column, no Value per cell.
//
// The answers are the row path's, bit for bit:
//  - Comparisons copy Value::Compare: INT cells compare as
//    static_cast<double>, and NaN compares equal to everything.
//  - AND/OR/NOT are Kleene, with NULL neither definitely true nor
//    definitely false. NOTs are pushed down to the leaves at compile time
//    by De Morgan, which holds in Kleene logic. A leaf under an even number
//    of NOTs yields its "definitely true" mask, one under an odd number its
//    "definitely false" mask, and a NULL row is in neither; AND and OR then
//    combine one mask per node with & and |.
//  - Leaves are type-checked at compile time, so no row can fail. A shape
//    that could fail on a row (a comparison of mismatched types raises
//    TypeError) or that the kernel does not cover (arithmetic over columns,
//    IN, LIKE, untyped columns) does not compile, and FilterIndices keeps
//    the row path for the whole predicate.
//
// Covered leaves, with the column on either side of a comparison:
//  - numeric column  {= <> < <= > >=}  numeric literal
//  - numeric column  [NOT] BETWEEN numeric literal AND numeric literal
//  - string column   {= <> < <= > >=}  string literal
//  - typed column    IS [NOT] NULL
// A "literal" is any subtree without a column reference that evaluates
// without error (so "-5", which parses as a negated literal, is one): the
// row path computes the same value on every row.
//
// The scan walks the rows one block at a time (the blocks of the numeric
// columns it reads). Spilled columns are never unspilled or copied: the
// scan holds one pinned block per column plus block-sized masks, and its
// pins charge the calling thread's StorageBudget (it is a bulk read). A
// failed read or a refused pin is returned as the error, never read as
// "row does not match".

#ifndef PB_DB_FILTER_H_
#define PB_DB_FILTER_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/expr.h"
#include "db/table.h"

namespace pb::db {

class CompiledFilter {
 public:
  /// Compiles `bound`, a predicate already bound against `table`'s schema.
  /// nullopt when any part of it is outside the covered shapes. The table
  /// must outlive the compiled filter.
  static std::optional<CompiledFilter> Compile(const Table& table,
                                               const Expr& bound);

  /// Ascending indices of the rows the predicate accepts. Fails only on a
  /// storage error: a failed block read or a pin the budget refused.
  Result<std::vector<size_t>> Run() const;

 private:
  enum class NodeKind {
    kAnd,
    kOr,
    kCompare,        // numeric column op literal
    kBetween,        // numeric column BETWEEN lo AND hi
    kStringCompare,  // string column op literal
    kIsNull,
  };

  struct Node {
    NodeKind kind = NodeKind::kAnd;
    int lhs = -1;  // kAnd / kOr: child node indices
    int rhs = -1;
    /// Leaves: invert the verdict on non-NULL rows (NOT BETWEEN, IS NOT
    /// NULL, and every NOT pushed down onto the leaf).
    bool invert = false;
    size_t column = 0;            // leaves: the table column
    int slot = -1;                // kCompare / kBetween: the value slot
    BinaryOp op = BinaryOp::kEq;  // comparisons, column on the left
    double lo = 0.0;              // kCompare's literal; BETWEEN's bounds
    double hi = 0.0;
    std::string text;             // kStringCompare's literal
  };

  explicit CompiledFilter(const Table& table) : table_(&table) {}

  /// Appends the program for `e`, negated when `negate` (an odd number of
  /// enclosing NOTs), and returns the index of its root node, or -1 when
  /// `e` is not covered.
  int Add(const Expr& e, bool negate);
  int Push(Node node);
  /// The value slot of numeric `column`, shared by every leaf reading it;
  /// -1 when its blocks do not line up with the other value columns'.
  int SlotFor(size_t column);

  const Table* table_;
  std::vector<Node> nodes_;    // children precede parents; root last
  std::vector<size_t> slots_;  // table column of each value slot
};

}  // namespace pb::db

#endif  // PB_DB_FILTER_H_
