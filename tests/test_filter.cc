// The block-at-a-time WHERE kernel (db/filter.h) against the row path.
//
// The property test draws random tables (NULL, NaN and +-inf cells; INT,
// DOUBLE, STRING, BOOL and untyped columns; resident, and spilled at small
// block sizes through a cache of one or two blocks) and random predicate
// trees (every covered leaf in both operand orders, [NOT] BETWEEN,
// IS [NOT] NULL, nested AND/OR/NOT, and the shapes that keep the row path:
// arithmetic, IN, LIKE, mismatched types, untyped and BOOL columns). Each
// case must return exactly the row path's index list, or the same error
// code. The row path -- Expr::Matches row by row -- is the reference.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "db/expr.h"
#include "db/filter.h"
#include "db/ops.h"
#include "db/table.h"
#include "storage/block_cache.h"
#include "storage/storage_budget.h"

namespace pb::db {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// The reference: today's row-at-a-time evaluation.
Result<std::vector<size_t>> RowPath(const Table& table, const ExprPtr& pred) {
  ExprPtr bound = pred->Clone();
  PB_RETURN_IF_ERROR(bound->Bind(table.schema()));
  std::vector<size_t> out;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    PB_ASSIGN_OR_RETURN(bool keep, bound->Matches(table, i));
    if (keep) out.push_back(i);
  }
  return out;
}

bool Compiles(const Table& table, const ExprPtr& pred) {
  ExprPtr bound = pred->Clone();
  EXPECT_TRUE(bound->Bind(table.schema()).ok());
  return CompiledFilter::Compile(table, *bound).has_value();
}

// ----- Random tables --------------------------------------------------------

const double kDoublePool[] = {-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0,
                              kNaN,  kInf, -kInf};
const char* const kStringPool[] = {"", "a", "ab", "b", "ba", "c"};

Value RandomDouble(Rng& rng) {
  if (rng.Bernoulli(0.5)) return Value::Double(kDoublePool[rng.Index(10)]);
  return Value::Double(std::round(rng.UniformReal(-4, 4) * 4) / 4);
}

Value RandomInt(Rng& rng) {
  if (rng.Bernoulli(0.1)) {
    // Beyond 2^53: the row path compares these as rounded doubles too.
    return Value::Int((int64_t{1} << 53) + rng.UniformInt(-2, 2));
  }
  return Value::Int(rng.UniformInt(-4, 4));
}

Table RandomTable(Rng& rng, size_t rows) {
  Table t("t", Schema({{"i", ValueType::kInt},
                       {"d", ValueType::kDouble},
                       {"e", ValueType::kDouble},
                       {"s", ValueType::kString},
                       {"b", ValueType::kBool},
                       {"u", ValueType::kNull}}));
  auto maybe_null = [&](Value v) {
    return rng.Bernoulli(0.15) ? Value::Null() : std::move(v);
  };
  for (size_t r = 0; r < rows; ++r) {
    Value untyped;
    switch (rng.Index(3)) {
      case 0: untyped = RandomInt(rng); break;
      case 1: untyped = RandomDouble(rng); break;
      default: untyped = Value::String(kStringPool[rng.Index(6)]); break;
    }
    // DOUBLE column e also stores widened INT appends.
    Value e = rng.Bernoulli(0.3) ? RandomInt(rng) : RandomDouble(rng);
    t.AppendUnchecked({maybe_null(RandomInt(rng)),
                       maybe_null(RandomDouble(rng)), maybe_null(e),
                       maybe_null(Value::String(kStringPool[rng.Index(6)])),
                       maybe_null(Value::Bool(rng.Bernoulli(0.5))),
                       maybe_null(untyped)});
  }
  return t;
}

// ----- Random predicates ----------------------------------------------------

const char* const kNumericCols[] = {"i", "d", "e"};
const BinaryOp kCmpOps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                            BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};

/// A numeric literal: INT or DOUBLE (NaN and +-inf included), sometimes
/// written the way the parser writes "-x", as a negated literal.
ExprPtr NumericLiteral(Rng& rng) {
  ExprPtr lit = rng.Bernoulli(0.4) ? Lit(RandomInt(rng)) : Lit(RandomDouble(rng));
  if (rng.Bernoulli(0.2)) return Unary(UnaryOp::kNeg, lit);
  return lit;
}

ExprPtr Comparison(Rng& rng, ExprPtr col, ExprPtr lit) {
  const BinaryOp op = kCmpOps[rng.Index(6)];
  if (rng.Bernoulli(0.5)) return Binary(op, std::move(lit), std::move(col));
  return Binary(op, std::move(col), std::move(lit));
}

/// A random leaf; `covered` is cleared when the kernel must not compile it.
ExprPtr RandomLeaf(Rng& rng, bool* covered) {
  switch (rng.Index(12)) {
    case 0:
    case 1:
      return Comparison(rng, Col(kNumericCols[rng.Index(3)]),
                        NumericLiteral(rng));
    case 2: {
      ExprPtr lo = NumericLiteral(rng);
      ExprPtr hi = NumericLiteral(rng);
      return Between(Col(kNumericCols[rng.Index(3)]), lo, hi,
                     rng.Bernoulli(0.5));
    }
    case 3: {
      static const char* const kCols[] = {"i", "d", "e", "s", "b", "u"};
      const size_t c = rng.Index(6);
      if (c == 5) *covered = false;  // untyped column
      return IsNull(Col(kCols[c]), rng.Bernoulli(0.5));
    }
    case 4:
      return Comparison(rng, Col("s"),
                        LitString(kStringPool[rng.Index(6)]));
    case 5:  // arithmetic over columns
      *covered = false;
      return Comparison(rng, Binary(BinaryOp::kAdd, Col("i"), Col("d")),
                        NumericLiteral(rng));
    case 6:
      *covered = false;
      return In(Col(kNumericCols[rng.Index(3)]),
                {Value::Int(1), Value::Double(kNaN), Value::Double(0.5)},
                rng.Bernoulli(0.5));
    case 7:
      *covered = false;
      return Like(Col("s"), "a%", rng.Bernoulli(0.5));
    case 8:  // mismatched types: TypeError on the first non-NULL cell
      *covered = false;
      return rng.Bernoulli(0.5)
                 ? Comparison(rng, Col("s"), NumericLiteral(rng))
                 : Comparison(rng, Col(kNumericCols[rng.Index(3)]),
                              LitString("a"));
    case 9:
      *covered = false;
      return Comparison(rng, Col("u"), NumericLiteral(rng));
    case 10:
      *covered = false;
      return Comparison(rng, Col("b"), LitBool(true));
    default:  // column against column
      *covered = false;
      return Comparison(rng, Col("i"), Col("d"));
  }
}

ExprPtr RandomPredicate(Rng& rng, int depth, bool* covered) {
  if (depth == 0 || rng.Bernoulli(0.35)) return RandomLeaf(rng, covered);
  switch (rng.Index(3)) {
    case 0:
      return Unary(UnaryOp::kNot, RandomPredicate(rng, depth - 1, covered));
    case 1:
      return Binary(BinaryOp::kAnd, RandomPredicate(rng, depth - 1, covered),
                    RandomPredicate(rng, depth - 1, covered));
    default:
      return Binary(BinaryOp::kOr, RandomPredicate(rng, depth - 1, covered),
                    RandomPredicate(rng, depth - 1, covered));
  }
}

// ----- The property ---------------------------------------------------------

void ExpectSameAsRowPath(const Table& table, const ExprPtr& pred) {
  Result<std::vector<size_t>> want = RowPath(table, pred);
  Result<std::vector<size_t>> got = FilterIndices(table, pred);
  ASSERT_EQ(got.ok(), want.ok())
      << pred->ToString() << "\n  kernel: " << got.status().ToString()
      << "\n  row path: " << want.status().ToString();
  if (want.ok()) {
    EXPECT_EQ(*got, *want) << pred->ToString();
  } else {
    EXPECT_EQ(got.status().code(), want.status().code()) << pred->ToString();
  }
}

class FilterKernelPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FilterKernelPropertyTest, MatchesRowPathBitForBit) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 17);
  for (int layout = 0; layout < 4; ++layout) {
    std::unique_ptr<storage::BlockCache> cache;  // outlives the table
    Table table = RandomTable(rng, rng.Index(160));
    if (layout == 1) table.SetBlockSize(1 + rng.Index(16));
    if (layout >= 2) {
      // Spilled at a small block size through a cache of one or two blocks.
      const size_t block_size = 1 + rng.Index(16);
      cache = std::make_unique<storage::BlockCache>(
          static_cast<int64_t>(layout - 1) *
          static_cast<int64_t>(8 * block_size + 8));
      ASSERT_TRUE(table
                      .SpillToDisk(TempPath("filter_prop.seg"), block_size,
                                   cache.get())
                      .ok());
    }
    for (int q = 0; q < 60; ++q) {
      bool covered = true;
      ExprPtr pred = RandomPredicate(rng, 3, &covered);
      ExpectSameAsRowPath(table, pred);
      EXPECT_EQ(Compiles(table, pred), covered) << pred->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterKernelPropertyTest,
                         ::testing::Range(1, 13));

// ----- Pinned semantics -----------------------------------------------------

Table NaNTable() {
  Table t("n", Schema({{"x", ValueType::kDouble}, {"k", ValueType::kInt}}));
  t.AppendUnchecked({Value::Double(kNaN), Value::Int(1)});
  t.AppendUnchecked({Value::Double(2.0), Value::Null()});
  t.AppendUnchecked({Value::Null(), Value::Int(3)});
  t.AppendUnchecked({Value::Double(-kInf), Value::Int(4)});
  return t;
}

std::vector<size_t> Filter(const Table& t, const ExprPtr& pred) {
  Result<std::vector<size_t>> r = FilterIndices(t, pred);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : std::vector<size_t>{};
}

TEST(FilterKernelTest, NaNComparesEqualToEverything) {
  // Value::Compare returns 0 for NaN, so "=", "<=" and ">=" hold and
  // "<", ">" and "<>" do not; NULL (row 2) never matches.
  const Table t = NaNTable();
  EXPECT_EQ(Filter(t, Binary(BinaryOp::kEq, Col("x"), LitDouble(5))),
            (std::vector<size_t>{0}));
  EXPECT_EQ(Filter(t, Binary(BinaryOp::kLe, Col("x"), LitDouble(0))),
            (std::vector<size_t>{0, 3}));
  EXPECT_EQ(Filter(t, Binary(BinaryOp::kGt, Col("x"), LitDouble(0))),
            (std::vector<size_t>{1}));
  EXPECT_EQ(Filter(t, Binary(BinaryOp::kNe, LitDouble(2), Col("x"))),
            (std::vector<size_t>{3}));
  EXPECT_EQ(Filter(t, Between(Col("x"), LitInt(1), LitInt(3))),
            (std::vector<size_t>{0, 1}));
}

TEST(FilterKernelTest, KleeneLogicKeepsNullOutOfBothMasks) {
  const Table t = NaNTable();
  // NOT (NULL > 0) is NULL: row 2 matches neither the test nor its NOT.
  EXPECT_EQ(Filter(t, Unary(UnaryOp::kNot,
                            Binary(BinaryOp::kGt, Col("x"), LitInt(0)))),
            (std::vector<size_t>{0, 3}));
  // NULL OR TRUE is TRUE. TRUE AND NULL is NULL (row 1), and so is its NOT;
  // NULL AND FALSE is FALSE (row 2), so its NOT is TRUE.
  EXPECT_EQ(Filter(t, Binary(BinaryOp::kOr,
                             Binary(BinaryOp::kGt, Col("k"), LitInt(2)),
                             IsNull(Col("k")))),
            (std::vector<size_t>{1, 2, 3}));
  EXPECT_EQ(Filter(t, Unary(UnaryOp::kNot,
                            Binary(BinaryOp::kAnd,
                                   Binary(BinaryOp::kGt, Col("x"), LitInt(0)),
                                   Binary(BinaryOp::kLt, Col("k"), LitInt(0))))),
            (std::vector<size_t>{0, 2, 3}));
}

TEST(FilterKernelTest, NegativeLiteralsCompile) {
  // The parser writes "-1" as a negated literal; it is still a literal.
  const Table t = NaNTable();
  ExprPtr pred = Binary(BinaryOp::kGe, Col("x"), Unary(UnaryOp::kNeg, LitInt(1)));
  EXPECT_TRUE(Compiles(t, pred));
  EXPECT_EQ(Filter(t, pred), (std::vector<size_t>{0, 1}));
}

// ----- Spilled columns ------------------------------------------------------

/// 100 rows of (a INT, b DOUBLE), a = r % 10, b = r / 4.
Table TwoColumnTable() {
  Table t("two", Schema({{"a", ValueType::kInt}, {"b", ValueType::kDouble}}));
  for (int r = 0; r < 100; ++r) {
    t.AppendUnchecked({Value::Int(r % 10), Value::Double(r / 4.0)});
  }
  return t;
}

TEST(FilterKernelTest, OnePinPerBlockPerColumn) {
  Table t = TwoColumnTable();
  storage::BlockCache cache(/*budget_bytes=*/2 * (16 * 8 + 8));
  ASSERT_TRUE(t.SpillToDisk(TempPath("filter_pins.seg"), 16, &cache).ok());
  // Three leaves on column a and one on b: still one pin per block of each.
  ExprPtr pred = Binary(
      BinaryOp::kAnd,
      Binary(BinaryOp::kAnd, Between(Col("a"), LitInt(2), LitInt(7)),
             Binary(BinaryOp::kNe, Col("a"), LitInt(4))),
      Binary(BinaryOp::kOr, Binary(BinaryOp::kLt, Col("b"), LitDouble(10)),
             Binary(BinaryOp::kEq, LitInt(9), Col("a"))));
  const storage::BlockCacheStats before = cache.stats();
  Result<std::vector<size_t>> got = FilterIndices(t, pred);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const storage::BlockCacheStats after = cache.stats();
  const uint64_t blocks_per_column = (100 + 15) / 16;
  EXPECT_EQ((after.hits + after.misses) - (before.hits + before.misses),
            2 * blocks_per_column);
  EXPECT_EQ(*got, *RowPath(t, pred));
}

TEST(FilterKernelTest, ScanIsChargedToTheStorageBudget) {
  Table t = TwoColumnTable();
  storage::BlockCache cache(0);
  ASSERT_TRUE(t.SpillToDisk(TempPath("filter_budget.seg"), 16, &cache).ok());
  ExprPtr pred = Binary(BinaryOp::kLe, Col("a"), LitInt(4));

  storage::StorageBudget counting = storage::StorageBudget::Limited(0);
  {
    storage::StorageBudgetScope scope(counting);
    ASSERT_TRUE(FilterIndices(t, pred).ok());
  }
  EXPECT_GT(counting.peak_pinned_bytes(), 0);
  EXPECT_EQ(counting.pinned_bytes(), 0);  // every pin released

  storage::StorageBudget tight = storage::StorageBudget::Limited(1);
  storage::StorageBudgetScope scope(tight);
  EXPECT_EQ(FilterIndices(t, pred).status().code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace pb::db
