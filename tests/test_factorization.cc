// BasisFactorization layer tests: the dense inverse and the sparse LU must
// be interchangeable — same solves (up to roundoff), same singularity
// verdicts, residuals that actually satisfy B x = b against the basis
// matrix assembled independently from the model — plus the CSC view's
// agreement with the authoritative row storage it is derived from.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "solver/factorization.h"
#include "solver/model.h"

namespace pb::solver {
namespace {

/// Dense model: every variable appears in every row with a nonzero random
/// coefficient, so any basis without repeated columns is nonsingular with
/// probability one.
LpModel DenseRandomModel(int n, int m, uint64_t seed) {
  Rng rng(seed);
  LpModel model;
  for (int j = 0; j < n; ++j) {
    model.AddVariable("x" + std::to_string(j), 0.0, 1.0, 1.0,
                      /*is_integer=*/false);
  }
  for (int i = 0; i < m; ++i) {
    std::vector<LinearTerm> terms;
    for (int j = 0; j < n; ++j) {
      double c = rng.UniformReal(0.5, 2.0);
      if (rng.UniformReal(0.0, 1.0) < 0.5) c = -c;
      terms.push_back({j, c});
    }
    model.AddConstraint("r" + std::to_string(i), std::move(terms), 0.0, 1.0);
  }
  return model;
}

/// Column `j` of the basis matrix, assembled from the row storage (not the
/// column view) so the factorization backends are checked against an
/// independent reading of the model. Slack j >= n is -e_{j-n}.
std::vector<double> BasisColumn(const LpModel& model, int j) {
  int m = model.num_constraints();
  std::vector<double> col(m, 0.0);
  if (j < model.num_variables()) {
    for (int i = 0; i < m; ++i) {
      for (const LinearTerm& t : model.constraint(i).terms) {
        if (t.var == j) col[i] += t.coeff;
      }
    }
  } else {
    col[j - model.num_variables()] = -1.0;
  }
  return col;
}

/// B x for the basis matrix whose column i is BasisColumn(basis[i]).
std::vector<double> MultiplyBasis(const LpModel& model,
                                  const std::vector<int>& basis,
                                  const std::vector<double>& x) {
  int m = model.num_constraints();
  std::vector<double> out(m, 0.0);
  for (int i = 0; i < m; ++i) {
    std::vector<double> col = BasisColumn(model, basis[i]);
    for (int r = 0; r < m; ++r) out[r] += col[r] * x[i];
  }
  return out;
}

/// A factorization of `model` that borrows `a`, the model's ColumnsOf.
std::unique_ptr<BasisFactorization> Make(FactorizationKind kind,
                                         const CscMatrix& a,
                                         const LpModel& model) {
  return MakeFactorization(kind, a, model.num_variables(),
                           model.num_constraints(), 1e-9);
}

TEST(CscMatrixTest, MatchesRowStorage) {
  LpModel model;
  model.AddVariable("a", 0, 1, 1, false);
  model.AddVariable("b", 0, 1, 1, false);
  model.AddVariable("c", 0, 1, 1, false);
  model.AddConstraint("r0", {{0, 2.0}, {2, -1.0}}, 0, 1);
  model.AddConstraint("r1", {{1, 3.0}}, 0, 1);
  model.AddConstraint("r2", {{0, 5.0}, {1, 4.0}, {2, 7.0}}, 0, 1);

  const CscMatrix a = ColumnsOf(model);
  ASSERT_EQ(a.num_cols(), 3);
  EXPECT_EQ(a.nnz(), 6);
  // Column 0: rows 0 and 2, ascending.
  EXPECT_EQ(a.col_start[0], 0);
  EXPECT_EQ(a.col_start[1], 2);
  EXPECT_EQ(a.row[0], 0);
  EXPECT_EQ(a.value[0], 2.0);
  EXPECT_EQ(a.row[1], 2);
  EXPECT_EQ(a.value[1], 5.0);
  // Column 1: rows 1 and 2.
  EXPECT_EQ(a.col_start[2], 4);
  EXPECT_EQ(a.row[2], 1);
  EXPECT_EQ(a.value[2], 3.0);
  EXPECT_EQ(a.row[3], 2);
  EXPECT_EQ(a.value[3], 4.0);
  // Column 2: rows 0 and 2.
  EXPECT_EQ(a.col_start[3], 6);
  EXPECT_EQ(a.row[4], 0);
  EXPECT_EQ(a.value[4], -1.0);
  EXPECT_EQ(a.row[5], 2);
  EXPECT_EQ(a.value[5], 7.0);
}

// Over seeded sparse models, each column of ColumnsOf lists exactly the
// (row, coeff) entries the rows hold for its variable, in ascending row
// order. Node presolve queues a tightened column's rows in this order, so
// the branch-and-bound search depends on it. The models include empty
// rows, variables in no row and models with no variables at all.
TEST(CscMatrixTest, ColumnsOfListsEveryEntryInAscendingRowOrder) {
  Rng rng(2024);
  int empty_rows = 0, unused_vars = 0, no_var_models = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(0, 12));
    const int m = static_cast<int>(rng.UniformInt(0, 10));
    LpModel model;
    for (int j = 0; j < n; ++j) model.AddVariable("", 0, 1, 0, true);
    for (int i = 0; i < m; ++i) {
      const double density = rng.UniformReal(0.0, 0.6);
      std::vector<LinearTerm> terms;
      for (int j = 0; j < n; ++j) {
        if (rng.Bernoulli(density)) {
          terms.push_back({j, rng.UniformReal(-3.0, 3.0)});
        }
      }
      rng.Shuffle(&terms);
      model.AddConstraint("", std::move(terms), -kInfinity, 1.0);
    }

    // The expected columns, read off the row storage row by row, so each
    // lists its rows in ascending order.
    std::vector<std::vector<std::pair<int32_t, double>>> expected(n);
    for (int i = 0; i < m; ++i) {
      empty_rows += model.constraint(i).terms.empty();
      for (const LinearTerm& t : model.constraint(i).terms) {
        expected[t.var].push_back({i, t.coeff});
      }
    }
    no_var_models += n == 0;

    const CscMatrix a = ColumnsOf(model);
    ASSERT_EQ(a.num_cols(), n);
    ASSERT_EQ(a.col_start[0], 0);
    ASSERT_EQ(a.value.size(), a.row.size());
    int64_t nnz = 0;
    for (int j = 0; j < n; ++j) {
      std::vector<std::pair<int32_t, double>> got;
      for (int64_t k = a.col_start[j]; k < a.col_start[j + 1]; ++k) {
        got.push_back({a.row[k], a.value[k]});
      }
      EXPECT_EQ(got, expected[j]) << "trial " << trial << " column " << j;
      unused_vars += expected[j].empty();
      nnz += static_cast<int64_t>(expected[j].size());
    }
    EXPECT_EQ(a.nnz(), nnz);
  }
  // The seeded sample does reach every edge case named above.
  EXPECT_GT(empty_rows, 0);
  EXPECT_GT(unused_vars, 0);
  EXPECT_GT(no_var_models, 0);
}

TEST(FactorizationTest, SolvesAgreeAcrossBackendsAndSatisfyResiduals) {
  const int n = 12, m = 6;
  LpModel model = DenseRandomModel(n, m, 99);
  const CscMatrix a = ColumnsOf(model);
  // Mixed structural/slack basis, deliberately out of row order.
  std::vector<int> basis = {3, n + 1, 0, n + 4, 7, 5};

  auto dense = Make(FactorizationKind::kDense, a, model);
  auto sparse = Make(FactorizationKind::kSparseLu, a, model);
  ASSERT_TRUE(dense->Refactorize(basis));
  ASSERT_TRUE(sparse->Refactorize(basis));

  Rng rng(7);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<double> b(m);
    for (double& v : b) v = rng.UniformReal(-5.0, 5.0);

    // Ftran: x = B^{-1} b on both backends, and B x must reproduce b.
    std::vector<double> xd = b, xs = b;
    dense->Ftran(&xd);
    sparse->Ftran(&xs);
    std::vector<double> back = MultiplyBasis(model, basis, xs);
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(xd[i], xs[i], 1e-9) << "ftran row " << i;
      EXPECT_NEAR(back[i], b[i], 1e-9) << "ftran residual row " << i;
    }

    // Btran: y = B^{-T} c, so column basis[i] must price to c[i].
    std::vector<double> yd = b, ys = b;
    dense->Btran(&yd);
    sparse->Btran(&ys);
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(yd[i], ys[i], 1e-9) << "btran row " << i;
      std::vector<double> col = BasisColumn(model, basis[i]);
      double dot = 0.0;
      for (int r = 0; r < m; ++r) dot += col[r] * ys[r];
      EXPECT_NEAR(dot, b[i], 1e-9) << "btran residual col " << i;
    }
  }

  // BtranUnit r is row r of B^{-1} == B^{-T} e_r.
  for (int r = 0; r < m; ++r) {
    std::vector<double> rho_d, rho_s, er(m, 0.0);
    er[r] = 1.0;
    dense->BtranUnit(r, &rho_d);
    sparse->BtranUnit(r, &rho_s);
    std::vector<double> ref = er;
    sparse->Btran(&ref);
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(rho_d[i], rho_s[i], 1e-9) << "row " << r << " col " << i;
      EXPECT_NEAR(rho_s[i], ref[i], 1e-12) << "row " << r << " col " << i;
    }
  }
}

TEST(FactorizationTest, ColumnReplaceUpdatesTrackAFreshFactorization) {
  const int n = 12, m = 6;
  LpModel model = DenseRandomModel(n, m, 1234);
  const CscMatrix a = ColumnsOf(model);
  // Start from the all-slack basis and pivot structural columns in one at
  // a time, exactly the way the simplex drives Update().
  std::vector<int> basis(m);
  for (int i = 0; i < m; ++i) basis[i] = n + i;

  auto dense = Make(FactorizationKind::kDense, a, model);
  auto sparse = Make(FactorizationKind::kSparseLu, a, model);
  ASSERT_TRUE(dense->Refactorize(basis));
  ASSERT_TRUE(sparse->Refactorize(basis));

  const std::vector<std::pair<int, int>> pivots = {
      {0, 2}, {3, 9}, {1, 5}, {4, 0}, {2, 11}};
  for (auto [row, enter] : pivots) {
    std::vector<double> alpha_d = BasisColumn(model, enter);
    std::vector<double> alpha_s = alpha_d;
    dense->Ftran(&alpha_d);
    sparse->Ftran(&alpha_s);
    basis[row] = enter;  // the caller updates the basis before Update()
    ASSERT_TRUE(dense->Update(row, alpha_d, basis));
    ASSERT_TRUE(sparse->Update(row, alpha_s, basis));
  }
  EXPECT_EQ(dense->stats().updates, 5);
  EXPECT_EQ(sparse->stats().updates, 5);
  EXPECT_EQ(dense->stats().refactorizations, 1);
  EXPECT_EQ(sparse->stats().refactorizations, 1);

  // A third instance factored directly from the final basis is the ground
  // truth the eta-updated representations must still match.
  auto fresh = Make(FactorizationKind::kSparseLu, a, model);
  ASSERT_TRUE(fresh->Refactorize(basis));
  Rng rng(5);
  std::vector<double> b(m);
  for (double& v : b) v = rng.UniformReal(-3.0, 3.0);
  std::vector<double> xd = b, xs = b, xf = b;
  dense->Ftran(&xd);
  sparse->Ftran(&xs);
  fresh->Ftran(&xf);
  std::vector<double> back = MultiplyBasis(model, basis, xs);
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(xd[i], xf[i], 1e-8) << "dense updated vs fresh, row " << i;
    EXPECT_NEAR(xs[i], xf[i], 1e-8) << "sparse updated vs fresh, row " << i;
    EXPECT_NEAR(back[i], b[i], 1e-8) << "residual row " << i;
  }
  std::vector<double> yd = b, ys = b, yf = b;
  dense->Btran(&yd);
  sparse->Btran(&ys);
  fresh->Btran(&yf);
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(yd[i], yf[i], 1e-8) << "dense btran row " << i;
    EXPECT_NEAR(ys[i], yf[i], 1e-8) << "sparse btran row " << i;
  }
}

TEST(FactorizationTest, SingularBasisRejectedByBothBackends) {
  const int n = 8, m = 4;
  LpModel model = DenseRandomModel(n, m, 77);
  const CscMatrix a = ColumnsOf(model);
  // The same structural column basic in two rows: rank-deficient by
  // construction, whatever its values.
  std::vector<int> singular = {2, 2, n + 0, n + 1};
  auto dense = Make(FactorizationKind::kDense, a, model);
  auto sparse = Make(FactorizationKind::kSparseLu, a, model);
  EXPECT_FALSE(dense->Refactorize(singular));
  EXPECT_FALSE(sparse->Refactorize(singular));
  // A failed factorization must not poison a later good one.
  std::vector<int> ok = {2, n + 3, n + 0, n + 1};
  EXPECT_TRUE(dense->Refactorize(ok));
  EXPECT_TRUE(sparse->Refactorize(ok));
  std::vector<double> b = {1.0, -2.0, 3.0, 0.5};
  std::vector<double> xd = b, xs = b;
  dense->Ftran(&xd);
  sparse->Ftran(&xs);
  std::vector<double> back = MultiplyBasis(model, ok, xs);
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(xd[i], xs[i], 1e-9);
    EXPECT_NEAR(back[i], b[i], 1e-9);
  }
}

TEST(FactorizationTest, NamesAndFactoryRoundTrip) {
  LpModel model = DenseRandomModel(4, 2, 1);
  const CscMatrix a = ColumnsOf(model);
  auto dense = Make(FactorizationKind::kDense, a, model);
  auto sparse = Make(FactorizationKind::kSparseLu, a, model);
  EXPECT_STREQ(dense->name(), FactorizationKindToString(FactorizationKind::kDense));
  EXPECT_STREQ(sparse->name(),
               FactorizationKindToString(FactorizationKind::kSparseLu));
}

}  // namespace
}  // namespace pb::solver
