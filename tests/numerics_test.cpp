#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "numerics/chebyshev.h"
#include "numerics/eigen.h"
#include "numerics/fft.h"
#include "numerics/integration.h"
#include "numerics/matrix.h"
#include "numerics/optim.h"
#include "numerics/root_finding.h"
#include "numerics/simplex.h"
#include "numerics/stats.h"

namespace msketch {
namespace {

// ---------------------------------------------------------------- FFT/DCT

TEST(FftTest, ForwardInverseRoundTrip) {
  Rng rng(3);
  std::vector<std::complex<double>> data(64);
  for (auto& z : data) z = {rng.NextGaussian(), rng.NextGaussian()};
  std::vector<std::complex<double>> orig = data;
  Fft(&data, false);
  Fft(&data, true);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real() / 64.0, orig[i].real(), 1e-12);
    EXPECT_NEAR(data[i].imag() / 64.0, orig[i].imag(), 1e-12);
  }
}

TEST(FftTest, DeltaFunctionHasFlatSpectrum) {
  std::vector<std::complex<double>> data(16, 0.0);
  data[0] = 1.0;
  Fft(&data, false);
  for (const auto& z : data) {
    EXPECT_NEAR(z.real(), 1.0, 1e-14);
    EXPECT_NEAR(z.imag(), 0.0, 1e-14);
  }
}

TEST(DctTest, MatchesNaive) {
  Rng rng(4);
  for (int n : {8, 16, 64, 256}) {
    std::vector<double> x(n + 1);
    for (double& v : x) v = rng.NextGaussian();
    std::vector<double> fast = DctI(x);
    std::vector<double> slow = DctINaive(x);
    ASSERT_EQ(fast.size(), slow.size());
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_NEAR(fast[i], slow[i], 1e-10) << "n=" << n << " i=" << i;
    }
  }
}

// ------------------------------------------------------------- Chebyshev

TEST(ChebyshevTest, KnownValues) {
  EXPECT_DOUBLE_EQ(ChebyshevT(0, 0.3), 1.0);
  EXPECT_DOUBLE_EQ(ChebyshevT(1, 0.3), 0.3);
  // T_2(x) = 2x^2 - 1
  EXPECT_NEAR(ChebyshevT(2, 0.3), 2 * 0.09 - 1, 1e-15);
  // T_n(cos t) = cos(n t)
  const double t = 0.7;
  for (int n = 0; n <= 12; ++n) {
    EXPECT_NEAR(ChebyshevT(n, std::cos(t)), std::cos(n * t), 1e-12);
  }
}

TEST(ChebyshevTest, AllMatchesSingle) {
  double buf[11];
  ChebyshevTAll(10, -0.42, buf);
  for (int i = 0; i <= 10; ++i) {
    EXPECT_NEAR(buf[i], ChebyshevT(i, -0.42), 1e-13);
  }
}

TEST(ChebyshevTest, ClenshawEvalMatchesDirect) {
  std::vector<double> coeffs = {0.5, -1.0, 0.25, 0.0, 2.0};
  for (double x : {-1.0, -0.5, 0.0, 0.3, 1.0}) {
    double direct = 0.0;
    for (size_t i = 0; i < coeffs.size(); ++i) {
      direct += coeffs[i] * ChebyshevT(static_cast<int>(i), x);
    }
    EXPECT_NEAR(ChebyshevEval(coeffs, x), direct, 1e-13);
  }
}

TEST(ChebyshevTest, MonomialMatrix) {
  auto m = ChebyshevToMonomialMatrix(4);
  // T_3 = 4x^3 - 3x ; T_4 = 8x^4 - 8x^2 + 1
  EXPECT_DOUBLE_EQ(m[3][3], 4.0);
  EXPECT_DOUBLE_EQ(m[3][1], -3.0);
  EXPECT_DOUBLE_EQ(m[4][4], 8.0);
  EXPECT_DOUBLE_EQ(m[4][2], -8.0);
  EXPECT_DOUBLE_EQ(m[4][0], 1.0);
}

TEST(ChebyshevTest, FitRecoversPolynomial) {
  // f(x) = T_0 + 2 T_3 - 0.5 T_5
  auto f = [](double x) {
    return 1.0 + 2.0 * ChebyshevT(3, x) - 0.5 * ChebyshevT(5, x);
  };
  const int n = 16;
  auto pts = ChebyshevLobattoPoints(n);
  std::vector<double> samples(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) samples[i] = f(pts[i]);
  auto c = ChebyshevFit(samples);
  EXPECT_NEAR(c[0], 1.0, 1e-12);
  EXPECT_NEAR(c[3], 2.0, 1e-12);
  EXPECT_NEAR(c[5], -0.5, 1e-12);
  EXPECT_NEAR(c[2], 0.0, 1e-12);
  EXPECT_NEAR(c[7], 0.0, 1e-12);
}

TEST(ChebyshevTest, FitApproximatesSmoothFunction) {
  auto f = [](double x) { return std::exp(x); };
  const int n = 32;
  auto pts = ChebyshevLobattoPoints(n);
  std::vector<double> samples(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) samples[i] = f(pts[i]);
  auto c = ChebyshevFit(samples);
  for (double x : {-0.9, -0.3, 0.1, 0.77}) {
    EXPECT_NEAR(ChebyshevEval(c, x), std::exp(x), 1e-12);
  }
}

TEST(ChebyshevTest, IntegrateSeries) {
  // int_{-1}^{1} (T_0 + T_1 + T_2) = 2 + 0 + (-2/3)
  EXPECT_NEAR(ChebyshevIntegrate({1.0, 1.0, 1.0}), 2.0 - 2.0 / 3.0, 1e-14);
}

TEST(ChebyshevTest, AntiderivativeEndpoints) {
  // f = exp approximated; antiderivative F with F(-1) = 0 and
  // F(1) = int_{-1}^{1} exp = e - 1/e.
  const int n = 32;
  auto pts = ChebyshevLobattoPoints(n);
  std::vector<double> samples(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) samples[i] = std::exp(pts[i]);
  auto c = ChebyshevFit(samples);
  auto antider = ChebyshevAntiderivative(c);
  EXPECT_NEAR(ChebyshevEval(antider, -1.0), 0.0, 1e-12);
  EXPECT_NEAR(ChebyshevEval(antider, 1.0), std::exp(1) - std::exp(-1),
              1e-11);
  // Midpoint: int_{-1}^{0} exp = 1 - 1/e.
  EXPECT_NEAR(ChebyshevEval(antider, 0.0), 1.0 - std::exp(-1), 1e-11);
}

TEST(ChebyshevTest, MultiplySeries) {
  // (T_1)^2 = (T_0 + T_2)/2.
  auto prod = ChebyshevMultiply({0.0, 1.0}, {0.0, 1.0});
  ASSERT_EQ(prod.size(), 3u);
  EXPECT_NEAR(prod[0], 0.5, 1e-15);
  EXPECT_NEAR(prod[1], 0.0, 1e-15);
  EXPECT_NEAR(prod[2], 0.5, 1e-15);
}

// ------------------------------------------------------------ Integration

TEST(IntegrationTest, ClenshawCurtisExactForPolynomials) {
  for (int n : {4, 8, 16}) {
    auto w = ClenshawCurtisWeights(n);
    auto pts = ChebyshevLobattoPoints(n);
    // int x^2 = 2/3 ; int x^3 = 0 ; int 1 = 2.
    double s0 = 0, s2 = 0, s3 = 0;
    for (int j = 0; j <= n; ++j) {
      s0 += w[j];
      s2 += w[j] * pts[j] * pts[j];
      s3 += w[j] * pts[j] * pts[j] * pts[j];
    }
    EXPECT_NEAR(s0, 2.0, 1e-13);
    EXPECT_NEAR(s2, 2.0 / 3.0, 1e-13);
    EXPECT_NEAR(s3, 0.0, 1e-13);
  }
}

TEST(IntegrationTest, ClenshawCurtisSmoothFunction) {
  auto w = ClenshawCurtisWeights(64);
  auto pts = ChebyshevLobattoPoints(64);
  double s = 0;
  for (int j = 0; j <= 64; ++j) s += w[j] * std::exp(pts[j]);
  EXPECT_NEAR(s, std::exp(1) - std::exp(-1), 1e-13);
}

TEST(IntegrationTest, RombergBasic) {
  auto r = RombergIntegrate([](double x) { return std::sin(x); }, 0.0, M_PI);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 2.0, 1e-10);
}

TEST(IntegrationTest, RombergGaussian) {
  auto r = RombergIntegrate(
      [](double x) { return std::exp(-x * x / 2.0); }, -8.0, 8.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), std::sqrt(2.0 * M_PI), 1e-8);
}

TEST(IntegrationTest, RombergEmptyInterval) {
  auto r = RombergIntegrate([](double x) { return x; }, 1.0, 1.0);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 0.0);
}

// ----------------------------------------------------------- Root finding

TEST(RootFindingTest, BrentSimple) {
  auto r = BrentRoot([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), std::sqrt(2.0), 1e-10);
}

TEST(RootFindingTest, BrentTranscendental) {
  auto r = BrentRoot([](double x) { return std::cos(x) - x; }, 0.0, 1.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 0.7390851332151607, 1e-10);
}

TEST(RootFindingTest, BrentRejectsNonBracketing) {
  auto r = BrentRoot([](double x) { return x * x + 1.0; }, -1.0, 1.0);
  EXPECT_FALSE(r.ok());
}

TEST(RootFindingTest, FindAllRootsOfCubic) {
  // (x+0.5)(x)(x-0.7)
  auto f = [](double x) { return (x + 0.5) * x * (x - 0.7); };
  auto roots = FindRealRoots(f, -1.0, 1.0, 256);
  ASSERT_EQ(roots.size(), 3u);
  EXPECT_NEAR(roots[0], -0.5, 1e-9);
  EXPECT_NEAR(roots[1], 0.0, 1e-9);
  EXPECT_NEAR(roots[2], 0.7, 1e-9);
}

// ------------------------------------------------------------------ Matrix

TEST(MatrixTest, MultiplyIdentity) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  Matrix i = Matrix::Identity(2);
  Matrix p = a.Multiply(i);
  EXPECT_DOUBLE_EQ(p(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(p(1, 0), 3.0);
}

TEST(MatrixTest, LuSolve) {
  Matrix a(3, 3);
  double vals[3][3] = {{2, 1, 1}, {1, 3, 2}, {1, 0, 0}};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) a(i, j) = vals[i][j];
  }
  auto x = LuSolve(a, {4, 5, 6});
  ASSERT_TRUE(x.ok());
  // Verify A x = b.
  std::vector<double> b = a.MultiplyVec(x.value());
  EXPECT_NEAR(b[0], 4, 1e-10);
  EXPECT_NEAR(b[1], 5, 1e-10);
  EXPECT_NEAR(b[2], 6, 1e-10);
}

TEST(MatrixTest, LuSolveSingularReported) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  auto x = LuSolve(a, {1, 2});
  EXPECT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kSingular);
}

TEST(MatrixTest, CholeskyRoundTrip) {
  // A = B B^T + n I is SPD.
  Rng rng(5);
  const size_t n = 6;
  Matrix b(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) b(i, j) = rng.NextGaussian();
  }
  Matrix a = b.Multiply(b.Transpose());
  for (size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  auto l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  Matrix recon = l.value().Multiply(l.value().Transpose());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(recon(i, j), a(i, j), 1e-9);
    }
  }
  std::vector<double> rhs(n, 1.0);
  auto x = CholeskySolve(l.value(), rhs);
  std::vector<double> ax = a.MultiplyVec(x);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], 1.0, 1e-9);
}

TEST(MatrixTest, CholeskyRejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(1, 1) = -1;
  EXPECT_FALSE(CholeskyFactor(a).ok());
}

// ------------------------------------------------------------------ Eigen

TEST(EigenTest, SymmetricKnownSpectrum) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->values[0], 1.0, 1e-10);
  EXPECT_NEAR(eig->values[1], 3.0, 1e-10);
}

TEST(EigenTest, EigenvectorsSatisfyDefinition) {
  Rng rng(8);
  const size_t n = 5;
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      a(i, j) = rng.NextGaussian();
      a(j, i) = a(i, j);
    }
  }
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  for (size_t j = 0; j < n; ++j) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = eig->vectors(i, j);
    std::vector<double> av = a.MultiplyVec(v);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(av[i], eig->values[j] * v[i], 1e-9);
    }
  }
}

TEST(EigenTest, ConditionNumber) {
  Matrix a(2, 2);
  a(0, 0) = 100.0;
  a(1, 1) = 1.0;
  EXPECT_NEAR(SymmetricConditionNumber(a), 100.0, 1e-8);
}

TEST(EigenTest, TridiagonalMatchesDense) {
  // Jacobi matrix for Legendre polynomials on [-1,1]: diag 0,
  // off-diag b_k = k / sqrt(4k^2 - 1). Eigenvalues = Gauss-Legendre nodes.
  const int n = 4;
  std::vector<double> d(n, 0.0), e(n - 1);
  for (int k = 1; k < n; ++k) {
    e[k - 1] = k / std::sqrt(4.0 * k * k - 1.0);
  }
  std::vector<double> first;
  auto vals = TridiagonalEigen(d, e, &first);
  ASSERT_TRUE(vals.ok());
  // 4-point Gauss-Legendre nodes.
  EXPECT_NEAR(vals->at(0), -0.8611363115940526, 1e-10);
  EXPECT_NEAR(vals->at(1), -0.3399810435848563, 1e-10);
  EXPECT_NEAR(vals->at(2), 0.3399810435848563, 1e-10);
  EXPECT_NEAR(vals->at(3), 0.8611363115940526, 1e-10);
  // Golub-Welsch weights: w_j = mu_0 * z_j^2 with mu_0 = 2.
  EXPECT_NEAR(2.0 * first[0] * first[0], 0.3478548451374538, 1e-9);
  EXPECT_NEAR(2.0 * first[1] * first[1], 0.6521451548625461, 1e-9);
}

TEST(EigenTest, SvdReconstruction) {
  Rng rng(10);
  Matrix a(6, 4);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 4; ++j) a(i, j) = rng.NextGaussian();
  }
  auto svd = Svd(a);
  ASSERT_TRUE(svd.ok());
  // A == U S V^T
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < 4; ++k) {
        acc += svd->u(i, k) * svd->singular[k] * svd->v(j, k);
      }
      EXPECT_NEAR(acc, a(i, j), 1e-9);
    }
  }
  // Singular values descending.
  for (size_t k = 1; k < 4; ++k) {
    EXPECT_GE(svd->singular[k - 1], svd->singular[k]);
  }
}

TEST(EigenTest, SvdLeastSquaresSolvesConsistentSystem) {
  Matrix a(3, 2);
  a(0, 0) = 1;
  a(0, 1) = 0;
  a(1, 0) = 0;
  a(1, 1) = 1;
  a(2, 0) = 1;
  a(2, 1) = 1;
  // b from x = (2, 3).
  auto x = SvdLeastSquares(a, {2, 3, 5});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x->at(0), 2.0, 1e-9);
  EXPECT_NEAR(x->at(1), 3.0, 1e-9);
}

TEST(EigenTest, SvdWideMatrix) {
  Matrix a(2, 4);
  for (size_t j = 0; j < 4; ++j) {
    a(0, j) = static_cast<double>(j + 1);
    a(1, j) = static_cast<double>(4 - j);
  }
  auto svd = Svd(a);
  ASSERT_TRUE(svd.ok());
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < svd->singular.size(); ++k) {
        acc += svd->u(i, k) * svd->singular[k] * svd->v(j, k);
      }
      EXPECT_NEAR(acc, a(i, j), 1e-9);
    }
  }
}

// ----------------------------------------------------------- Optimization

TEST(OptimTest, NewtonOnQuadratic) {
  // f(x) = (x0-1)^2 + 10 (x1+2)^2.
  ObjectiveFn f = [](const std::vector<double>& x, EvalLevel level,
                     ObjectiveEval* out) {
    out->value = (x[0] - 1) * (x[0] - 1) + 10 * (x[1] + 2) * (x[1] + 2);
    out->gradient = {2 * (x[0] - 1), 20 * (x[1] + 2)};
    if (level == EvalLevel::kHessian) {
      out->hessian = Matrix(2, 2);
      out->hessian(0, 0) = 2;
      out->hessian(1, 1) = 20;
    }
  };
  auto r = NewtonMinimize(f, {0.0, 0.0});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x[0], 1.0, 1e-8);
  EXPECT_NEAR(r->x[1], -2.0, 1e-8);
  EXPECT_LE(r->iterations, 3);
}

TEST(OptimTest, NewtonOnLogSumExp) {
  // Smooth strictly convex, non-quadratic: log(e^x + e^-x) + x^2/4.
  ObjectiveFn f = [](const std::vector<double>& x, EvalLevel level,
                     ObjectiveEval* out) {
    const double ex = std::exp(x[0]), emx = std::exp(-x[0]);
    out->value = std::log(ex + emx) + x[0] * x[0] / 4.0;
    const double th = (ex - emx) / (ex + emx);
    out->gradient = {th + x[0] / 2.0};
    if (level == EvalLevel::kHessian) {
      out->hessian = Matrix(1, 1);
      out->hessian(0, 0) = 1.0 - th * th + 0.5;
    }
  };
  auto r = NewtonMinimize(f, {3.0});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x[0], 0.0, 1e-8);
}

TEST(OptimTest, NewtonStopsAtAFixedPoint) {
  // At x = 1e20 the Newton step (-1e-9) rounds away, and the constant
  // value passes Armijo at the opening step (the decrease it asks for,
  // 1e-16, rounds away against 1e3), so every iteration would repeat the
  // first one.
  // The run must return the cap's status at once instead of spending
  // two evaluations per iteration up to max_iter.
  for (bool adaptive : {false, true}) {
    int calls = 0;
    ObjectiveFn f = [&calls](const std::vector<double>&, EvalLevel level,
                             ObjectiveEval* out) {
      ++calls;
      out->value = 1e3;
      out->gradient = {1e-3};
      if (level == EvalLevel::kHessian) {
        out->hessian = Matrix(1, 1);
        out->hessian(0, 0) = 1e6;
      }
    };
    NewtonOptions opts;
    opts.adaptive_initial_step = adaptive;
    auto r = NewtonMinimize(f, {1e20}, opts);
    ASSERT_FALSE(r.ok()) << adaptive;
    EXPECT_EQ(r.status().code(), StatusCode::kNotConverged);
    EXPECT_EQ(r.status().reason(), StatusReason::kIterationCap);
    EXPECT_NE(r.status().message().find("max iterations, gradient 1.000e-03"),
              std::string::npos)
        << r.status().message();
    EXPECT_LE(calls, 4) << adaptive;  // 1 + 2 * max_iter without the stop
  }
}

// A smooth strictly convex objective in two variables (a log-sum-exp
// plus a quadratic), recording each call's level and x. With
// `gradient_on_value` false it leaves the gradient empty on kValue.
struct RecordingObjective {
  struct Call {
    EvalLevel level;
    std::vector<double> x;
  };
  std::vector<Call> calls;

  ObjectiveFn Fn(bool gradient_on_value) {
    return [this, gradient_on_value](const std::vector<double>& x,
                                     EvalLevel level, ObjectiveEval* out) {
      calls.push_back({level, x});
      const double a = std::exp(x[0] + 2 * x[1]);
      const double b = std::exp(-x[0] + 0.5 * x[1]);
      out->value = std::log(a + b) + 0.1 * (x[0] * x[0] + x[1] * x[1]);
      out->gradient.clear();
      if (level == EvalLevel::kValue && !gradient_on_value) return;
      const double pa = a / (a + b), pb = b / (a + b);
      out->gradient = {pa - pb + 0.2 * x[0], 2 * pa + 0.5 * pb + 0.2 * x[1]};
      if (level != EvalLevel::kHessian) return;
      // Covariance of the features (1, 2) and (-1, 0.5) under (pa, pb).
      const double m0 = pa - pb, m1 = 2 * pa + 0.5 * pb;
      out->hessian = Matrix(2, 2);
      out->hessian(0, 0) = pa + pb - m0 * m0 + 0.2;
      out->hessian(0, 1) = 2 * pa - 0.5 * pb - m0 * m1;
      out->hessian(1, 0) = out->hessian(0, 1);
      out->hessian(1, 1) = 4 * pa + 0.25 * pb - m1 * m1 + 0.2;
    };
  }
};

TEST(OptimTest, NewtonAsksOnlyForWhatItReads) {
  for (bool adaptive : {false, true}) {
    NewtonOptions opts;
    opts.adaptive_initial_step = adaptive;
    const std::vector<double> x0 = {10.0, -10.0};
    RecordingObjective filled, lean;
    auto a = NewtonMinimize(filled.Fn(true), x0, opts);
    auto b = NewtonMinimize(lean.Fn(false), x0, opts);
    ASSERT_TRUE(a.ok()) << a.status().message();
    ASSERT_TRUE(b.ok()) << b.status().message();
    // From this start several steps backtrack (values > hessians below).
    ASSERT_GT(a->iterations, 2);

    // kHessian at x0, then kValue trials, each accepted trial asked for
    // again at kHessian; nothing asks for kGradient alone.
    const auto& calls = filled.calls;
    ASSERT_FALSE(calls.empty());
    EXPECT_EQ(calls[0].level, EvalLevel::kHessian);
    EXPECT_EQ(calls[0].x, x0);
    int hessians = 0, values = 0;
    for (size_t i = 1; i < calls.size(); ++i) {
      if (calls[i].level == EvalLevel::kHessian) {
        ++hessians;
        ASSERT_EQ(calls[i - 1].level, EvalLevel::kValue) << i;
        EXPECT_EQ(std::memcmp(calls[i].x.data(), calls[i - 1].x.data(),
                              2 * sizeof(double)),
                  0)
            << i;
      } else {
        EXPECT_EQ(calls[i].level, EvalLevel::kValue) << i;
        ++values;
      }
    }
    EXPECT_EQ(hessians, a->iterations) << adaptive;
    EXPECT_GT(values, hessians) << adaptive;
    EXPECT_EQ(calls.back().level, EvalLevel::kHessian);

    // The gradient of a trial is never read: leaving it empty changes
    // nothing, bit for bit.
    ASSERT_EQ(a->x.size(), b->x.size());
    EXPECT_EQ(std::memcmp(a->x.data(), b->x.data(), 2 * sizeof(double)), 0);
    EXPECT_EQ(a->iterations, b->iterations);
    EXPECT_EQ(filled.calls.size(), lean.calls.size());
  }

  // L-BFGS reads the accepted trial's gradient, so it always asks for it.
  RecordingObjective rec;
  auto r = LbfgsMinimize(rec.Fn(false), {10.0, -10.0});
  ASSERT_TRUE(r.ok()) << r.status().message();
  ASSERT_FALSE(rec.calls.empty());
  for (const auto& call : rec.calls) {
    EXPECT_EQ(call.level, EvalLevel::kGradient);
  }
}

TEST(OptimTest, LbfgsOnRosenbrockLikeConvex) {
  // 20-dim convex quadratic with varying curvature.
  const size_t n = 20;
  ObjectiveFn f = [n](const std::vector<double>& x, EvalLevel,
                      ObjectiveEval* out) {
    out->value = 0.0;
    out->gradient.assign(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double w = 1.0 + static_cast<double>(i);
      out->value += 0.5 * w * (x[i] - 1.0) * (x[i] - 1.0);
      out->gradient[i] = w * (x[i] - 1.0);
    }
  };
  auto r = LbfgsMinimize(f, std::vector<double>(n, 0.0));
  ASSERT_TRUE(r.ok());
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(r->x[i], 1.0, 1e-6);
}

// --------------------------------------------------------------- Simplex

TEST(SimplexTest, BasicLp) {
  // min -x1 - 2x2 st x1 + x2 + s = 4, x1 + 3x2 + t = 6; optimum at (3, 1).
  Matrix a(2, 4);
  a(0, 0) = 1;
  a(0, 1) = 1;
  a(0, 2) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  a(1, 3) = 1;
  auto sol = SolveStandardFormLp(a, {4, 6}, {-1, -2, 0, 0});
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, -5.0, 1e-8);
  EXPECT_NEAR(sol->x[0], 3.0, 1e-8);
  EXPECT_NEAR(sol->x[1], 1.0, 1e-8);
}

TEST(SimplexTest, EqualityOnly) {
  // min x + y st x + y = 1, x - y = 0 -> x = y = 0.5.
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = -1;
  auto sol = SolveStandardFormLp(a, {1, 0}, {1, 1});
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->x[0], 0.5, 1e-8);
  EXPECT_NEAR(sol->x[1], 0.5, 1e-8);
}

TEST(SimplexTest, InfeasibleDetected) {
  // x = -1 with x >= 0 is infeasible.
  Matrix a(1, 1);
  a(0, 0) = 1;
  auto sol = SolveStandardFormLp(a, {-1}, {1});
  EXPECT_FALSE(sol.ok());
}

TEST(SimplexTest, NegativeRhsHandled) {
  // -x - y = -2, minimize x -> x=0, y=2.
  Matrix a(1, 2);
  a(0, 0) = -1;
  a(0, 1) = -1;
  auto sol = SolveStandardFormLp(a, {-2}, {1, 0});
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->x[0], 0.0, 1e-8);
  EXPECT_NEAR(sol->x[1], 2.0, 1e-8);
}

TEST(SimplexTest, MinimaxDensityShape) {
  // Toy version of cvx-min: minimize t st sum f = 1, f_i <= t, f >= 0 over
  // 4 cells with one moment constraint sum f_i x_i = 0 (x = -1,-1/3,1/3,1).
  // Symmetric solution: all f_i = 1/4, t = 1/4.
  // Standard form: vars f1..f4, t, slacks s1..s4 (f_i - t + s_i = 0 needs
  // sign care: f_i <= t  ->  f_i - t + s_i = 0 with s_i >= 0).
  Matrix a(6, 9);
  std::vector<double> b(6, 0.0);
  // sum f = 1
  for (int i = 0; i < 4; ++i) a(0, i) = 1.0;
  b[0] = 1.0;
  // sum f x = 0
  const double xs[4] = {-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0};
  for (int i = 0; i < 4; ++i) a(1, i) = xs[i];
  b[1] = 0.0;
  // f_i - t + s_i = 0
  for (int i = 0; i < 4; ++i) {
    a(2 + i, i) = 1.0;
    a(2 + i, 4) = -1.0;
    a(2 + i, 5 + i) = 1.0;
  }
  std::vector<double> c(9, 0.0);
  c[4] = 1.0;  // minimize t
  auto sol = SolveStandardFormLp(a, b, c);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 0.25, 1e-7);
}

// ------------------------------------------------------------------ Stats

TEST(StatsTest, DescribeMatchesKnown) {
  std::vector<double> data = {1, 2, 3, 4, 5};
  auto d = DescribeData(data);
  EXPECT_EQ(d.count, 5u);
  EXPECT_DOUBLE_EQ(d.min, 1);
  EXPECT_DOUBLE_EQ(d.max, 5);
  EXPECT_DOUBLE_EQ(d.mean, 3);
  EXPECT_NEAR(d.stddev, std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(d.skew, 0.0, 1e-12);
}

TEST(StatsTest, QuantileOfSortedMatchesDefinition) {
  std::vector<double> data(1000);
  for (int i = 0; i < 1000; ++i) data[i] = i + 1;  // 1..1000
  EXPECT_DOUBLE_EQ(QuantileOfSorted(data, 0.5), 501.0);  // rank 500
  EXPECT_DOUBLE_EQ(QuantileOfSorted(data, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(QuantileOfSorted(data, 0.999), 1000.0);
}

TEST(StatsTest, QuantileErrorPaperExample) {
  // Paper Section 3.1: D = {1..1000}, estimate 504 for phi=0.5 has
  // error 0.004 by rank counting (rank(504) = 503, target 500).
  std::vector<double> data(1000);
  for (int i = 0; i < 1000; ++i) data[i] = i + 1;
  EXPECT_NEAR(QuantileError(data, 0.5, 504.0), 0.003, 1e-9);
}

TEST(StatsTest, PhiGrid) {
  auto phis = DefaultPhiGrid();
  ASSERT_EQ(phis.size(), 21u);
  EXPECT_DOUBLE_EQ(phis.front(), 0.01);
  EXPECT_DOUBLE_EQ(phis.back(), 0.99);
}

TEST(StatsTest, NormalQuantileKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.01), -2.326347874, 1e-6);
}

TEST(StatsTest, LogGammaMatchesFactorials) {
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-10);
  EXPECT_NEAR(LogGamma(0.5), 0.5 * std::log(M_PI), 1e-10);
}

TEST(StatsTest, BinomialCoefficients) {
  EXPECT_DOUBLE_EQ(BinomialCoefficient(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(10, 0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(3, 5), 0.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(20, 10), 184756.0);
}

}  // namespace
}  // namespace msketch
