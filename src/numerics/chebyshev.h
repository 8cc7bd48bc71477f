// Chebyshev polynomials of the first kind: evaluation, basis conversion,
// interpolation, and calculus on Chebyshev series.
//
// The maximum entropy solver works entirely in the Chebyshev basis
// (Section 4.3.1 of the paper) because the monomial basis produces Hessians
// with condition numbers around 1e31 for k ~ 8; rebasing brings that down to
// O(10).
#ifndef MSKETCH_NUMERICS_CHEBYSHEV_H_
#define MSKETCH_NUMERICS_CHEBYSHEV_H_

#include <functional>
#include <vector>

namespace msketch {

/// Evaluates T_n(x) by the three-term recurrence. Valid for any real x
/// (values outside [-1,1] grow like |2x|^n).
double ChebyshevT(int n, double x);

/// Evaluates all of T_0(x) .. T_n(x) into `out` (size n+1).
void ChebyshevTAll(int n, double x, double* out);

/// Evaluates the series sum_i coeffs[i] * T_i(x) by Clenshaw's algorithm.
double ChebyshevEval(const std::vector<double>& coeffs, double x);

/// Evaluates the series at n points: out[j] = sum_i coeffs[i] * T_i(xs[j]).
/// Point-blocked Clenshaw — the recurrence runs over coefficients while
/// eight points advance in independent lanes, so the compiler can keep
/// the whole block in vector registers. This is the estimator's CDF
/// tabulation hot path (~500 evaluations per maxent solve).
void ChebyshevEvalMany(const std::vector<double>& coeffs, const double* xs,
                       size_t n, double* out);

/// Batched basis tabulation: fills out[i * m + j] = T_i(xs[j]) for
/// i = 0..n, j = 0..m-1 (row-major by order). The three-term recurrence
/// runs point-parallel — each point is an independent lane — so the
/// maxent grid builds get one vectorizable pass instead of m
/// ChebyshevTAll calls.
void ChebyshevTAllMany(int n, const double* xs, size_t m, double* out);

/// Length of the shortest coefficient prefix that keeps every dropped
/// tail coefficient below rel_tol * max|c| (at least 1; coeffs.size()
/// when nothing can be dropped). Chebyshev series of smooth densities
/// decay geometrically, so evaluating only the significant prefix cuts
/// the CDF tabulation cost without measurable error: the dropped mass
/// is bounded by n * rel_tol * max|c|.
size_t ChebyshevSignificantPrefix(const std::vector<double>& coeffs,
                                  double rel_tol);

/// Row i of the returned matrix holds the monomial coefficients of T_i:
///   T_i(x) = sum_j M[i][j] x^j,  for i, j in 0..n.
/// Integer-valued but returned as doubles; coefficients grow like 2^n so
/// n <= ~40 stays exactly representable.
std::vector<std::vector<double>> ChebyshevToMonomialMatrix(int n);

/// Chebyshev-Lobatto points x_j = cos(pi * j / n), j = 0..n (descending
/// from +1 to -1).
std::vector<double> ChebyshevLobattoPoints(int n);

/// Chebyshev interpolation: given samples f(x_j) at the n+1 Lobatto points
/// (as produced by ChebyshevLobattoPoints), returns coefficients c_0..c_n
/// with f(x) ~= sum c_i T_i(x). Exact for polynomials of degree <= n.
std::vector<double> ChebyshevFit(const std::vector<double>& samples);

/// Integral of a Chebyshev series over [-1, 1]:
///   int T_k = 0 for odd k, 2/(1-k^2) for even k.
double ChebyshevIntegrate(const std::vector<double>& coeffs);

/// Antiderivative series: returns d with sum d_i T_i(x) = int_{-1}^{x} f.
/// (d_0 fixed so the antiderivative vanishes at x = -1.)
std::vector<double> ChebyshevAntiderivative(const std::vector<double>& coeffs);

/// Product of two Chebyshev series via T_a T_b = (T_{a+b} + T_{|a-b|}) / 2.
std::vector<double> ChebyshevMultiply(const std::vector<double>& a,
                                      const std::vector<double>& b);

}  // namespace msketch

#endif  // MSKETCH_NUMERICS_CHEBYSHEV_H_
