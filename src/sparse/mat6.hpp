#pragma once
// Dense 6x6 block and 6-vector types. The DDA global stiffness matrix is a
// block matrix whose entries are 6x6 sub-matrices (one block row/column per
// rock block: u0, v0, r0, ex, ey, gxy). These small dense types are the unit
// of storage for BSR/HSBCSR formats and of work for the block solvers.

#include <array>
#include <cstddef>

namespace gdda::sparse {

inline constexpr int kBlockDim = 6;

struct Vec6 {
    std::array<double, 6> v{};

    double& operator[](std::size_t i) { return v[i]; }
    double operator[](std::size_t i) const { return v[i]; }

    Vec6 operator+(const Vec6& o) const;
    Vec6 operator-(const Vec6& o) const;
    Vec6 operator*(double s) const;
    Vec6& operator+=(const Vec6& o);
    Vec6& operator-=(const Vec6& o);
    [[nodiscard]] double dot(const Vec6& o) const;
    [[nodiscard]] double norm() const;
};

struct Mat6 {
    // Row-major storage.
    std::array<double, 36> a{};

    double& operator()(int r, int c) { return a[static_cast<std::size_t>(r) * 6 + c]; }
    double operator()(int r, int c) const { return a[static_cast<std::size_t>(r) * 6 + c]; }

    static Mat6 identity();
    /// Rank-1 update matrix u * w^T (contact spring sub-matrices are sums of
    /// these, e.g. p * e e^T).
    static Mat6 outer(const Vec6& u, const Vec6& w);

    Mat6 operator+(const Mat6& o) const;
    Mat6 operator-(const Mat6& o) const;
    Mat6 operator*(double s) const;
    Mat6& operator+=(const Mat6& o);
    Mat6 operator*(const Mat6& o) const;

    [[nodiscard]] Mat6 transposed() const;
    [[nodiscard]] Vec6 mul(const Vec6& x) const;
    /// A^T * x without materializing the transpose (lower-triangle SpMV path).
    [[nodiscard]] Vec6 mul_transposed(const Vec6& x) const;

    [[nodiscard]] double max_abs() const;
    [[nodiscard]] bool is_symmetric(double tol = 1e-9) const;
};

/// LDL^T factorization of a symmetric 6x6 block; throws std::runtime_error
/// if a pivot collapses (matrix not definite enough). Used by the
/// Block-Jacobi preconditioner and by the diagonal inversion in SSOR-AI.
class Ldlt6 {
public:
    explicit Ldlt6(const Mat6& m);
    [[nodiscard]] Vec6 solve(const Vec6& b) const;
    [[nodiscard]] Mat6 inverse() const;

private:
    Mat6 l_;               // unit lower triangle
    std::array<double, 6> d_{};
};

/// General 6x6 inverse via partial-pivot LU (for tests and non-symmetric use).
Mat6 inverse(const Mat6& m);

} // namespace gdda::sparse
