#pragma once
// Scalar-vector helpers shared by the ILU preconditioner and tests, plus the
// analytic GPU cost of the BLAS-1 kernels inside a PCG iteration.

#include <vector>

#include "simt/cost_model.hpp"

namespace gdda::solver {

double dot(const std::vector<double>& a, const std::vector<double>& b);
void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y);
double norm2(const std::vector<double>& a);

// fp32 BLAS-1 for the mixed-precision inner solve. Products are accumulated
// in fp64 through the deterministic reduction tree (fp32 operands, fp64
// carries), so results are bitwise identical for any thread count and the
// dot products stay accurate enough to steer the fp32 iteration.
double dot_f32(const std::vector<float>& a, const std::vector<float>& b);
void axpy_f32(float alpha, const std::vector<float>& x, std::vector<float>& y);
/// y = x + beta * y (the PCG direction update p = z + beta p).
void xpay_f32(const std::vector<float>& x, float beta, std::vector<float>& y);
double norm2_f32(const std::vector<float>& a);

// Precision transfers between the fp64 outer refinement loop and the fp32
// inner solve. All are element-wise (trivially deterministic).
/// dst[i] = float(src[i]).
void demote(const std::vector<double>& src, std::vector<float>& dst);
/// dst[i] = float(src[i] * scale) — scale the fp64 residual into the
/// well-conditioned fp32 range before demotion.
void demote_scaled(const std::vector<double>& src, double scale, std::vector<float>& dst);
/// dst[i] = double(src[i]) — exact: every fp32 value is representable in fp64.
void promote(const std::vector<float>& src, std::vector<double>& dst);
/// y[i] += alpha * double(x[i]) — fold the fp32 correction back into the
/// fp64 iterate, undoing the residual scaling via alpha.
void promote_axpy(double alpha, const std::vector<float>& x, std::vector<double>& y);

/// Cost of the fused BLAS-1 work of one PCG iteration on a system of `dim`
/// scalars: dot(p,ap) | x,r update producing r.r | xpay, with dot(r,z)
/// folded into the preconditioner apply — 3 launches and ~8 dim memory
/// passes.
simt::KernelCost blas1_iteration_cost(std::size_t dim);

/// Fused BLAS-1 cost of one *fp32* inner PCG iteration: same launch/depth
/// shape as the fused fp64 path, half the streamed bytes.
simt::KernelCost blas1_iteration_cost_f32(std::size_t dim);

/// Cost of one fp64<->fp32 precision-transfer pass over `dim` scalars
/// (refinement-loop demote/promote kernels).
simt::KernelCost precision_transfer_cost(std::size_t dim);

} // namespace gdda::solver
