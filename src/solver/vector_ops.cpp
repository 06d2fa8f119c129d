#include "solver/vector_ops.hpp"

#include <cassert>
#include <cmath>

#include "par/deterministic_reduce.hpp"
#include "par/parallel_for.hpp"

namespace gdda::solver {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
    assert(a.size() == b.size());
    return par::deterministic_reduce(a.size(), [&](std::size_t begin, std::size_t end) {
        double s = 0.0;
        for (std::size_t i = begin; i < end; ++i) s += a[i] * b[i];
        return s;
    });
}

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
    assert(x.size() == y.size());
    par::parallel_for(x.size(), 4 * par::kDefaultGrain,
                      [&](std::size_t i) { y[i] += alpha * x[i]; });
}

double norm2(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

double dot_f32(const std::vector<float>& a, const std::vector<float>& b) {
    assert(a.size() == b.size());
    return par::deterministic_reduce(a.size(), [&](std::size_t begin, std::size_t end) {
        double s = 0.0;
        for (std::size_t i = begin; i < end; ++i)
            s += static_cast<double>(a[i]) * static_cast<double>(b[i]);
        return s;
    });
}

void axpy_f32(float alpha, const std::vector<float>& x, std::vector<float>& y) {
    assert(x.size() == y.size());
    par::parallel_for(x.size(), 4 * par::kDefaultGrain,
                      [&](std::size_t i) { y[i] += alpha * x[i]; });
}

void xpay_f32(const std::vector<float>& x, float beta, std::vector<float>& y) {
    assert(x.size() == y.size());
    par::parallel_for(x.size(), 4 * par::kDefaultGrain,
                      [&](std::size_t i) { y[i] = x[i] + beta * y[i]; });
}

double norm2_f32(const std::vector<float>& a) { return std::sqrt(dot_f32(a, a)); }

void demote(const std::vector<double>& src, std::vector<float>& dst) {
    dst.resize(src.size());
    par::parallel_for(src.size(), 4 * par::kDefaultGrain,
                      [&](std::size_t i) { dst[i] = static_cast<float>(src[i]); });
}

void demote_scaled(const std::vector<double>& src, double scale, std::vector<float>& dst) {
    dst.resize(src.size());
    par::parallel_for(src.size(), 4 * par::kDefaultGrain,
                      [&](std::size_t i) { dst[i] = static_cast<float>(src[i] * scale); });
}

void promote(const std::vector<float>& src, std::vector<double>& dst) {
    dst.resize(src.size());
    par::parallel_for(src.size(), 4 * par::kDefaultGrain,
                      [&](std::size_t i) { dst[i] = static_cast<double>(src[i]); });
}

void promote_axpy(double alpha, const std::vector<float>& x, std::vector<double>& y) {
    assert(x.size() == y.size());
    par::parallel_for(x.size(), 4 * par::kDefaultGrain,
                      [&](std::size_t i) { y[i] += alpha * static_cast<double>(x[i]); });
}

simt::KernelCost blas1_iteration_cost(std::size_t dim) {
    // Fused layout (solver/pcg.cpp): dot(p,ap) | x,r update + r.r | xpay,
    // with dot(r,z) riding the preconditioner-apply pass for free.
    simt::KernelCost kc;
    const double d = static_cast<double>(dim);
    kc.name = "pcg_blas1_fused";
    kc.flops = 2.0 * d * 5.0; // 3 axpy + 2 dot
    kc.bytes_coalesced = d * sizeof(double) * 8.0; // 2 + (4r/2w overlap) + 3
    kc.depth = 2 * 12; // two tree reductions (p.ap and r.r)
    kc.launches = 3;
    return kc;
}

simt::KernelCost blas1_iteration_cost_f32(std::size_t dim) {
    simt::KernelCost kc = blas1_iteration_cost(dim);
    kc.name = "pcg_blas1_fused_f32";
    kc.bytes_coalesced /= 2.0; // fp32 streams at half the bytes
    return kc;
}

simt::KernelCost precision_transfer_cost(std::size_t dim) {
    simt::KernelCost kc;
    kc.name = "precision_transfer";
    const double d = static_cast<double>(dim);
    kc.flops = d; // one convert per element
    kc.bytes_coalesced = d * (sizeof(double) + sizeof(float));
    kc.depth = 1;
    kc.launches = 1;
    return kc;
}

} // namespace gdda::solver
