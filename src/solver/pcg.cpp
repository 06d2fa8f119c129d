#include "solver/pcg.hpp"

#include <cassert>
#include <cmath>

#include "par/deterministic_reduce.hpp"
#include "par/parallel_for.hpp"
#include "solver/vector_ops.hpp"
#include "trace/tracer.hpp"

namespace gdda::solver {

using sparse::BlockVec;
using sparse::HsbcsrMatrix;

namespace {

// Warm-start screen: a vector of all (signed) zeros multiplies to an exact
// +0.0 per component (every slice accumulator starts at +0.0 and only adds
// ±0.0 terms), and b[i] - (+0.0) == b[i] bitwise for every double including
// -0.0. So when x == 0 the residual is b itself and the warm-start SpMV can
// be skipped without perturbing a single bit.
bool is_exactly_zero(const BlockVec& v) {
    for (const auto& blk : v)
        for (int k = 0; k < 6; ++k)
            if (blk[k] != 0.0) return false;
    return true;
}

// Fused x/r update: one pass computing x += alpha p, r -= alpha ap, and r.r.
// The element expressions are exactly sparse::axpy's (`x[i] += p[i] * alpha`,
// `r[i] += ap[i] * (-alpha)`) and the reduction uses the shared chunk
// partitioning, so the pass is bit-identical to the three separate kernels it
// replaces — only the memory traffic changes.
double fused_xr_update(double alpha, const BlockVec& p, const BlockVec& ap,
                       BlockVec& x, BlockVec& r) {
    return par::deterministic_reduce(r.size(), [&](std::size_t b, std::size_t e) {
        double s = 0.0;
        for (std::size_t i = b; i < e; ++i) {
            x[i] += p[i] * alpha;
            r[i] += ap[i] * (-alpha);
            s += r[i].dot(r[i]);
        }
        return s;
    });
}

constexpr std::size_t kXferGrain = 64;

/// y = A x through the selected fp64 backend. The sliced-ELL kernel works on
/// the flat scalar view; flatten/unflatten are element-wise copies (order-
/// independent, deterministic).
void backend_spmv(const PcgMatrix& a, const BlockVec& x, BlockVec& y, PcgWorkspace& w,
                  simt::KernelCost* cost) {
    if (a.sell) {
        const std::size_t n = x.size();
        w.flat_x.resize(n * 6);
        w.flat_y.resize(n * 6);
        par::parallel_for(n, kXferGrain, [&](std::size_t i) {
            for (int k = 0; k < 6; ++k) w.flat_x[i * 6 + k] = x[i][static_cast<std::size_t>(k)];
        });
        sparse::spmv_sorted_sell(*a.sell, w.flat_x, w.flat_y, cost);
        y.resize(n);
        par::parallel_for(n, kXferGrain, [&](std::size_t i) {
            for (int k = 0; k < 6; ++k) y[i][static_cast<std::size_t>(k)] = w.flat_y[i * 6 + k];
        });
    } else {
        sparse::spmv_hsbcsr(*a.h, x, y, w.spmv, cost);
    }
}

const char* backend_kernel_name(const PcgMatrix& a) {
    return a.sell ? "spmv_sell_sorted" : "spmv_hsbcsr";
}

/// r32 = float(r * scale), block vector to flat fp32.
void demote_scaled_blocks(const BlockVec& src, double scale, std::vector<float>& dst) {
    dst.resize(src.size() * 6);
    par::parallel_for(src.size(), kXferGrain, [&](std::size_t i) {
        for (int k = 0; k < 6; ++k)
            dst[i * 6 + k] = static_cast<float>(src[i][static_cast<std::size_t>(k)] * scale);
    });
}

/// y += alpha * double(x32), flat fp32 back into the block vector.
void promote_axpy_blocks(double alpha, const std::vector<float>& x32, BlockVec& y) {
    par::parallel_for(y.size(), kXferGrain, [&](std::size_t i) {
        for (int k = 0; k < 6; ++k)
            y[i][static_cast<std::size_t>(k)] += alpha * static_cast<double>(x32[i * 6 + k]);
    });
}

/// Strict-fp64 PCG — the reference path. With the HSBCSR backend this is the
/// pre-frontier solver, bit for bit.
PcgResult pcg_fp64(const PcgMatrix& a, const BlockVec& b, BlockVec& x, const Preconditioner& m,
                   const PcgOptions& opts, simt::KernelCost* cost, PcgWorkspace& w) {
    const int n = a.h->n;
    w.r.resize(n);
    w.z.resize(n);
    w.p.resize(n);
    w.ap.resize(n);
    BlockVec& r = w.r;
    BlockVec& z = w.z;
    BlockVec& p = w.p;
    BlockVec& ap = w.ap;

    // r = b - A x (warm start). A cold start (x exactly zero) yields r = b
    // directly; the SpMV is skipped and charges nothing to the ledger.
    if (is_exactly_zero(x)) {
        r = b;
        if (cost) simt::record_skipped_kernel(cost, backend_kernel_name(a));
    } else {
        backend_spmv(a, x, r, w, cost);
        for (int i = 0; i < n; ++i) r[i] = b[i] - r[i];
    }

    const double bnorm = sparse::norm(b);
    PcgResult res;
    if (bnorm == 0.0) {
        sparse::fill_zero(x);
        res.converged = true;
        if (opts.residual_log) opts.residual_log->push_back(0.0);
        return res;
    }

    double rz = m.apply_dot(r, z, cost);
    p = z;

    double rnorm = sparse::norm(r);
    if (opts.residual_log) opts.residual_log->push_back(rnorm / bnorm);
    for (int it = 0; it < opts.max_iters; ++it) {
        if (rnorm / bnorm < opts.rel_tol || rnorm < opts.abs_tol) {
            res.converged = true;
            break;
        }
        trace::Span iter_span(opts.tracer, trace::Category::PcgIteration, "pcg_iteration");
        backend_spmv(a, p, ap, w, cost);
        const double pap = sparse::dot(p, ap);
        if (pap <= 0.0) break; // matrix lost positive definiteness
        const double alpha = rz / pap;
        rnorm = std::sqrt(fused_xr_update(alpha, p, ap, x, r));
        const double rz_new = m.apply_dot(r, z, cost);
        const double beta = rz_new / rz;
        rz = rz_new;
        sparse::xpay(z, beta, p);
        if (opts.residual_log) opts.residual_log->push_back(rnorm / bnorm);
        ++res.iterations;
        if (cost) simt::record_kernel(cost, blas1_iteration_cost(a.h->n * 6ull));
    }
    res.final_residual = rnorm / bnorm;
    res.converged = res.converged || rnorm / bnorm < opts.rel_tol;
    return res;
}

/// fp32 inner solve of A32 c = r32 (c left in w.x32, rhs consumed in place)
/// with an fp32 block-Jacobi preconditioner. Returns the iteration count.
/// Every primitive is deterministic, so the fp32 bits are thread-count
/// invariant like everything else.
int inner_solve_f32(const PcgMatrix& a, const PcgOptions& opts, simt::KernelCost* cost,
                    PcgWorkspace& w) {
    const std::size_t dim = w.r32.size();
    const std::size_t n = static_cast<std::size_t>(a.h->n);
    w.x32.assign(dim, 0.0f);
    w.z32.resize(dim);
    w.p32.resize(dim);
    w.ap32.resize(dim);
    w.spmv32.resize(static_cast<std::size_t>(a.h->m));

    auto apply_jacobi = [&](const std::vector<float>& rr, std::vector<float>& zz) {
        par::parallel_for(n, kXferGrain, [&](std::size_t i) {
            const float* inv = &w.jac32[i * 36];
            for (int row = 0; row < 6; ++row) {
                float acc = 0.0f;
                for (int col = 0; col < 6; ++col) acc += inv[row * 6 + col] * rr[i * 6 + col];
                zz[i * 6 + row] = acc;
            }
        });
        if (cost) {
            simt::KernelCost kc;
            kc.name = "precond_block_jacobi_f32";
            kc.flops = 72.0 * static_cast<double>(n);
            kc.bytes_coalesced = static_cast<double>(n) * (36.0 + 12.0) * sizeof(float);
            kc.depth = 6;
            simt::record_kernel(cost, kc);
        }
    };

    const double bn = norm2_f32(w.r32);
    if (bn == 0.0) return 0;
    apply_jacobi(w.r32, w.z32);
    double rz = dot_f32(w.r32, w.z32);
    w.p32 = w.z32;
    double rn = bn;
    int iters = 0;
    const int max_iters = opts.inner_max_iters > 0 ? opts.inner_max_iters : opts.max_iters;
    for (int it = 0; it < max_iters; ++it) {
        if (rn / bn < opts.inner_rel_tol) break;
        sparse::spmv_hsbcsr_f32(*a.h, *a.h32, w.p32, w.ap32, w.spmv32, cost);
        const double pap = dot_f32(w.p32, w.ap32);
        if (pap <= 0.0) break; // fp32 rounding broke definiteness; stop here
        const float alpha = static_cast<float>(rz / pap);
        axpy_f32(alpha, w.p32, w.x32);
        axpy_f32(-alpha, w.ap32, w.r32);
        apply_jacobi(w.r32, w.z32);
        const double rz_new = dot_f32(w.r32, w.z32);
        rn = norm2_f32(w.r32);
        const float beta = static_cast<float>(rz_new / rz);
        rz = rz_new;
        xpay_f32(w.z32, beta, w.p32);
        ++iters;
        if (cost) simt::record_kernel(cost, blas1_iteration_cost_f32(dim));
    }
    return iters;
}

/// Mixed-precision iterative refinement: true fp64 residual, residual scaled
/// to unit norm and demoted, fp32 correction solve, fp64 accumulation. A
/// pass that fails to shrink ||r|| by refine_min_progress (or that diverges
/// — NaN compares false, landing in the same branch) triggers the strict
/// fp64 fallback from the best iterate seen.
PcgResult pcg_mixed(const PcgMatrix& a, const BlockVec& b, BlockVec& x, const Preconditioner& m,
                    const PcgOptions& opts, simt::KernelCost* cost, PcgWorkspace& w) {
    const int n = a.h->n;
    w.r.resize(n);
    BlockVec& r = w.r;

    const double bnorm = sparse::norm(b);
    PcgResult res;
    if (bnorm == 0.0) {
        sparse::fill_zero(x);
        res.converged = true;
        if (opts.residual_log) opts.residual_log->push_back(0.0);
        return res;
    }

    // fp32 block-Jacobi for the inner solve: fp64 LDL^T inverses of the
    // diagonal blocks, demoted once per solve. Serial (throws on an
    // indefinite block, like the fp64 Block-Jacobi construction).
    w.jac32.resize(static_cast<std::size_t>(n) * 36);
    for (int i = 0; i < n; ++i) {
        sparse::Mat6 d;
        for (int rr = 0; rr < 6; ++rr)
            for (int cc = 0; cc < 6; ++cc) d(rr, cc) = a.h->d_at(i, rr, cc);
        const sparse::Mat6 inv = sparse::Ldlt6(d).inverse();
        for (int k = 0; k < 36; ++k)
            w.jac32[static_cast<std::size_t>(i) * 36 + k] = static_cast<float>(inv.a[k]);
    }

    if (is_exactly_zero(x)) {
        r = b;
        if (cost) simt::record_skipped_kernel(cost, backend_kernel_name(a));
    } else {
        backend_spmv(a, x, r, w, cost);
        for (int i = 0; i < n; ++i) r[i] = b[i] - r[i];
    }
    double rnorm = sparse::norm(r);
    if (opts.residual_log) opts.residual_log->push_back(rnorm / bnorm);

    bool stagnated = false;
    while (!res.converged && !stagnated && res.refine_iterations < opts.max_refine_iters) {
        if (rnorm / bnorm < opts.rel_tol || rnorm < opts.abs_tol) {
            res.converged = true;
            break;
        }
        trace::Span pass_span(opts.tracer, trace::Category::PcgIteration, "pcg_refine_pass");
        demote_scaled_blocks(r, 1.0 / rnorm, w.r32);
        if (cost) simt::record_kernel(cost, precision_transfer_cost(w.r32.size()));
        res.fp32_iterations += inner_solve_f32(a, opts, cost, w);
        w.x_saved = x; // snapshot: a diverging pass must not poison the iterate
        promote_axpy_blocks(rnorm, w.x32, x);
        if (cost) simt::record_kernel(cost, precision_transfer_cost(w.x32.size()));
        ++res.refine_iterations;
        ++res.iterations;
        backend_spmv(a, x, r, w, cost);
        for (int i = 0; i < n; ++i) r[i] = b[i] - r[i];
        const double rnew = sparse::norm(r);
        if (opts.residual_log) opts.residual_log->push_back(rnew / bnorm);
        if (rnew / bnorm < opts.rel_tol) {
            rnorm = rnew;
            res.converged = true;
        } else if (!(rnew <= opts.refine_min_progress * rnorm)) {
            stagnated = true;
            if (!(rnew < rnorm)) {
                x = w.x_saved; // the pass made things worse (or NaN): undo it
            } else {
                rnorm = rnew;
            }
        } else {
            rnorm = rnew;
        }
    }
    res.final_residual = rnorm / bnorm;
    res.converged = res.converged || rnorm / bnorm < opts.rel_tol;

    if (!res.converged) {
        // fp32 ran out of road (stagnation or refinement budget): finish the
        // job in strict fp64 from the current iterate.
        res.fell_back_fp64 = true;
        PcgOptions strict = opts;
        strict.precision = PcgPrecision::Fp64;
        strict.residual_log = opts.residual_log;
        const PcgResult tail = pcg_fp64(a, b, x, m, strict, cost, w);
        res.iterations += tail.iterations;
        res.final_residual = tail.final_residual;
        res.converged = tail.converged;
    }
    return res;
}

} // namespace

PcgResult pcg(const PcgMatrix& a, const BlockVec& b, BlockVec& x, const Preconditioner& m,
              const PcgOptions& opts, simt::KernelCost* cost, PcgWorkspace* caller_ws) {
    assert(a.h != nullptr);
    PcgWorkspace local;
    PcgWorkspace& w = caller_ws ? *caller_ws : local;
    if (opts.precision == PcgPrecision::MixedFp32 && a.h32 != nullptr)
        return pcg_mixed(a, b, x, m, opts, cost, w);
    return pcg_fp64(a, b, x, m, opts, cost, w);
}

PcgResult pcg(const HsbcsrMatrix& a, const BlockVec& b, BlockVec& x, const Preconditioner& m,
              const PcgOptions& opts, simt::KernelCost* cost, PcgWorkspace* caller_ws) {
    PcgMatrix view;
    view.h = &a;
    return pcg(view, b, x, m, opts, cost, caller_ws);
}

PcgResult cg(const HsbcsrMatrix& a, const BlockVec& b, BlockVec& x, const PcgOptions& opts) {
    const auto ident = make_identity(a.n);
    return pcg(a, b, x, *ident, opts, nullptr);
}

} // namespace gdda::solver
