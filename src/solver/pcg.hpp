#pragma once
// Preconditioned conjugate gradient solver over the block system K d = F.
// The matrix is consumed in HSBCSR form (the GPU-resident format). An
// iteration is one SpMV, one preconditioner apply that also yields dot(r,z),
// and three fused BLAS-1 kernels (dot(p,ap) | x,r update producing r.r |
// xpay) — about 3 full-vector memory passes where the textbook formulation
// needs ~7. The fused kernels are bit-identical to the textbook five, and
// are accounted into the analytic GPU trace on request.
//
// Solver-frontier variants, each individually selectable and each holding
// the repo's determinism contract (any thread count -> identical bits):
//
//  * SpMV backend — PcgMatrix::sell swaps the fp64 SpMV for the row-sorted
//    sliced-ELL kernel. A different backend is a different (fixed) summation
//    order, so its bits differ from HSBCSR's; *within* a backend results are
//    thread-count invariant.
//  * Mixed precision — PcgOptions::precision = MixedFp32 wraps an fp32 inner
//    PCG (fp32 HSBCSR shadow + fp32 block-Jacobi) in an fp64 iterative-
//    refinement outer loop: true fp64 residual, scaled fp32 correction
//    solve, fp64 accumulation. When an outer pass fails to shrink the
//    residual by refine_min_progress the solver falls back to strict fp64
//    from the current iterate (PcgResult::fell_back_fp64).
//
// Strict fp64 + HSBCSR backend reproduces the pre-frontier solver bit for
// bit.
//
// DDA-specific behavior from the paper:
//  * the previous step's solution warm-starts the iteration (section IV.A),
//  * if convergence is not reached within `max_iters` (DDA uses 200), the
//    caller shrinks the physical time step and rebuilds the system.

#include <functional>
#include <vector>

#include "simt/cost_model.hpp"
#include "solver/preconditioner.hpp"
#include "sparse/ell.hpp"
#include "sparse/spmv.hpp"

namespace gdda::trace {
class Tracer;
}

namespace gdda::solver {

/// Numeric precision policy for pcg().
enum class PcgPrecision {
    Fp64,      ///< strict double everywhere (the reference path)
    MixedFp32, ///< fp32 inner solve inside an fp64 refinement loop
};

/// The matrix views a solve may consume. `h` is required; the optional views
/// must describe the same operator (same structure and values).
struct PcgMatrix {
    const sparse::HsbcsrMatrix* h = nullptr;    ///< required: fp64 reference
    const sparse::HsbcsrF32* h32 = nullptr;     ///< enables PcgPrecision::MixedFp32
    const sparse::SortedSellMatrix* sell = nullptr; ///< fp64 sliced-ELL SpMV backend
};

struct PcgOptions {
    int max_iters = 200;
    double rel_tol = 1e-10;  ///< on the preconditioned residual norm
    double abs_tol = 1e-300;
    /// When set, the relative residual |r|/|b| is appended once on entry and
    /// once per iteration — the convergence curve telemetry records. The
    /// mixed path logs one entry per *outer* refinement pass (true fp64
    /// residual).
    std::vector<double>* residual_log = nullptr;
    /// When set, each PCG iteration runs inside a trace::Span (category
    /// pcg_iteration). Engines wire this from TraceConfig::pcg_iteration_spans.
    trace::Tracer* tracer = nullptr;

    // Mixed-precision refinement knobs (PcgPrecision::MixedFp32 only).
    PcgPrecision precision = PcgPrecision::Fp64;
    int max_refine_iters = 40;      ///< outer fp64 refinement passes
    int inner_max_iters = 0;        ///< fp32 iterations per pass; 0 = max_iters
    double inner_rel_tol = 1e-4;    ///< fp32 inner solve tolerance
    /// An outer pass must shrink ||r|| by at least this factor, or the
    /// solver abandons fp32 and finishes in strict fp64.
    double refine_min_progress = 0.5;
};

struct PcgResult {
    int iterations = 0;
    double final_residual = 0.0; ///< |r| / |b|
    bool converged = false;
    // Mixed-precision accounting (zero on the strict path).
    int refine_iterations = 0; ///< fp64 outer passes taken
    int fp32_iterations = 0;   ///< total fp32 inner iterations
    bool fell_back_fp64 = false; ///< fp32 stagnated; finished in fp64
};

/// Caller-owned scratch for pcg(): the residual/direction vectors and the
/// two-stage SpMV workspace. Reusing one across calls removes the BlockVec
/// allocations plus the HSBCSR scatter buffers from every solve; contents
/// are fully overwritten, so reuse never changes results.
struct PcgWorkspace {
    sparse::BlockVec r, z, p, ap;
    sparse::HsbcsrWorkspace spmv;
    // Sliced-ELL backend flat views.
    std::vector<double> flat_x, flat_y;
    // Mixed-precision fp32 inner-solve scratch, and the fp64 iterate saved
    // before each refinement pass.
    std::vector<float> x32, r32, z32, p32, ap32, jac32;
    sparse::BlockVec x_saved;
    sparse::HsbcsrF32Workspace spmv32;
};

/// Solve A x = b; x holds the warm-start on entry and the solution on exit.
/// `ws` optionally provides reusable scratch; when null a local workspace is
/// allocated (bitwise-identical results either way). `a.h` must be non-null;
/// MixedFp32 additionally requires `a.h32` (silently solved strict-fp64
/// otherwise, so a caller that never builds the shadow loses nothing).
PcgResult pcg(const PcgMatrix& a, const sparse::BlockVec& b, sparse::BlockVec& x,
              const Preconditioner& m, const PcgOptions& opts = {},
              simt::KernelCost* cost = nullptr, PcgWorkspace* ws = nullptr);

/// Strict-fp64 HSBCSR convenience overload (the pre-frontier signature);
/// bit-identical to passing PcgMatrix{&a}.
PcgResult pcg(const sparse::HsbcsrMatrix& a, const sparse::BlockVec& b, sparse::BlockVec& x,
              const Preconditioner& m, const PcgOptions& opts = {},
              simt::KernelCost* cost = nullptr, PcgWorkspace* ws = nullptr);

/// Plain CG (identity preconditioner), for tests.
PcgResult cg(const sparse::HsbcsrMatrix& a, const sparse::BlockVec& b, sparse::BlockVec& x,
             const PcgOptions& opts = {});

} // namespace gdda::solver
