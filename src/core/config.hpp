#pragma once
// Simulation configuration: time-step control (loops 1-2), open-close
// control (loop 3), penalty scaling, and solver selection.

#include <stdexcept>

#include "metrics/config.hpp"
#include "obs/config.hpp"
#include "solver/pcg.hpp"
#include "trace/config.hpp"

namespace gdda::core {

enum class PrecondKind { Identity, Jacobi, BlockJacobi, SsorAi, Ilu0 };

/// fp64 SpMV backend for the PCG solve (see docs/PERFORMANCE.md, "SpMV
/// backends"). Backends are exact alternatives with their own fixed
/// summation order: a given backend is bitwise thread-count invariant, but
/// two backends legitimately differ in last-bit rounding.
///   Hsbcsr     the paper's two-stage half-matrix kernel (default)
///   SlicedEll  row-sorted sliced-ELL over the recovered full scalar matrix
enum class SpmvBackend { Hsbcsr, SlicedEll };

/// Broad-phase backend selection (see docs/CONTACTS.md for the contract).
/// All backends produce the identical candidate set, so this knob trades
/// asymptotics, never answers:
///   AllPairs  the paper's mapping — triangular in Serial mode, balanced
///             n x ceil(n/2) in Gpu mode; quadratic in the block count.
///   Hash      spatial-hash grid — near-linear at physical densities.
///   Auto      Hash at or above contact::kAutoHashMinBlocks blocks,
///             AllPairs below (the paper's own crossover argument).
enum class BroadPhase { Auto, AllPairs, Hash };

struct SimConfig {
    double dt = 1e-3;      ///< initial physical time step (s)
    double dt_min = 1e-7;
    double dt_max = 1e-2;
    /// Dynamic coefficient: 1 carries full velocity between steps (dynamic
    /// analysis, case 2), 0 drops it (static analysis, case 1).
    double velocity_carry = 1.0;

    /// Maximum allowed displacement ratio g2: per-step displacement must
    /// stay below 2 * g2 * w0 (w0 = half the model's vertical extent).
    double max_disp_ratio = 0.0075;
    /// Contact search distance as a multiple of the allowed displacement.
    double search_factor = 2.5;

    /// Broad-phase backend (Auto switches on scene size; see enum above).
    BroadPhase broad_phase = BroadPhase::Auto;
    /// Spatial-hash grid cell edge; 0 auto-sizes to twice the mean block
    /// diameter (see contact/spatial_hash.hpp). Ignored by AllPairs.
    double broad_phase_cell = 0.0;
    /// Persistent candidate-pair cache across steps: the broad phase is
    /// rebuilt with an extra motion margin and then revalidated in O(n) per
    /// step, rerunning only when a block's AABB leaves its cached margin.
    /// Warm steps are bitwise identical to cold ones (docs/CONTACTS.md).
    bool broad_phase_cache = true;
    /// Per-block motion budget of the pair cache, as a multiple of the
    /// contact search distance rho. Larger values keep the cache warm
    /// longer but admit more spurious candidates per rebuild.
    double pair_cache_margin = 1.0;
    /// Divergence-aware pair classification: bucket candidate pairs by
    /// work class before the narrow phase so SIMT warps run uniform trip
    /// counts (Nakahara & Washizawa). Pure permutation — trajectories are
    /// bit-identical either way; the SIMT trace prices the narrow phase
    /// with the schedule's measured divergence.
    bool classify_pairs = true;

    /// Contact penalty as a multiple of the stiffest Young's modulus.
    double penalty_scale = 10.0;
    /// Shear penalty relative to the normal penalty.
    double shear_penalty_ratio = 1.0;
    /// Fixed-point spring relative to the normal penalty.
    double fixed_penalty_ratio = 1.0;

    int max_open_close_iters = 8;
    int max_step_retries = 8;
    double dt_shrink = 0.3;  ///< factor on open-close / displacement failure
    double dt_grow = 1.3;    ///< relaxation after easy steps

    /// Use the exact rotation operator when applying block increments
    /// (corrects original DDA's O(r0^2) per-step area expansion).
    bool exact_rotation = false;

    PrecondKind precond = PrecondKind::BlockJacobi;

    /// fp64 SpMV backend used inside PCG (strict and mixed outer loop).
    SpmvBackend spmv_backend = SpmvBackend::Hsbcsr;

    /// Worker threads for the WHOLE step pipeline: broad phase, narrow
    /// phase, pair-cache revalidation, contact transfer, assembly refill,
    /// and the solve hot path (SpMV stages, BLAS-1, fused PCG passes) all
    /// inherit this one team. 0 inherits the ambient OpenMP setting; N > 0
    /// requests an explicit team of N, honored as asked (oversubscription
    /// included). Every value produces bit-identical results — every
    /// parallel stage fixes its emission/summation order independently of
    /// the team size — so this knob trades latency against throughput,
    /// never answers (docs/PERFORMANCE.md, "CPU execution backend").
    int step_threads = 0;

    /// Structure-caching solve path: when the contact-set fingerprint is
    /// unchanged between solve passes, reuse the cached assembly plan,
    /// HSBCSR index arrays, and preconditioner symbolic pattern, redoing
    /// only numerics. Warm passes are bitwise identical to cold ones; off
    /// forces the cold path every pass (debugging / A-B comparison).
    bool reuse_structure = true;

    /// Throws std::invalid_argument describing the first nonsensical field
    /// (non-positive or inverted dt bounds, ratios outside meaningful
    /// ranges). Engines validate on construction.
    void validate() const;
    /// The paper caps PCG at 200 iterations and shrinks dt on failure; the
    /// default here is more generous because the very first (cold) solve of
    /// a session has no warm start and legitimately needs several hundred
    /// iterations at moderate model sizes.
    solver::PcgOptions pcg{.max_iters = 1000, .rel_tol = 1e-10, .abs_tol = 1e-300};

    /// Structured telemetry (the gdda::obs subsystem): when enabled, the
    /// engine emits one schema-versioned record per step to the configured
    /// sinks. See docs/TELEMETRY.md.
    obs::TelemetryConfig telemetry;

    /// Hierarchical span tracing + kernel profiling (the gdda::trace
    /// subsystem): when enabled, the engine opens one span per time step,
    /// displacement pass, open-close iteration, module, solve, and PCG
    /// iteration, and captures every SIMT kernel launch. See docs/TRACING.md.
    trace::TraceConfig trace;

    /// Live metrics + health watchdog + flight recorder (the gdda::metrics
    /// subsystem): when enabled, the engine feeds each step record into the
    /// process-wide registry, grades it Ok/Warn/Critical, and retains a
    /// bounded ring of records for post-mortem bundles. Strictly
    /// observer-only (bitwise-identical trajectories either way). See
    /// docs/OBSERVABILITY.md.
    metrics::MetricsConfig metrics;
};

/// Per-step outcome statistics.
struct StepStats {
    double dt_used = 0.0;
    int open_close_iters = 0;
    int pcg_iterations = 0; ///< summed over open-close passes
    int pcg_solves = 0;      ///< linear solves performed (open-close passes)
    /// Of pcg_solves, how many exited without reaching tolerance. Nonzero
    /// means a displacement increment was committed from an unconverged
    /// solve — surfaced in metrics and telemetry.
    int pcg_failed_solves = 0;
    int retries = 0;
    /// Mixed-precision accounting (zero under PcgPrecision::Fp64): fp64
    /// refinement passes, fp32 inner iterations, and solves that abandoned
    /// fp32 for the strict-fp64 fallback.
    int pcg_refine_iterations = 0;
    int pcg_fp32_iterations = 0;
    int pcg_mixed_fallbacks = 0;
    std::size_t contacts = 0;
    std::size_t active_contacts = 0;
    double max_displacement = 0.0;
    double max_penetration = 0.0;
    bool converged = true;
};

} // namespace gdda::core
