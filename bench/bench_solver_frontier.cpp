// bench_solver_frontier — CI smoke for the two solver-frontier features
// (mixed-precision PCG, sliced-ELL SpMV backend) on two zoo models, in both
// engine modes. Gates, reflected in the exit status:
//
//   * strict fp64 identity: the default config and an explicitly-spelled
//     strict config (Fp64 + HSBCSR) produce bit-identical trajectories, at
//     any solver team size — the frontier knobs at their defaults are the
//     pre-frontier solver;
//   * per-knob determinism: each frontier config is itself bitwise
//     thread-count invariant (1 vs 4 step threads);
//   * convergence: every frontier config completes the run with zero
//     failed PCG solves, and mixed precision keeps its fp64 refinement
//     pass count per solve under kRefineCeiling.
//
// Usage: bench_solver_frontier [--force]

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"

using namespace gdda;

namespace {

/// Refinement passes per solve the mixed mode may spend before CI considers
/// it broken (a healthy run needs a handful; runaway refinement means the
/// fp32 inner solve stopped making progress).
constexpr double kRefineCeiling = 12.0;
constexpr int kSteps = 12;

struct RunOutcome {
    std::uint64_t fingerprint = 0;
    long long pcg_solves = 0;
    long long pcg_failed = 0;
    long long pcg_iters = 0;
    long long refine_iters = 0;
    long long fp32_iters = 0;
    long long fallbacks = 0;
};

RunOutcome run_model(const std::string& model, core::EngineMode mode,
                     const core::SimConfig& cfg) {
    block::BlockSystem sys =
        model == "column" ? models::make_column(6) : models::make_slope_with_blocks(60);
    core::DdaEngine engine(sys, cfg, mode);
    RunOutcome out;
    for (int s = 0; s < kSteps; ++s) {
        const core::StepStats st = engine.step();
        out.pcg_solves += st.pcg_solves;
        out.pcg_failed += st.pcg_failed_solves;
        out.pcg_iters += st.pcg_iterations;
        out.refine_iters += st.pcg_refine_iterations;
        out.fp32_iters += st.pcg_fp32_iterations;
        out.fallbacks += st.pcg_mixed_fallbacks;
    }
    out.fingerprint = block::state_fingerprint(sys);
    return out;
}

} // namespace

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--force")) bench::force_report_overwrite() = true;

    bench::header("solver frontier smoke — mixed precision / sliced ELL");

    const char* models[] = {"column", "slope"};
    int failures = 0;
    bench::MetricReport rep("solver_frontier");
    rep.add("steps", kSteps);
    rep.add("refine_ceiling", kRefineCeiling);

    auto fail = [&](const std::string& what) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        ++failures;
    };

    for (const char* model : models) {
        for (core::EngineMode mode : {core::EngineMode::Serial, core::EngineMode::Gpu}) {
            const std::string tag = std::string(model) + "_" +
                                    (mode == core::EngineMode::Gpu ? "gpu" : "serial");

            // Baseline: default config (strict fp64, HSBCSR backend).
            core::SimConfig base_cfg;
            const RunOutcome base = run_model(model, mode, base_cfg);

            // Strict config spelled out, on a 4-thread team: must be the
            // identical trajectory — the frontier defaults ARE the
            // pre-frontier solver, and team size never changes bits.
            core::SimConfig strict_cfg;
            strict_cfg.pcg.precision = solver::PcgPrecision::Fp64;
            strict_cfg.spmv_backend = core::SpmvBackend::Hsbcsr;
            strict_cfg.step_threads = 4;
            const RunOutcome strict = run_model(model, mode, strict_cfg);
            const bool strict_ok = strict.fingerprint == base.fingerprint;
            if (!strict_ok) fail(tag + ": strict fp64 trajectory differs from default");
            rep.add(tag + "_strict_identity", strict_ok ? 1.0 : 0.0);

            // Mixed precision: converges (no failed solves) with bounded
            // refinement, and is itself thread-count invariant.
            core::SimConfig mixed_cfg;
            mixed_cfg.pcg.precision = solver::PcgPrecision::MixedFp32;
            mixed_cfg.step_threads = 1;
            const RunOutcome mixed1 = run_model(model, mode, mixed_cfg);
            mixed_cfg.step_threads = 4;
            const RunOutcome mixed4 = run_model(model, mode, mixed_cfg);
            if (mixed1.pcg_failed) fail(tag + ": mixed precision left solves unconverged");
            if (mixed1.fingerprint != mixed4.fingerprint)
                fail(tag + ": mixed precision not thread-count invariant");
            const double refine_per_solve =
                mixed1.pcg_solves ? double(mixed1.refine_iters) / double(mixed1.pcg_solves)
                                  : 0.0;
            if (refine_per_solve > kRefineCeiling)
                fail(tag + ": refinement passes per solve " +
                     std::to_string(refine_per_solve) + " exceed the CI ceiling");
            rep.add(tag + "_mixed_failed_solves", double(mixed1.pcg_failed));
            rep.add(tag + "_mixed_refine_per_solve", refine_per_solve);
            rep.add(tag + "_mixed_fp32_iters", double(mixed1.fp32_iters));
            rep.add(tag + "_mixed_fallbacks", double(mixed1.fallbacks));

            // Sliced-ELL backend: exact alternative — converges, and is
            // thread-count invariant under its own summation order.
            core::SimConfig sell_cfg;
            sell_cfg.spmv_backend = core::SpmvBackend::SlicedEll;
            sell_cfg.step_threads = 1;
            const RunOutcome sell1 = run_model(model, mode, sell_cfg);
            sell_cfg.step_threads = 4;
            const RunOutcome sell4 = run_model(model, mode, sell_cfg);
            if (sell1.pcg_failed) fail(tag + ": sliced-ELL backend left solves unconverged");
            if (sell1.fingerprint != sell4.fingerprint)
                fail(tag + ": sliced-ELL backend not thread-count invariant");
            rep.add(tag + "_sell_failed_solves", double(sell1.pcg_failed));
            rep.add(tag + "_sell_pcg_iters", double(sell1.pcg_iters));

            std::printf("%-14s strict %s | mixed refine/solve %.2f, fallbacks %lld | "
                        "sell iters %lld\n",
                        tag.c_str(), strict_ok ? "OK" : "FAIL", refine_per_solve,
                        mixed1.fallbacks, sell1.pcg_iters);
        }
    }

    rep.add("failures", double(failures));
    rep.write();
    if (failures) {
        std::fprintf(stderr, "\nFAILED: %d solver-frontier gate(s)\n", failures);
        return 1;
    }
    std::printf("\nOK: all solver-frontier gates passed on %zu model/mode combinations\n",
                sizeof models / sizeof models[0] * 2);
    return 0;
}
