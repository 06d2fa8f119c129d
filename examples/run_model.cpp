// gdda run_model — the command-line driver: load a model (or a named
// built-in generator), run the DDA pipeline with configurable options, emit
// SVG snapshots and binary engine checkpoints (gdda::state). The
// adoption-facing entry point of the library.
//
// Usage:
//   run_model <model.txt | slope:N | rocks:N | tunnel | column:N>
//             [--steps N] [--dt S] [--static|--dynamic]
//             [--engine serial|gpu] [--precond bj|ssor|ilu|jacobi]
//             [--spmv hsbcsr|sell] [--precision fp64|mixed]
//             [--exact-rotation]
//             [--snapshot prefix] [--snapshot-every N]
//             [--checkpoint-out file] [--checkpoint-in file]
//             [--report-energy] [--telemetry file.jsonl] [--trace file.trace.json]
//
// --checkpoint-in resumes from a snapshot written by --checkpoint-out: the
// block system comes from the snapshot (the model argument is not built),
// the engine from the command line. A resume whose engine mode or
// trajectory-affecting options differ from the checkpointed run's is
// refused (exit 1); otherwise it continues bitwise-identically.
//
// Examples:
//   run_model slope:400 --static --steps 800 --snapshot slope
//   run_model tunnel --dynamic --steps 2000 --checkpoint-out tun.ckpt
//   run_model tunnel --dynamic --checkpoint-in tun.ckpt --steps 2000

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/energy.hpp"
#include "core/interpenetration.hpp"
#include "core/simulation.hpp"
#include "io/model_io.hpp"
#include "io/snapshot.hpp"
#include "models/falling_rocks.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"
#include "models/tunnel.hpp"
#include "state/snapshot.hpp"
#include "trace/chrome_export.hpp"

using namespace gdda;

namespace {

block::BlockSystem make_model(const std::string& spec) {
    const auto colon = spec.find(':');
    const std::string kind = spec.substr(0, colon);
    const int n = colon == std::string::npos ? 0 : std::atoi(spec.c_str() + colon + 1);
    if (kind == "slope") return models::make_slope_with_blocks(n > 0 ? n : 300);
    if (kind == "rocks") return models::make_falling_rocks_with_blocks(n > 0 ? n : 100);
    if (kind == "tunnel") return models::make_tunnel();
    if (kind == "column") return models::make_column(n > 0 ? n : 5);
    return io::load_model_file(spec);
}

int usage() {
    std::fprintf(stderr,
                 "usage: run_model <model.txt|slope:N|rocks:N|tunnel|column:N> [options]\n"
                 "  --steps N --dt S --static --dynamic --engine serial|gpu\n"
                 "  --precond bj|ssor|ilu|jacobi --exact-rotation\n"
                 "  --spmv hsbcsr|sell --precision fp64|mixed\n"
                 "  --snapshot prefix --snapshot-every N\n"
                 "  --checkpoint-out file --checkpoint-in file --report-energy\n"
                 "  --telemetry file.jsonl --trace file.trace.json\n");
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string model_spec = argv[1];

    int steps = 500;
    core::SimConfig cfg;
    core::EngineMode mode = core::EngineMode::Serial;
    std::string snapshot_prefix;
    int snapshot_every = 100;
    std::string ckpt_out;
    std::string ckpt_in;
    bool report_energy = false;

    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        if (a == "--steps") {
            steps = std::atoi(next());
        } else if (a == "--dt") {
            cfg.dt = std::atof(next());
            cfg.dt_max = cfg.dt * 2.0;
        } else if (a == "--static") {
            cfg.velocity_carry = 0.0;
        } else if (a == "--dynamic") {
            cfg.velocity_carry = 1.0;
        } else if (a == "--engine") {
            const char* v = next();
            mode = (v && std::strcmp(v, "gpu") == 0) ? core::EngineMode::Gpu
                                                     : core::EngineMode::Serial;
        } else if (a == "--precond") {
            const char* v = next();
            if (!v) return usage();
            if (std::strcmp(v, "bj") == 0) cfg.precond = core::PrecondKind::BlockJacobi;
            else if (std::strcmp(v, "ssor") == 0) cfg.precond = core::PrecondKind::SsorAi;
            else if (std::strcmp(v, "ilu") == 0) cfg.precond = core::PrecondKind::Ilu0;
            else if (std::strcmp(v, "jacobi") == 0) cfg.precond = core::PrecondKind::Jacobi;
            else return usage();
        } else if (a == "--spmv") {
            const char* v = next();
            if (!v) return usage();
            if (std::strcmp(v, "hsbcsr") == 0) cfg.spmv_backend = core::SpmvBackend::Hsbcsr;
            else if (std::strcmp(v, "sell") == 0) cfg.spmv_backend = core::SpmvBackend::SlicedEll;
            else return usage();
        } else if (a == "--precision") {
            const char* v = next();
            if (!v) return usage();
            if (std::strcmp(v, "fp64") == 0)
                cfg.pcg.precision = solver::PcgPrecision::Fp64;
            else if (std::strcmp(v, "mixed") == 0)
                cfg.pcg.precision = solver::PcgPrecision::MixedFp32;
            else return usage();
        } else if (a == "--exact-rotation") {
            cfg.exact_rotation = true;
        } else if (a == "--snapshot") {
            snapshot_prefix = next();
        } else if (a == "--snapshot-every") {
            snapshot_every = std::atoi(next());
        } else if (a == "--checkpoint-out") {
            ckpt_out = next();
        } else if (a == "--checkpoint-in") {
            ckpt_in = next();
        } else if (a == "--report-energy") {
            report_energy = true;
        } else if (a == "--telemetry") {
            const char* v = next();
            if (!v) return usage();
            cfg.telemetry.enabled = true;
            cfg.telemetry.jsonl_path = v;
        } else if (a == "--trace") {
            const char* v = next();
            if (!v) return usage();
            cfg.trace.enabled = true;
            cfg.trace.chrome_path = v;
        } else {
            std::fprintf(stderr, "unknown option %s\n", a.c_str());
            return usage();
        }
    }

    try {
        block::BlockSystem sys_storage;
        std::optional<core::DdaEngine> engine;
        if (!ckpt_in.empty()) {
            const state::EngineSnapshot snap = state::load_snapshot_file(ckpt_in);
            sys_storage = snap.state.sys;
            engine.emplace(sys_storage, cfg, mode);
            state::restore_engine(*engine, snap);
            std::printf("resumed from %s at step %d, t=%.4f s (%zu blocks)\n",
                        ckpt_in.c_str(), engine->step_index(), engine->time(),
                        sys_storage.size());
        } else {
            sys_storage = make_model(model_spec);
            engine.emplace(sys_storage, cfg, mode);
            std::printf("model %s: %zu blocks\n", model_spec.c_str(), sys_storage.size());
        }

        if (!snapshot_prefix.empty())
            io::write_snapshot_svg(snapshot_prefix + "_t0.svg", engine->system());

        for (int s = 1; s <= steps; ++s) {
            const core::StepStats st = engine->step();
            if (s % std::max(snapshot_every, 1) == 0) {
                std::printf("step %5d: t=%.4f dt=%.2e contacts=%zu (%zu active) pcg=%d\n", s,
                            engine->time(), st.dt_used, st.contacts, st.active_contacts,
                            st.pcg_iterations);
                if (!snapshot_prefix.empty()) {
                    char name[256];
                    std::snprintf(name, sizeof name, "%s_t%d.svg", snapshot_prefix.c_str(), s);
                    io::write_snapshot_svg(name, engine->system());
                }
                if (report_energy) {
                    const core::EnergyReport e = core::measure_energy(engine->system());
                    std::printf("        energy: kinetic=%.3e potential=%.3e elastic=%.3e\n",
                                e.kinetic, e.potential, e.elastic);
                }
            }
        }

        const auto rep = core::audit_interpenetration(engine->system());
        std::printf("done: t=%.4f s, max interpenetration %.2e m\n", engine->time(),
                    rep.max_depth);

        const auto& t = engine->timers();
        for (int m = 0; m < core::kModuleCount; ++m)
            std::printf("  %-30s %8.3f s\n", std::string(core::kModuleNames[m]).c_str(),
                        t.seconds(static_cast<core::Module>(m)));
        if (mode == core::EngineMode::Gpu) {
            std::printf("  modeled GPU total: K20 %.1f ms, K40 %.1f ms\n",
                        engine->ledgers().total_modeled_ms(simt::tesla_k20()),
                        engine->ledgers().total_modeled_ms(simt::tesla_k40()));
        }

        if (!ckpt_out.empty()) {
            state::save_engine_file(ckpt_out, *engine);
            std::printf("checkpoint written to %s\n", ckpt_out.c_str());
        }
        if (const auto& rec = engine->recorder()) {
            rec->flush();
            std::printf("telemetry: %d records -> %s\n", rec->steps_recorded(),
                        cfg.telemetry.jsonl_path.c_str());
        }
        if (const auto& tracer = engine->tracer()) {
            std::string err;
            if (trace::write_chrome_trace(cfg.trace.chrome_path, *tracer, &err))
                std::printf("trace: %llu events -> %s\n",
                            static_cast<unsigned long long>(tracer->events_seen()),
                            cfg.trace.chrome_path.c_str());
            else
                std::fprintf(stderr, "trace export failed: %s\n", err.c_str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
