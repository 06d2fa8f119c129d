#include "replay.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "assembly/submatrices.hpp"
#include "contact/broad_phase.hpp"
#include "contact/narrow_phase.hpp"
#include "contact/open_close.hpp"
#include "contact/pair_classes.hpp"
#include "contact/transfer.hpp"
#include "core/energy.hpp"
#include "core/interpenetration.hpp"
#include "core/solve_workspace.hpp"
#include "metrics/engine_observer.hpp"
#include "metrics/registry.hpp"
#include "obs/recorder.hpp"
#include "par/thread_budget.hpp"
#include "probe.hpp"
#include "solver/pcg.hpp"
#include "sparse/spmv.hpp"
#include "state/snapshot.hpp"

namespace perfbench {

namespace {

using namespace gdda;

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Run `body` `reps` times, each inside its own span, and return the median
/// wall time in milliseconds. `prepare` runs before each repetition, outside
/// the timed region (it restores inputs that `body` consumes).
template <typename Prepare, typename Body>
double timed_ms(SpanLog* log, const char* name, int request, int reps, Prepare&& prepare,
                Body&& body) {
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
        prepare();
        ScopedSpan span(log, name, request);
        const double t0 = now_us();
        body();
        ms.push_back((now_us() - t0) * 1e-3);
    }
    return median(std::move(ms));
}

template <typename Body>
double timed_ms(SpanLog* log, const char* name, int request, int reps, Body&& body) {
    return timed_ms(log, name, request, reps, [] {}, body);
}

std::size_t hsbcsr_array_bytes(const sparse::HsbcsrMatrix& h) {
    return (h.d_data.size() + h.nd_data_up.size()) * sizeof(double) +
           h.rc.size() * sizeof(std::uint64_t) +
           (h.row_up_i.size() + h.row_low_i.size() + h.row_low_p.size()) *
               sizeof(std::uint32_t);
}

/// The step parameters DdaEngine::solve_pass builds from its config and the
/// initial-model scalars carried in the checkpoint.
assembly::StepParams step_params(const core::SimConfig& cfg, const core::EngineCheckpoint& cp) {
    assembly::StepParams sp;
    sp.dt = cp.dt;
    sp.velocity_carry = cfg.velocity_carry;
    sp.contact.penalty = cfg.penalty_scale * cp.sys.max_young();
    sp.contact.shear_penalty = sp.contact.penalty * cfg.shear_penalty_ratio;
    sp.contact.max_closing_depth = 0.2 * cp.mobile_size;
    sp.contact.open_tol = 1e-9 * cp.w0;
    sp.contact.max_push = std::max(10.0 * cp.dt, 40e-9 * cp.w0);
    sp.fixed_penalty = sp.contact.penalty * cfg.fixed_penalty_ratio;
    return sp;
}

} // namespace

void replay_layers(const ReplayInput& in, SpanLog* log, LayerReport& out) {
    const core::EngineCheckpoint& cp = *in.checkpoint;
    const core::SimConfig& cfg = *in.config;
    const int req = cp.step_index;
    const bool gpu = in.workload->mode == core::EngineMode::Gpu;
    par::ScopedTeamSize team_scope(in.team);
    ScopedSpan root(log, "replay", req);

    block::BlockSystem sys = cp.sys;
    sys.update_all_geometry();
    const double n = static_cast<double>(sys.size());
    const double rho = cfg.search_factor * cfg.max_disp_ratio * cp.w0;

    // --- contact: the detection the next step() would run -----------------
    std::vector<contact::BlockPair> pairs;
    out.set("contact.broad_ms", timed_ms(log, "contact.run_broad_phase", req, 3, [&] {
                pairs = contact::run_broad_phase(sys, rho, in.backend, gpu, cfg.broad_phase_cell);
            }));
    out.set("contact.candidates_per_block", static_cast<double>(pairs.size()) / n);

    // The engine classifies the candidates before the narrow phase when
    // classify_pairs is on, and hands the schedule's stats to it.
    contact::PairScheduleStats sched;
    const contact::PairScheduleStats* sched_in = nullptr;
    if (cfg.classify_pairs) {
        std::vector<contact::BlockPair> scheduled;
        out.set("contact.classify_ms", timed_ms(log, "contact.classify_pairs", req, 3, [&] {
                    scheduled = contact::classify_pairs(sys, pairs, &sched);
                }));
        pairs = std::move(scheduled);
        sched_in = &sched;
    } else {
        out.skip("contact.classify_ms", "classify_pairs is off in this workload");
    }

    contact::NarrowPhaseResult np;
    out.set("contact.narrow_ms", timed_ms(log, "contact.narrow_phase", req, 3, [&] {
                np = contact::narrow_phase(sys, pairs, rho, nullptr, sched_in);
            }));
    out.set("contact.narrow_yield", pairs.empty() ? 0.0
                                                  : static_cast<double>(np.contacts.size()) /
                                                        static_cast<double>(pairs.size()));

    std::vector<contact::Contact> contacts;
    out.set("contact.transfer_ms",
            timed_ms(
                log, "contact.transfer_contacts", req, 3, [&] { contacts = np.contacts; },
                [&] { contact::transfer_contacts(cp.contacts, contacts); }));

    std::vector<contact::ContactGeometry> geo;
    out.set("contact.init_ms", timed_ms(log, "contact.init_all_contacts", req, 3, [&] {
                geo = contact::init_all_contacts(sys, contacts);
            }));

    // --- assembly: cold structure build, then warm numeric refills --------
    const assembly::BlockAttachments att = assembly::index_attachments(sys);
    const assembly::StepParams sp = step_params(cfg, cp);
    const double nc = std::max<double>(1.0, static_cast<double>(contacts.size()));
    core::SolveWorkspace ws(gpu, cfg.reuse_structure);
    {
        const long rss0 = vm_rss_kib();
        const Usage u0 = usage_now();
        out.set("assembly.cold_ms", timed_ms(log, "core.SolveWorkspace.assemble[cold]", req, 1,
                                             [&] {
                                                 ws.assemble(sys, att, contacts, geo, sp, 1,
                                                             nullptr, nullptr);
                                             }));
        const Usage du = usage_now() - u0;
        out.set("assembly.rss_bytes_per_contact",
                1024.0 * static_cast<double>(vm_rss_kib() - rss0) / nc);
        out.set("assembly.minor_faults_per_contact", static_cast<double>(du.minor_faults) / nc);
    }
    const auto prepare = [&] {
        ws.prepare_solve(cfg.precond, cfg.spmv_backend, false, nullptr);
    };
    timed_ms(log, "core.SolveWorkspace.prepare_solve[cold]", req, 1, prepare);
    const auto warm_assemble = [&] {
        ws.assemble(sys, att, contacts, geo, sp, 1, nullptr, nullptr);
    };
    out.set("assembly.warm_ms",
            timed_ms(log, "core.SolveWorkspace.assemble[warm]", req, 5, warm_assemble));
    out.set("solver.prepare_ms",
            timed_ms(log, "core.SolveWorkspace.prepare_solve[warm]", req, 5, prepare));

    // --- sparse / solver kernels on the assembled system ------------------
    const sparse::BlockVec& x0 = cp.warm_start;
    sparse::BlockVec y(sys.size());
    sparse::HsbcsrWorkspace hws;
    const double spmv_ms = timed_ms(log, "sparse.spmv_hsbcsr", req, 20, [&] {
        sparse::spmv_hsbcsr(ws.matrix(), x0, y, hws);
    });
    const double h_bytes = static_cast<double>(hsbcsr_array_bytes(ws.matrix()));
    out.set("sparse.spmv_ms", spmv_ms);
    out.set("sparse.hsbcsr_bytes", h_bytes);
    out.set("sparse.spmv_gbs", spmv_ms > 0 ? h_bytes / (spmv_ms * 1e6) : 0.0);

    sparse::BlockVec z(sys.size());
    out.set("solver.precond_apply_ms", timed_ms(log, "solver.Preconditioner.apply", req, 20,
                                                [&] { ws.precond().apply(x0, z); }));
    const double dot_ms =
        timed_ms(log, "sparse.dot", req, 20, [&] { (void)sparse::dot(x0, z); });
    const double axpy_ms =
        timed_ms(log, "sparse.axpy", req, 20, [&] { sparse::axpy(1e-3, x0, y); });
    out.set("solver.blas1_ms", dot_ms + axpy_ms);

    sparse::BlockVec d;
    solver::PcgResult pr;
    const auto solve = [&] {
        pr = solver::pcg(ws.pcg_matrix(), ws.rhs(), d, ws.precond(), cfg.pcg, nullptr,
                         &ws.pcg_workspace());
    };
    const double pcg_ms = timed_ms(log, "solver.pcg", req, 3, [&] { d = x0; }, solve);
    out.set("solver.pcg_ms_per_iter", pcg_ms / std::max(1, pr.iterations));

    // --- open-close evaluation under the solved increment -----------------
    std::vector<contact::Contact> states;
    out.set("contact.open_close_ms",
            timed_ms(
                log, "contact.update_contact_states", req, 3, [&] { states = contacts; },
                [&] { contact::update_contact_states(sys, geo, states, d, sp.contact); }));

    out.set("core.interpen_ms", timed_ms(log, "core.audit_interpenetration", req, 1,
                                         [&] { (void)core::audit_interpenetration(sys); }));

    // --- par: the same replays on a one-thread team -----------------------
    if (in.team > 1) {
        const double pcg_team = timed_ms(log, "par.pcg[team]", req, 3, [&] { d = x0; }, solve);
        const double asm_team = timed_ms(log, "par.assemble[team]", req, 3, warm_assemble);
        par::ScopedTeamSize one(1);
        const double pcg_one = timed_ms(log, "par.pcg[1]", req, 3, [&] { d = x0; }, solve);
        const double asm_one = timed_ms(log, "par.assemble[1]", req, 3, warm_assemble);
        out.set("par.pcg_speedup", pcg_team > 0 ? pcg_one / pcg_team : 0.0);
        out.set("par.assembly_speedup", asm_team > 0 ? asm_one / asm_team : 0.0);
    } else {
        out.skip("par.pcg_speedup", "team width is 1");
        out.skip("par.assembly_speedup", "team width is 1");
    }

    // --- obs / metrics: the per-step observers on a caught record ---------
    if (in.record) {
        obs::Recorder rec;
        rec.ensure_aggregator();
        out.set("obs.on_step_us", 1e3 * timed_ms(log, "obs.Recorder.on_step", req, 200,
                                                 [&] { rec.on_step(*in.record); }));
        metrics::Registry registry;
        metrics::EngineObserver observer(cfg.metrics, gpu ? "gpu" : "serial", &registry);
        metrics::StepContext ctx;
        ctx.sys = &sys;
        ctx.length_scale = cp.w0;
        ctx.open_close_cap = cfg.max_open_close_iters;
        ctx.pair_cache_state = cfg.broad_phase_cache ? 1 : -1;
        if (observer.wants_energy()) {
            ctx.has_energy = true;
            ctx.energy_total = core::measure_energy(sys).total();
        }
        out.set("metrics.on_step_us",
                1e3 * timed_ms(log, "metrics.EngineObserver.on_step", req, 200,
                               [&] { observer.on_step(*in.record, ctx); }));
    } else {
        out.skip("obs.on_step_us", "telemetry is off in this workload");
        out.skip("metrics.on_step_us", "the metrics observer is off in this workload");
    }
}

void replay_state(const core::DdaEngine& engine, SpanLog* log, LayerReport& out) {
    const int req = engine.step_index();
    ScopedSpan root(log, "replay.state", req);
    state::EngineSnapshot snap;
    out.set("state.capture_ms",
            timed_ms(log, "state.capture", req, 3, [&] { snap = state::capture(engine); }));
    std::string bytes;
    out.set("state.save_ms", timed_ms(log, "state.save_snapshot", req, 3, [&] {
                std::ostringstream os;
                state::save_snapshot(os, snap);
                bytes = std::move(os).str();
            }));
    out.set("state.snapshot_bytes", static_cast<double>(bytes.size()));
    std::optional<state::EngineSnapshot> loaded;
    out.set("state.load_ms", timed_ms(log, "state.load_snapshot", req, 3, [&] {
                std::istringstream is(bytes);
                loaded = state::load_snapshot(is);
            }));
    block::BlockSystem sys = engine.system();
    core::DdaEngine target(sys, engine.config(), engine.mode());
    out.set("state.restore_ms", timed_ms(log, "state.restore_engine", req, 3,
                                         [&] { state::restore_engine(target, *loaded); }));
}

} // namespace perfbench
