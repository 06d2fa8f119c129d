// Shared implementation of the DDA pipeline engine (both modes). The
// GPU-mode-only cost plumbing lives in gpu_engine.cpp.

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/energy.hpp"
#include "core/engine.hpp"
#include "core/gpu_support.hpp"
#include "par/thread_budget.hpp"
#include "solver/preconditioner.hpp"

namespace gdda::core {

using block::BlockSystem;
using contact::Contact;
using contact::ContactGeometry;
using sparse::BlockVec;

void SimConfig::validate() const {
    if (!(dt > 0.0)) throw std::invalid_argument("SimConfig: dt must be positive");
    if (!(dt_min > 0.0) || dt_min > dt_max)
        throw std::invalid_argument("SimConfig: dt_min must be positive and <= dt_max");
    if (dt < dt_min || dt > dt_max)
        throw std::invalid_argument("SimConfig: dt must lie within [dt_min, dt_max]");
    if (velocity_carry < 0.0 || velocity_carry > 1.0)
        throw std::invalid_argument("SimConfig: velocity_carry must be in [0, 1]");
    if (!(max_disp_ratio > 0.0) || max_disp_ratio > 0.5)
        throw std::invalid_argument("SimConfig: max_disp_ratio must be in (0, 0.5]");
    if (!(search_factor >= 1.0))
        throw std::invalid_argument("SimConfig: search_factor must be >= 1");
    if (!(penalty_scale > 0.0))
        throw std::invalid_argument("SimConfig: penalty_scale must be positive");
    if (max_open_close_iters < 1 || max_step_retries < 1)
        throw std::invalid_argument("SimConfig: iteration limits must be >= 1");
    if (!(dt_shrink > 0.0) || dt_shrink >= 1.0)
        throw std::invalid_argument("SimConfig: dt_shrink must be in (0, 1)");
    if (!(dt_grow >= 1.0)) throw std::invalid_argument("SimConfig: dt_grow must be >= 1");
    if (pcg.max_iters < 1 || !(pcg.rel_tol > 0.0))
        throw std::invalid_argument("SimConfig: pcg options invalid");
    if (pcg.max_refine_iters < 1 || pcg.inner_max_iters < 0 || !(pcg.inner_rel_tol > 0.0))
        throw std::invalid_argument("SimConfig: pcg mixed-precision options invalid");
    if (!(pcg.refine_min_progress > 0.0) || !(pcg.refine_min_progress < 1.0))
        throw std::invalid_argument("SimConfig: pcg.refine_min_progress must be in (0, 1)");
    if (step_threads < 0)
        throw std::invalid_argument("SimConfig: step_threads must be >= 0");
    if (checkpoint_interval < 0)
        throw std::invalid_argument("SimConfig: checkpoint_interval must be >= 0");
    if (broad_phase_cell < 0.0)
        throw std::invalid_argument("SimConfig: broad_phase_cell must be >= 0");
    if (!(pair_cache_margin > 0.0))
        throw std::invalid_argument("SimConfig: pair_cache_margin must be positive");
    if (metrics.enabled) {
        if (metrics.flight_recorder_capacity < 1)
            throw std::invalid_argument(
                "SimConfig: metrics.flight_recorder_capacity must be >= 1");
        const metrics::HealthConfig& h = metrics.rules;
        if (h.pcg_fail_warn_streak < 1 || h.pcg_fail_critical_streak < 1 ||
            h.oc_cap_warn_streak < 1 || h.oc_cap_critical_streak < 1 ||
            h.energy_growth_warn_streak < 1 || h.energy_growth_critical_streak < 1)
            throw std::invalid_argument("SimConfig: metrics health streaks must be >= 1");
        if (!(h.penetration_warn_ratio > 0.0) ||
            h.penetration_critical_ratio < h.penetration_warn_ratio)
            throw std::invalid_argument("SimConfig: metrics penetration ratios invalid");
        if (!(h.latency_outlier_factor > 1.0) || h.latency_window < 1 ||
            h.min_latency_samples < 1)
            throw std::invalid_argument("SimConfig: metrics latency rule invalid");
    }
}

namespace {

/// Compact SimConfig summary embedded in post-mortem bundles: the knobs a
/// reader needs to reproduce or triage the run, not the whole struct.
obs::JsonValue config_to_json(const SimConfig& cfg) {
    obs::JsonValue j = obs::JsonValue::object();
    j.set("dt", obs::JsonValue::number(cfg.dt));
    j.set("dt_min", obs::JsonValue::number(cfg.dt_min));
    j.set("dt_max", obs::JsonValue::number(cfg.dt_max));
    j.set("velocity_carry", obs::JsonValue::number(cfg.velocity_carry));
    j.set("max_disp_ratio", obs::JsonValue::number(cfg.max_disp_ratio));
    j.set("penalty_scale", obs::JsonValue::number(cfg.penalty_scale));
    j.set("max_open_close_iters", obs::JsonValue::integer(cfg.max_open_close_iters));
    j.set("max_step_retries", obs::JsonValue::integer(cfg.max_step_retries));
    j.set("step_threads", obs::JsonValue::integer(cfg.step_threads));
    j.set("precond", obs::JsonValue::integer(static_cast<int>(cfg.precond)));
    j.set("exact_rotation", obs::JsonValue::boolean(cfg.exact_rotation));
    j.set("reuse_structure", obs::JsonValue::boolean(cfg.reuse_structure));
    j.set("broad_phase_cache", obs::JsonValue::boolean(cfg.broad_phase_cache));
    j.set("pcg_max_iters", obs::JsonValue::integer(cfg.pcg.max_iters));
    j.set("pcg_rel_tol", obs::JsonValue::number(cfg.pcg.rel_tol));
    return j;
}

} // namespace

DdaEngine::DdaEngine(BlockSystem& sys, SimConfig cfg, EngineMode mode)
    : sys_(&sys), cfg_(cfg), mode_(mode), dt_(cfg.dt),
      ws_(mode == EngineMode::Gpu, cfg.reuse_structure) {
    cfg_.validate();
    recorder_ = obs::Recorder::from_config(cfg_.telemetry);
    attach_tracer(trace::Tracer::from_config(cfg_.trace));
    metrics_ = metrics::EngineObserver::from_config(
        cfg_.metrics, mode == EngineMode::Gpu ? "gpu" : "serial");
    if (metrics_) metrics_->set_config_json(config_to_json(cfg_));
    sys_->update_all_geometry();
    attachments_ = assembly::index_attachments(*sys_);
    geom::Aabb box;
    for (const block::Block& b : sys_->blocks)
        for (geom::Vec2 p : b.verts) box.expand(p);
    w0_ = std::max(box.extent().y * 0.5, 1e-6);
    double mobile_area = 0.0;
    std::size_t mobile = 0;
    for (const block::Block& b : sys_->blocks)
        if (!b.fixed) {
            mobile_area += std::sqrt(std::abs(b.area));
            ++mobile;
        }
    mobile_size_ = mobile > 0 ? mobile_area / static_cast<double>(mobile) : w0_;
    warm_start_.assign(sys_->size(), sparse::Vec6{});
}

void DdaEngine::attach_tracer(std::shared_ptr<trace::Tracer> tracer) {
    if (tracer_ && tracer_ != tracer) tracer_->uninstall_kernel_hook();
    tracer_ = std::move(tracer);
    // The engine's tracer owns the CALLING THREAD's kernel hook; step()
    // re-installs it so the hook follows the thread actually stepping even
    // when the engine was constructed elsewhere (sched workers rely on the
    // per-thread slot for isolation between concurrent engines).
    if (tracer_) tracer_->install_kernel_hook();
}

contact::BroadPhaseBackend DdaEngine::broad_phase_backend() const {
    switch (cfg_.broad_phase) {
        case BroadPhase::AllPairs: return contact::BroadPhaseBackend::AllPairs;
        case BroadPhase::Hash: return contact::BroadPhaseBackend::Hash;
        case BroadPhase::Auto: break;
    }
    return sys_->size() >= contact::kAutoHashMinBlocks
               ? contact::BroadPhaseBackend::Hash
               : contact::BroadPhaseBackend::AllPairs;
}

void DdaEngine::detect_contacts() {
    ScopedTimer t(timers_, Module::ContactDetection, tracer_.get(), &par_timers_);
    const double allowed = cfg_.max_disp_ratio * w0_;
    const double rho = cfg_.search_factor * allowed;

    simt::KernelCost* sink = nullptr;
    simt::KernelCost cost = simt::KernelCost::accumulator();
    if (mode_ == EngineMode::Gpu) sink = &cost;

    // Broad phase: selectable backend behind an optional persistent pair
    // cache. A warm cache skips the backend entirely (the candidate
    // superset is provably equivalent downstream, see pair_cache.hpp).
    const contact::BroadPhaseBackend backend = broad_phase_backend();
    const bool balanced = mode_ == EngineMode::Gpu;
    std::span<const contact::BlockPair> pairs;
    std::vector<contact::BlockPair> fresh;
    if (cfg_.broad_phase_cache) {
        pairs = pair_cache_.pairs(*sys_, rho, cfg_.pair_cache_margin * rho, backend,
                                  balanced, cfg_.broad_phase_cell, sink);
    } else {
        fresh = contact::run_broad_phase(*sys_, rho, backend, balanced,
                                         cfg_.broad_phase_cell, sink);
        pairs = fresh;
    }

    // Divergence-aware classification: bucket candidates by work class so
    // narrow-phase warps run uniform trip counts (pure permutation).
    std::vector<contact::BlockPair> scheduled;
    if (cfg_.classify_pairs) {
        scheduled = contact::classify_pairs(*sys_, {pairs.begin(), pairs.end()},
                                            &sched_stats_, sink);
        pairs = scheduled;
    } else {
        sched_stats_ = {};
    }

    contact::NarrowPhaseResult np = contact::narrow_phase(
        *sys_, pairs, rho, sink, cfg_.classify_pairs ? &sched_stats_ : nullptr);
    class_stats_ = np.stats;
    contact::transfer_contacts(contacts_, np.contacts, sink);
    contacts_ = std::move(np.contacts);

    if (sink) ledgers_.add(Module::ContactDetection, cost);
}

std::vector<ContactGeometry> DdaEngine::init_contacts() {
    ScopedTimer t(timers_, Module::ContactDetection, tracer_.get(), &par_timers_);
    simt::KernelCost cost = simt::KernelCost::accumulator();
    simt::KernelCost* sink = mode_ == EngineMode::Gpu ? &cost : nullptr;
    std::vector<ContactGeometry> geo = contact::init_all_contacts(*sys_, contacts_, sink);
    if (sink) ledgers_.add(Module::ContactDetection, cost);
    return geo;
}

int DdaEngine::solve_pass(const std::vector<ContactGeometry>& geo, BlockVec& d,
                          StepStats& stats, bool fresh_pass) {
    trace::Span oc_span(tracer_.get(), trace::Category::OpenClose, "open_close");
    assembly::StepParams sp;
    sp.dt = dt_;
    sp.velocity_carry = cfg_.velocity_carry;
    const double e = sys_->max_young();
    sp.contact.penalty = cfg_.penalty_scale * e;
    sp.contact.shear_penalty = sp.contact.penalty * cfg_.shear_penalty_ratio;
    sp.contact.max_closing_depth = 0.2 * mobile_size_;
    sp.contact.open_tol = 1e-9 * w0_;
    sp.contact.max_push = std::max(10.0 * dt_, 40e-9 * w0_);
    sp.fixed_penalty = sp.contact.penalty * cfg_.fixed_penalty_ratio;

    // Matrix building. The diagonal (per-block physics) and non-diagonal
    // (contact) phases are timed separately to match the Table II/III rows.
    // The workspace decides cold (structure rebuild) vs warm (numeric
    // refill) from the contact fingerprint.
    {
        const double t0_us = trace::now_us();
        const double par0 = par::parallel_region_seconds();
        double diag_seconds = 0.0;
        double diag_par_seconds = 0.0;
        if (mode_ == EngineMode::Gpu) {
            assembly::GpuAssemblyCosts costs;
            ws_.assemble(*sys_, attachments_, contacts_, geo, sp, values_epoch_, &costs,
                         &diag_seconds, &diag_par_seconds);
            ledgers_.add(Module::DiagBuild, costs.diagonal);
            ledgers_.add(Module::NondiagBuild, costs.nondiagonal);
        } else {
            ws_.assemble(*sys_, attachments_, contacts_, geo, sp, values_epoch_, nullptr,
                         &diag_seconds, &diag_par_seconds);
        }
        const double end_us = trace::now_us();
        const double total = (end_us - t0_us) * 1e-6;
        const double par_total = par::parallel_region_seconds() - par0;
        timers_.add(Module::DiagBuild, diag_seconds);
        timers_.add(Module::NondiagBuild, std::max(total - diag_seconds, 0.0));
        par_timers_.add(Module::DiagBuild, diag_par_seconds);
        par_timers_.add(Module::NondiagBuild, std::max(par_total - diag_par_seconds, 0.0));
        if (tracer_) {
            // One timed region split into the two matrix-building rows:
            // retroactive spans with the same clock samples the timers used.
            const double diag_us = diag_seconds * 1e6;
            tracer_->complete(trace::Category::Module,
                              kModuleNames[static_cast<int>(Module::DiagBuild)], t0_us,
                              diag_us, static_cast<int>(Module::DiagBuild));
            tracer_->complete(trace::Category::Module,
                              kModuleNames[static_cast<int>(Module::NondiagBuild)],
                              t0_us + diag_us, std::max(end_us - t0_us - diag_us, 0.0),
                              static_cast<int>(Module::NondiagBuild));
        }
    }

    // Equation solving.
    int oc_changes = 0;
    {
        ScopedTimer t(timers_, Module::EquationSolving, tracer_.get(), &par_timers_);
        simt::KernelCost cost = simt::KernelCost::accumulator();
        simt::KernelCost* sink = mode_ == EngineMode::Gpu ? &cost : nullptr;

        // The mixed fp32 shadow is only built when the precision knob asks
        // for it.
        const bool mixed = cfg_.pcg.precision == solver::PcgPrecision::MixedFp32;
        ws_.prepare_solve(cfg_.precond, cfg_.spmv_backend, mixed, sink);

        // First pass of an attempt starts PCG from the last committed
        // step's solution; later open-close passes continue from the
        // previous pass's solution, which is closer.
        if (fresh_pass) d = warm_start_;
        solver::PcgOptions popts = cfg_.pcg;
        std::vector<double> residuals;
        if (recorder_ && recorder_->record_pcg_residuals) popts.residual_log = &residuals;
        if (tracer_ && cfg_.trace.pcg_iteration_spans) popts.tracer = tracer_.get();
        trace::Span solve_span(tracer_.get(), trace::Category::Solve, "pcg_solve");
        const solver::PcgResult r = solver::pcg(ws_.pcg_matrix(), ws_.rhs(), d, ws_.precond(),
                                                popts, sink, &ws_.pcg_workspace());
        solve_span.close();
        stats.pcg_iterations += r.iterations;
        stats.pcg_refine_iterations += r.refine_iterations;
        stats.pcg_fp32_iterations += r.fp32_iterations;
        if (r.fell_back_fp64) ++stats.pcg_mixed_fallbacks;
        ++stats.pcg_solves;
        if (!r.converged) ++stats.pcg_failed_solves;
        stats.converged = stats.converged && r.converged;
        if (recorder_ || metrics_)
            step_solves_.push_back(
                {r.iterations, r.final_residual, r.converged, std::move(residuals)});
        if (sink) ledgers_.add(Module::EquationSolving, *sink);
    }

    // Interpenetration checking: evaluate contact states under d.
    {
        ScopedTimer t(timers_, Module::InterpenetrationCheck, tracer_.get(), &par_timers_);
        simt::KernelCost cost = simt::KernelCost::accumulator();
        simt::KernelCost* sink = mode_ == EngineMode::Gpu ? &cost : nullptr;
        assembly::StepParams dummy = sp;
        const contact::OpenCloseResult oc = contact::update_contact_states(
            *sys_, geo, contacts_, d, dummy.contact, sink);
        oc_changes = oc.state_changes;
        stats.max_penetration = std::max(stats.max_penetration, oc.max_penetration);
        if (sink) ledgers_.add(Module::InterpenetrationCheck, cost);
    }
    return oc_changes;
}

double DdaEngine::max_vertex_displacement(const BlockVec& d) const {
    double m = 0.0;
    for (std::size_t i = 0; i < sys_->blocks.size(); ++i) {
        const block::Block& b = sys_->blocks[i];
        for (geom::Vec2 p : b.verts) {
            m = std::max(m, b.displacement_at(p, d[i]).norm());
        }
    }
    return m;
}

void DdaEngine::commit_step(const std::vector<ContactGeometry>& geo, const BlockVec& d,
                            StepStats& stats) {
    ScopedTimer t(timers_, Module::DataUpdate, tracer_.get(), &par_timers_);
    simt::KernelCost cost = simt::KernelCost::accumulator();
    simt::KernelCost* sink = mode_ == EngineMode::Gpu ? &cost : nullptr;

    contact::commit_contact_springs(geo, contacts_, d);

    // Velocity update v = 2 d / dt - v0, damped to zero in static mode.
    for (std::size_t i = 0; i < sys_->blocks.size(); ++i) {
        block::Block& b = sys_->blocks[i];
        sparse::Vec6 v;
        for (int k = 0; k < 6; ++k) v[k] = 2.0 * d[i][k] / dt_ - b.velocity[k];
        b.velocity = v * cfg_.velocity_carry;
        if (b.fixed) b.velocity = sparse::Vec6{};
    }

    // Move vertices, accumulate stresses, refresh geometry.
    for (std::size_t i = 0; i < sys_->blocks.size(); ++i) {
        block::Block& b = sys_->blocks[i];
        if (b.fixed) continue;
        b.apply_increment(d[i], sys_->material_of(b), cfg_.exact_rotation);
    }
    // Fixed points ride along with their material point; anchors stay.
    for (block::FixedPoint& fp : sys_->fixed_points) {
        const block::Block& b = sys_->blocks[fp.block];
        if (b.fixed) continue;
        fp.point += b.displacement_at(fp.point, d[fp.block]);
    }

    stats.max_displacement = max_vertex_displacement(d);
    last_max_velocity_ = stats.max_displacement / dt_;
    warm_start_ = d;
    time_ += dt_;

    if (sink) {
        simt::record_kernel(sink, data_update_cost(*sys_, contacts_.size()));
        ledgers_.add(Module::DataUpdate, *sink);
    }
}

EngineCheckpoint DdaEngine::capture() const {
    EngineCheckpoint snap;
    snap.sys = *sys_;
    snap.time = time_;
    snap.dt = dt_;
    snap.w0 = w0_;
    snap.mobile_size = mobile_size_;
    snap.last_max_velocity = last_max_velocity_;
    snap.values_epoch = values_epoch_;
    snap.step_index = step_index_;
    snap.contacts = contacts_;
    snap.warm_start = warm_start_;
    return snap;
}

void DdaEngine::restore(const EngineCheckpoint& snap) {
    *sys_ = snap.sys;
    sys_->update_all_geometry();
    attachments_ = assembly::index_attachments(*sys_);
    time_ = snap.time;
    dt_ = snap.dt; // exact bits — a clamp here would break bitwise resume
    w0_ = snap.w0;
    mobile_size_ = snap.mobile_size;
    last_max_velocity_ = snap.last_max_velocity;
    values_epoch_ = snap.values_epoch;
    step_index_ = snap.step_index;
    contacts_ = snap.contacts;
    warm_start_ = snap.warm_start;
    if (warm_start_.size() != sys_->size())
        warm_start_.assign(sys_->size(), sparse::Vec6{});
    ws_.invalidate();
    pair_cache_.invalidate();
}

StepStats DdaEngine::step_impl() {
    StepStats stats;
    detect_contacts();

    const double allowed = cfg_.max_disp_ratio * w0_;
    const std::vector<Contact> contacts_at_entry = contacts_;

    for (int attempt = 0; attempt < cfg_.max_step_retries; ++attempt) {
        trace::Span pass_span(tracer_.get(), trace::Category::Pass, "displacement_pass");
        stats.retries = attempt;
        stats.converged = true;
        // Block state or dt changed since the last attempt: the cached
        // diagonal physics is stale (the contact structure may still hold).
        ++values_epoch_;

        const std::vector<ContactGeometry> geo = init_contacts();

        // Pre-existing stored penetration (carried by closed contacts from
        // previous steps): the step may not worsen it, but it is not a
        // reason to reject — the rate-limited recovery needs time steps to
        // push it out.
        double entry_pen = 0.0;
        for (std::size_t ci = 0; ci < contacts_.size(); ++ci) {
            const contact::Contact& c = contacts_[ci];
            const contact::ContactGeometry& g = geo[ci];
            if (c.state != contact::ContactState::Open && g.ratio > -0.01 &&
                g.ratio < 1.01)
                entry_pen = std::max(entry_pen, -g.gap0);
        }

        BlockVec d(sys_->size());
        int oc_iters = 0;
        bool oc_converged = false;
        int last_changes = 0;
        for (; oc_iters < cfg_.max_open_close_iters; ++oc_iters) {
            last_changes = solve_pass(geo, d, stats, oc_iters == 0);
            if (!stats.converged) break; // PCG exhausted: shrink dt
            if (last_changes == 0) {
                oc_converged = true;
                ++oc_iters;
                break;
            }
        }
        // A handful of contacts oscillating at machine-precision gaps must
        // not collapse dt: accept the pass when the residual penetration is
        // physically negligible (standard DDA caps open-close iterations).
        if (!oc_converged && stats.converged && last_changes <= 4 &&
            stats.max_penetration < 1e-7 * w0_) {
            oc_converged = true;
        }
        stats.open_close_iters = oc_iters;

        const double maxd = max_vertex_displacement(d);
        const bool disp_ok = maxd <= 2.0 * allowed;
        // Interpenetration control: resolving a deep overlap in one implicit
        // step would eject blocks at 2*depth/dt; redo the step with a
        // smaller dt so springs engage while the overlap is still shallow.
        const double pen_tol = std::max(0.05 * mobile_size_, 1e-6 * w0_);
        // Reject only *new* deep penetration; carried overlap is recovered
        // at the rate-limited pace. At dt_min there is nothing left to
        // shrink, so accept the best available state.
        const bool pen_ok = stats.max_penetration <= std::max(pen_tol, 1.05 * entry_pen) ||
                            dt_ <= cfg_.dt_min * 1.01;

        if (oc_converged && stats.converged && disp_ok && pen_ok) {
            stats.dt_used = dt_;
            stats.contacts = contacts_.size();
            for (const Contact& c : contacts_)
                if (c.state != contact::ContactState::Open) ++stats.active_contacts;
            commit_step(geo, d, stats);
            // Reward easy steps with a larger dt (bounded).
            if (oc_iters <= 3 && attempt == 0) dt_ = std::min(dt_ * cfg_.dt_grow, cfg_.dt_max);
            return stats;
        }

        // Failure: shrink the physical time and retry the whole step.
        dt_ = std::max(dt_ * cfg_.dt_shrink, cfg_.dt_min);
        contacts_ = contacts_at_entry;
        if (dt_ <= cfg_.dt_min) break;
    }

    // Last resort: accept the step at dt_min to keep the simulation moving;
    // flag non-convergence for the caller.
    stats.converged = false;
    stats.dt_used = dt_;
    trace::Span pass_span(tracer_.get(), trace::Category::Pass, "displacement_pass_last_resort");
    const std::vector<ContactGeometry> geo = init_contacts();
    BlockVec d(sys_->size());
    ++values_epoch_;
    solve_pass(geo, d, stats, true);
    commit_step(geo, d, stats);
    return stats;
}

namespace {

static_assert(kModuleCount == obs::kModuleCount,
              "core::Module rows and obs module keys must stay in sync");

/// Per-step module deltas: cumulative timers/ledgers sampled before and
/// after the step, differenced into the record's plain-number form.
obs::ModuleRecord module_delta(double seconds_before, double seconds_after,
                               const simt::KernelCost& before,
                               const simt::KernelCost& after) {
    obs::ModuleRecord m;
    m.seconds = seconds_after - seconds_before;
    m.flops = after.flops - before.flops;
    m.bytes_coalesced = after.bytes_coalesced - before.bytes_coalesced;
    m.bytes_texture = after.bytes_texture - before.bytes_texture;
    m.bytes_random = after.bytes_random - before.bytes_random;
    m.depth = after.depth - before.depth;
    m.branch_slots = after.branch_slots - before.branch_slots;
    m.divergent_slots = after.divergent_slots - before.divergent_slots;
    m.launches = after.launches - before.launches;
    return m;
}

} // namespace

StepStats DdaEngine::step() {
    // The SIMT kernel hook is per-thread: make sure this thread's slot points
    // at OUR tracer before any kernel cost is recorded, so concurrent engines
    // on other threads never capture this engine's launches (and vice versa).
    if (tracer_ && simt::kernel_trace_hook() != tracer_.get())
        tracer_->install_kernel_hook();
    // Install this engine's step-wide team for the duration of the step:
    // every parallel stage (broad/narrow phase, pair-cache revalidation,
    // assembly refill, SpMV stages, BLAS-1, fused PCG passes) sizes its
    // teams from the thread budget, and the budget is thread-local so
    // concurrent engines on scheduler workers never see each other's knobs.
    par::ScopedTeamSize step_team(cfg_.step_threads);
    trace::Span step_span(tracer_.get(), trace::Category::Step, "step");
    if (!recorder_ && !metrics_) {
        ++step_index_;
        return step_impl();
    }

    step_solves_.clear();
    const ModuleTimers timers_before = timers_;
    const ModuleTimers par_timers_before = par_timers_;
    std::array<simt::KernelCost, kModuleCount> ledgers_before;
    for (int m = 0; m < kModuleCount; ++m)
        ledgers_before[m] = ledgers_.ledger(static_cast<Module>(m)).total();

    const StepStats stats = step_impl();

    obs::StepRecord rec;
    rec.mode = mode_ == EngineMode::Gpu ? "gpu" : "serial";
    rec.step = step_index_++;
    rec.time = time_;
    rec.dt = stats.dt_used;
    rec.retries = stats.retries;
    rec.open_close_iters = stats.open_close_iters;
    rec.pcg_solves = stats.pcg_solves;
    rec.pcg_iterations = stats.pcg_iterations;
    rec.pcg_failed_solves = stats.pcg_failed_solves;
    rec.pcg_refine_iterations = stats.pcg_refine_iterations;
    rec.pcg_fp32_iterations = stats.pcg_fp32_iterations;
    rec.pcg_mixed_fallbacks = stats.pcg_mixed_fallbacks;
    rec.contacts = contacts_.size();
    rec.active_contacts = stats.active_contacts;
    rec.max_displacement = stats.max_displacement;
    rec.max_penetration = stats.max_penetration;
    rec.converged = stats.converged;
    rec.cls_candidates = class_stats_.candidates;
    rec.cls_ve = class_stats_.ve;
    rec.cls_vv1 = class_stats_.vv1;
    rec.cls_vv2 = class_stats_.vv2;
    rec.cls_abandoned = class_stats_.abandoned;
    for (int m = 0; m < kModuleCount; ++m) {
        const Module mod = static_cast<Module>(m);
        rec.modules[m] = module_delta(timers_before.seconds(mod), timers_.seconds(mod),
                                      ledgers_before[m], ledgers_.ledger(mod).total());
    }
    rec.trace_span = step_span.id();
    rec.solves = std::move(step_solves_);
    step_solves_.clear();
    if (recorder_) recorder_->on_step(rec);
    if (metrics_) {
        metrics::StepContext mctx;
        mctx.sys = sys_;
        mctx.length_scale = w0_;
        mctx.open_close_cap = cfg_.max_open_close_iters;
        mctx.pair_cache_state = cfg_.broad_phase_cache ? (pair_cache_.warm() ? 1 : 0) : -1;
        mctx.step_seconds = timers_.total() - timers_before.total();
        mctx.parallel_seconds = par_timers_.total() - par_timers_before.total();
        if (metrics_->wants_energy()) {
            // Read-only O(n) scan; requested by the observer, never fed back.
            mctx.has_energy = true;
            mctx.energy_total = measure_energy(*sys_).total();
        }
        metrics_->on_step(rec, mctx);
    }
    return stats;
}

StepStats DdaEngine::run(int n) {
    StepStats last;
    for (int i = 0; i < n; ++i) last = step();
    return last;
}

} // namespace gdda::core
