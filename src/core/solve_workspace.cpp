#include "core/solve_workspace.hpp"

#include "core/gpu_support.hpp"

namespace gdda::core {

void SolveWorkspace::assemble(const block::BlockSystem& sys,
                              const assembly::BlockAttachments& att,
                              std::span<const contact::Contact> contacts,
                              std::span<const contact::ContactGeometry> geo,
                              const assembly::StepParams& sp, std::uint64_t values_epoch,
                              assembly::GpuAssemblyCosts* costs, double* diag_seconds,
                              double* diag_par_seconds) {
    const int n = static_cast<int>(sys.size());
    const assembly::ContactFingerprint fp = assembly::contact_fingerprint(n, contacts);
    warm_ = reuse_ && have_structure_ && fp == fp_;

    if (values_epoch != diag_epoch_) {
        // Block state / dt changed: the diagonal physics was computed from
        // stale inputs.
        diag_cache_.valid = false;
        diag_epoch_ = values_epoch;
    }
    const bool diag_hit = reuse_ && diag_cache_.valid;

    if (!warm_) {
        fp_ = fp;
        if (gpu_mode_) {
            gpu_plan_.build(n, contacts);
        } else {
            serial_plan_ = assembly::AssemblyPlan(n, contacts);
        }
        have_structure_ = true;
        // Downstream structure (HSBCSR indices, preconditioner pattern) is
        // keyed on the same fingerprint: force their cold paths too.
        have_h_ = false;
        have_pre_ = false;
        ++stats_.cold_structure_builds;
    } else {
        ++stats_.warm_numeric_refills;
        ++stats_.structural_kernels_skipped; // sort/scan (GPU) / slot map (serial)
    }

    assembly::DiagPhysicsCache* dc = reuse_ ? &diag_cache_ : nullptr;
    if (gpu_mode_) {
        gpu_plan_.assemble_into(as_, sys, att, contacts, geo, sp, costs, diag_seconds, dc,
                                warm_, diag_par_seconds);
    } else {
        serial_plan_.assemble_into(as_, sys, att, contacts, geo, sp, diag_seconds, dc,
                                   diag_par_seconds);
    }
    if (diag_hit) {
        ++stats_.diag_physics_reuses;
        ++stats_.structural_kernels_skipped;
    }
}

void SolveWorkspace::prepare_solve(PrecondKind kind, simt::KernelCost* sink) {
    prepare_solve(kind, SpmvBackend::Hsbcsr, /*mixed=*/false, sink);
}

namespace {

/// The scalar CSR pattern is value-dependent (csr_from_bsr_full drops exact
/// zeros), so an unchanged contact fingerprint does not guarantee an
/// unchanged sliced-ELL structure. Cheap pattern equality check.
bool same_csr_structure(const sparse::CsrMatrix& a, const sparse::CsrMatrix& b) {
    return a.rows == b.rows && a.row_ptr == b.row_ptr && a.cols == b.cols;
}

simt::KernelCost sell_layout_cost(const sparse::SortedSellMatrix& s) {
    simt::KernelCost kc;
    kc.name = "sell_layout";
    // Stable row-length sort plus one scatter of the values into slices.
    kc.bytes_coalesced = static_cast<double>(s.data_bytes());
    kc.bytes_random = static_cast<double>(s.data_bytes());
    kc.flops = static_cast<double>(s.rows) * 24.0;
    kc.depth = 26;
    kc.launches = 3;
    return kc;
}

simt::KernelCost sell_refill_cost(const sparse::SortedSellMatrix& s) {
    simt::KernelCost kc;
    kc.name = "sell_refill";
    kc.bytes_coalesced = static_cast<double>(s.vals.size() * sizeof(double));
    kc.bytes_random = static_cast<double>(s.vals.size() * sizeof(double));
    kc.depth = 4;
    kc.launches = 1;
    return kc;
}

simt::KernelCost f32_shadow_refill_cost(const sparse::HsbcsrF32& s) {
    simt::KernelCost kc;
    kc.name = "hsbcsr_demote_f32";
    // Streaming demotion: read fp64 slices, write fp32 slices.
    kc.bytes_coalesced = static_cast<double>(s.data_bytes()) * 3.0; // 8B in, 4B out
    kc.flops = static_cast<double>(s.d_data.size() + s.nd_data_up.size());
    kc.depth = 1;
    kc.launches = 1;
    return kc;
}

} // namespace

void SolveWorkspace::prepare_solve(PrecondKind kind, SpmvBackend backend, bool mixed,
                                   simt::KernelCost* sink) {
    if (warm_ && have_h_) {
        sparse::hsbcsr_refill(h_, as_.k);
        ++stats_.structural_kernels_skipped;
        if (sink) {
            simt::record_kernel(sink, hsbcsr_refill_cost(h_));
            simt::record_skipped_kernel(sink, "hsbcsr_layout");
        }
    } else {
        h_ = sparse::hsbcsr_from_bsr(as_.k);
        have_h_ = true;
        // The fp32 shadow shares h_'s index arrays; a rebuilt structure
        // invalidates it (and the sliced-ELL view is value-dependent anyway).
        have_h32_ = false;
        if (sink) simt::record_kernel(sink, hsbcsr_conversion_cost(h_));
    }

    use_h32_ = mixed;
    if (mixed) {
        if (!have_h32_) {
            h32_ = sparse::hsbcsr_structure_f32(h_);
            have_h32_ = true;
        }
        sparse::hsbcsr_refill_f32(h32_, h_);
        ++stats_.f32_shadow_refills;
        if (sink) simt::record_kernel(sink, f32_shadow_refill_cost(h32_));
    }

    use_sell_ = backend == SpmvBackend::SlicedEll;
    if (use_sell_) {
        sparse::CsrMatrix fresh = sparse::csr_from_bsr_full(as_.k);
        if (have_sell_ && same_csr_structure(fresh, csr_)) {
            csr_ = std::move(fresh);
            sparse::sorted_sell_refill(sell_, csr_);
            ++stats_.sell_refills;
            if (sink) {
                simt::record_kernel(sink, sell_refill_cost(sell_));
                simt::record_skipped_kernel(sink, "sell_layout");
            }
        } else {
            csr_ = std::move(fresh);
            sell_ = sparse::sorted_sell_from_csr(csr_);
            have_sell_ = true;
            ++stats_.sell_rebuilds;
            if (sink) simt::record_kernel(sink, sell_layout_cost(sell_));
        }
    }

    if (warm_ && have_pre_ && kind == pre_kind_) {
        const bool pattern_reused = pre_->refactor(as_.k);
        ++stats_.precond_refactors;
        if (pattern_reused) {
            ++stats_.structural_kernels_skipped;
            if (sink) simt::record_skipped_kernel(sink, pre_->name() + "_symbolic");
        } else {
            // ILU(0)'s scalar pattern shifted (an exact zero appeared or
            // vanished inside a block): it rebuilt symbolically on its own.
            ++stats_.ilu_pattern_rebuilds;
        }
        if (sink) simt::record_kernel(sink, pre_->construction_cost());
    } else {
        pre_ = make_preconditioner(kind, as_.k);
        pre_kind_ = kind;
        have_pre_ = true;
        if (sink) simt::record_kernel(sink, pre_->construction_cost());
    }
}

solver::PcgMatrix SolveWorkspace::pcg_matrix() const {
    solver::PcgMatrix view;
    view.h = &h_;
    if (use_h32_) view.h32 = &h32_;
    if (use_sell_) view.sell = &sell_;
    return view;
}

void SolveWorkspace::invalidate() {
    have_structure_ = false;
    have_h_ = false;
    have_h32_ = false;
    have_sell_ = false;
    use_h32_ = false;
    use_sell_ = false;
    have_pre_ = false;
    diag_cache_.valid = false;
    warm_ = false;
}

} // namespace gdda::core
