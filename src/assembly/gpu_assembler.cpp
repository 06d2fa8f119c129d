#include "assembly/gpu_assembler.hpp"

#include <cassert>
#include <chrono>

#include "par/device_scan.hpp"
#include "par/parallel_for.hpp"
#include "par/radix_sort.hpp"
#include "par/scan.hpp"

namespace gdda::assembly {

CategoryStats classify_categories(std::span<const Contact> contacts) {
    CategoryStats s;
    for (const Contact& c : contacts) {
        const bool vv2 = c.kind == contact::ContactKind::VV2;
        if (!vv2) {
            if (c.p1 != 0)
                ++s.c1;
            else if (c.p2 != 0)
                ++s.c2;
            else if (c.state != contact::ContactState::Open)
                ++s.c3;
            else
                ++s.abandoned;
        } else {
            if (c.p1 != 0)
                ++s.c4;
            else if (c.p2 != 0 || c.state != contact::ContactState::Open)
                ++s.c5;
            else
                ++s.abandoned;
        }
    }
    return s;
}

AssembledSystem assemble_gpu(const BlockSystem& sys, const BlockAttachments& att,
                             std::span<const Contact> contacts,
                             std::span<const ContactGeometry> geo, const StepParams& sp,
                             GpuAssemblyCosts* costs, double* diag_seconds) {
    GpuAssemblyPlan plan;
    plan.build(static_cast<int>(sys.size()), contacts);
    AssembledSystem out;
    plan.assemble_into(out, sys, att, contacts, geo, sp, costs, diag_seconds, nullptr,
                       /*warm=*/false);
    return out;
}

void GpuAssemblyPlan::build(int n, std::span<const Contact> contacts) {
    n_ = n;
    contact_count_ = contacts.size();
    rhs_valid_ = false;

    // Keys in the exact emission order of the numeric pass (and of the
    // serial assembler): per-block diagonals first, then kii/kjj/kij per
    // contact. The stable sort therefore reproduces the serial summation
    // order, which is what makes the whole path bit-identical.
    std::vector<std::uint64_t> keys;
    keys.reserve(n + contacts.size() * 3);
    auto emit = [&keys](int r, int c) {
        keys.push_back((static_cast<std::uint64_t>(r) << 32) | static_cast<std::uint32_t>(c));
    };
    for (int i = 0; i < n; ++i) emit(i, i);
    for (const Contact& ct : contacts) {
        emit(ct.bi, ct.bi);
        emit(ct.bj, ct.bj);
        if (ct.bi < ct.bj) {
            emit(ct.bi, ct.bj);
        } else {
            emit(ct.bj, ct.bi);
        }
    }

    std::vector<std::uint64_t> sorted = keys;
    perm_.resize(keys.size());
    for (std::size_t i = 0; i < perm_.size(); ++i) perm_[i] = static_cast<std::uint32_t>(i);
    par::radix_sort_pairs(sorted, perm_);
    const std::vector<std::uint32_t> heads = par::segment_heads(sorted);
    ends_ = par::segment_ends(heads);

    // Unique keys arrive sorted by (row, col) — exactly the order in which
    // bsr_from_coo appends col_idx/vals — so off-diagonal segments map to
    // consecutive vals slots and the structure template matches it exactly.
    const std::size_t unique = ends_.size();
    row_ptr_.assign(n + 1, 0);
    col_idx_.clear();
    seg_slot_.resize(unique);
    std::uint32_t begin = 0;
    int off = 0;
    for (std::size_t s = 0; s < unique; ++s) {
        const int r = static_cast<int>(sorted[begin] >> 32);
        const int c = static_cast<int>(sorted[begin] & 0xffffffffu);
        if (r == c) {
            seg_slot_[s] = -(r + 1);
        } else {
            seg_slot_[s] = off++;
            col_idx_.push_back(c);
            ++row_ptr_[r + 1];
        }
        begin = ends_[s];
    }
    for (int i = 0; i < n; ++i) row_ptr_[i + 1] += row_ptr_[i];
}

void GpuAssemblyPlan::assemble_into(AssembledSystem& out, const BlockSystem& sys,
                                    const BlockAttachments& att,
                                    std::span<const Contact> contacts,
                                    std::span<const ContactGeometry> geo, const StepParams& sp,
                                    GpuAssemblyCosts* costs, double* diag_seconds,
                                    DiagPhysicsCache* diag_cache, bool warm,
                                    double* diag_par_seconds) const {
    assert(contacts.size() == geo.size());
    assert(contacts.size() == contact_count_ && static_cast<int>(sys.size()) == n_);
    const int n = n_;
    const std::size_t nc = contacts.size();
    const bool diag_hit = diag_cache && diag_cache->valid;

    // Step 1: every contribution computes its sub-matrix independently into
    // the paper's array D (scratch reused across passes). Slot ownership is
    // fixed by index — diagonal i at D[i], contact c at D[n+3c..n+3c+2] —
    // so the contribution kernels run under parallel_for with no ordering
    // concern; only the summation order (fixed by the cached permutation)
    // decides the bits.
    d_blocks_.resize(n + nc * 3);
    fkeys_.resize(n);
    f_parts_.resize(n);

    const auto diag_start = std::chrono::steady_clock::now();
    const double diag_par0 = par::parallel_region_seconds();
    if (diag_hit) {
        par::parallel_for(static_cast<std::size_t>(n), par::kDefaultGrain, [&](std::size_t i) {
            d_blocks_[i] = diag_cache->k[i];
            fkeys_[i] = static_cast<std::uint64_t>(i);
            f_parts_[i] = diag_cache->f[i];
        });
    } else {
        par::parallel_for(static_cast<std::size_t>(n), 64, [&](std::size_t i) {
            Vec6 f;
            block_diagonal(sys, att, static_cast<int>(i), sp, d_blocks_[i], f);
            fkeys_[i] = static_cast<std::uint64_t>(i);
            f_parts_[i] = f;
        });
        if (diag_cache) {
            diag_cache->k.assign(d_blocks_.begin(), d_blocks_.begin() + n);
            diag_cache->f.assign(f_parts_.begin(), f_parts_.begin() + n);
            diag_cache->valid = true;
        }
    }
    if (diag_par_seconds) *diag_par_seconds = par::parallel_region_seconds() - diag_par0;
    if (diag_seconds)
        *diag_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - diag_start).count();

    // Contact contributions: each index owns its D slots and its RHS
    // staging slots. The state-dependent RHS entries (2 per active contact)
    // compact into fkeys_/f_parts_ afterwards through a prefix-sum of the
    // active counts — the scatter offsets depend only on which contacts are
    // active, never on the team, so the compacted sequence is exactly the
    // serial emission order.
    rhs_fi_.resize(nc);
    rhs_fj_.resize(nc);
    rhs_count_.resize(nc);
    par::parallel_for(nc, 64, [&](std::size_t c) {
        const Contact& ct = contacts[c];
        const ContactContribution cc = contact_contribution(sys, ct, geo[c], sp.contact);
        d_blocks_[n + 3 * c] = cc.kii;
        d_blocks_[n + 3 * c + 1] = cc.kjj;
        d_blocks_[n + 3 * c + 2] = ct.bi < ct.bj ? cc.kij : cc.kij.transposed();
        rhs_fi_[c] = cc.fi;
        rhs_fj_[c] = cc.fj;
        rhs_count_[c] = cc.active ? 2u : 0u;
    });

    rhs_off_.resize(nc);
    const std::uint64_t rhs_total = par::device_exclusive_scan(rhs_count_, rhs_off_);
    fkeys_.resize(n + rhs_total);
    f_parts_.resize(n + rhs_total);
    par::parallel_for(nc, par::kDefaultGrain, [&](std::size_t c) {
        if (rhs_count_[c] == 0) return;
        const std::size_t o = static_cast<std::size_t>(n) + rhs_off_[c];
        const Contact& ct = contacts[c];
        fkeys_[o] = static_cast<std::uint64_t>(ct.bi);
        f_parts_[o] = rhs_fi_[c];
        fkeys_[o + 1] = static_cast<std::uint64_t>(ct.bj);
        f_parts_[o + 1] = rhs_fj_[c];
    });

    // Steps 2-5, numeric half only: the sort permutation and segment ends
    // are cached, so the matrix side reduces to segmented sums gathered
    // through perm_ and written straight into the cached BSR structure.
    // Every segment owns a unique output slot (one diag row or one vals
    // slot — unique keys sort to distinct segments) and sums its run in
    // permutation order, so the per-segment kernels parallelize while the
    // bits stay those of the serial pass.
    out.k.n = n;
    out.k.row_ptr = row_ptr_;
    out.k.col_idx = col_idx_;
    out.k.diag.assign(n, Mat6{});
    out.k.vals.assign(col_idx_.size(), Mat6{});
    par::parallel_for(ends_.size(), 64, [&](std::size_t s) {
        const std::uint32_t begin = s == 0 ? 0u : ends_[s - 1];
        const std::uint32_t end = ends_[s];
        Mat6 acc;
        for (std::uint32_t p = begin; p < end; ++p) acc += d_blocks_[perm_[p]];
        // Mirror bsr_from_coo exactly: diagonal blocks accumulate onto the
        // zero initializer, off-diagonal blocks are copied.
        if (seg_slot_[s] < 0) {
            out.k.diag[-(seg_slot_[s] + 1)] += acc;
        } else {
            out.k.vals[seg_slot_[s]] = acc;
        }
    });

    // RHS: which contacts emit load entries depends on their open/close
    // state, so its key sequence is not covered by the structural
    // fingerprint. The sort permutation is still cached on the key sequence
    // itself: an identical sequence sorts identically (the radix sort is
    // deterministic), so reusing the permutation and segment ends is
    // bit-identical to re-sorting — and across converged open-close passes
    // the active set rarely changes. Each segment targets a unique out.f
    // row, so the segmented sums parallelize like the matrix side.
    out.f.assign(n, Vec6{});
    {
        if (!(rhs_valid_ && fkeys_ == rhs_keys_)) {
            rhs_keys_ = fkeys_;
            rhs_sorted_ = fkeys_;
            rhs_perm_.resize(fkeys_.size());
            for (std::size_t i = 0; i < rhs_perm_.size(); ++i)
                rhs_perm_[i] = static_cast<std::uint32_t>(i);
            par::radix_sort_pairs(rhs_sorted_, rhs_perm_);
            rhs_ends_ = par::segment_ends(par::segment_heads(rhs_sorted_));
            rhs_valid_ = true;
        }
        par::parallel_for(rhs_ends_.size(), par::kDefaultGrain, [&](std::size_t s) {
            const std::uint32_t b = s == 0 ? 0u : rhs_ends_[s - 1];
            const std::uint32_t e = rhs_ends_[s];
            Vec6 acc;
            for (std::uint32_t p = b; p < e; ++p) acc += f_parts_[rhs_perm_[p]];
            out.f[rhs_sorted_[b]] += acc;
        });
    }

    if (costs) {
        const double nn = n;
        const double m = static_cast<double>(contacts.size());
        const double e = 3.0 * m + nn; // emitted entries
        if (diag_hit) {
            // The physics kernel is replaced by a straight copy of the
            // cached blocks and loads.
            simt::KernelCost kc;
            kc.name = "diag_copy";
            kc.bytes_coalesced = 2.0 * nn * (36 + 6) * sizeof(double);
            kc.depth = 2;
            kc.launches = 1;
            simt::record_kernel(&costs->diagonal, kc, 1);
            simt::record_skipped_kernel(&costs->diagonal, "diag_build", 1);
        } else {
            simt::KernelCost kc;
            kc.name = "diag_build";
            // Mass moments, elasticity, fixed springs: one uniform kernel.
            kc.flops = nn * 700.0;
            kc.bytes_coalesced = nn * (36 + 6 + 16) * sizeof(double);
            kc.bytes_texture = nn * 8.0 * sizeof(double); // vertex walks
            kc.depth = 10;
            kc.branch_slots = nn / 4.0;
            kc.divergent_slots = 0.06 * kc.branch_slots;
            kc.launches = 2;
            // Module hint 1 = DiagBuild: these costs are built after both
            // assembly phases ran, outside any module span.
            simt::record_kernel(&costs->diagonal, kc, 1);
        }
        if (warm) {
            simt::KernelCost kc;
            kc.name = "nondiag_refill";
            // Contribution kernel + segmented gather-sum through the cached
            // permutation; the 8 radix passes and the scan are structural
            // and were skipped.
            kc.flops = m * 500.0 + e * 36.0;
            kc.bytes_coalesced = e * 36 * sizeof(double); // write D
            kc.bytes_random = e * 36 * sizeof(double);    // gather via perm
            kc.depth = 14;
            kc.branch_slots = e;
            kc.divergent_slots = 0.22 * e; // ragged segments
            kc.launches = 2;
            simt::record_kernel(&costs->nondiagonal, kc, 2); // 2 = NondiagBuild
            simt::record_skipped_kernel(&costs->nondiagonal, "nondiag_sort_scan", 2);
        } else {
            simt::KernelCost kc;
            kc.name = "nondiag_build";
            // Contribution kernel (4 outer products) + 8 radix passes on the
            // keys + scan + segmented gather-sum moving each Mat6 twice.
            kc.flops = m * 500.0 + e * 40.0;
            kc.bytes_coalesced = e * (sizeof(std::uint64_t) + 4) * 8.0 /* sort passes */ +
                                 e * sizeof(std::uint32_t) * 4.0 /* scan/ends */ +
                                 e * 36 * sizeof(double) /* write D */;
            // Final assembly gathers sub-matrices through the permutation.
            kc.bytes_random = e * 36 * sizeof(double);
            kc.depth = 8.0 * 14.0; // sort passes each have scan depth
            kc.branch_slots = e;
            kc.divergent_slots = 0.22 * e; // ragged segments
            kc.launches = 30;
            simt::record_kernel(&costs->nondiagonal, kc, 2); // 2 = NondiagBuild
        }
    }
}

} // namespace gdda::assembly
