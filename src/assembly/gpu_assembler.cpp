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

void GpuAssemblyPlan::build(int n, std::span<const Contact> contacts) {
    n_ = n;
    contact_count_ = contacts.size();

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

    // Diagonal physics (block i's entry D[i] in the paper's array D): read
    // from the cache when it holds this attempt's values, else computed into
    // it. Each index writes only its own block.
    DiagPhysicsCache& dc = diag_cache ? *diag_cache : own_diag_;
    const auto diag_start = std::chrono::steady_clock::now();
    const double diag_par0 = par::parallel_region_seconds();
    if (!diag_hit) {
        dc.k.resize(n);
        dc.f.resize(n);
        par::parallel_for(static_cast<std::size_t>(n), 64, [&](std::size_t i) {
            block_diagonal(sys, att, static_cast<int>(i), sp, dc.k[i], dc.f[i]);
        });
        dc.valid = diag_cache != nullptr;
    }
    if (diag_par_seconds) *diag_par_seconds = par::parallel_region_seconds() - diag_par0;
    if (diag_seconds)
        *diag_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - diag_start).count();

    // Step 1 for the contacts: only active (non-Open) contacts contribute;
    // an Open contact's sub-matrices and loads are exact zeros. An exclusive
    // scan of the active flags gives each active contact its compact slot in
    // array D, so the contribution kernels run under parallel_for with no
    // ordering concern; only the summation order (fixed by the cached
    // permutation) decides the bits.
    active_.resize(nc);
    slot_.resize(nc);
    par::parallel_for(nc, par::kDefaultGrain, [&](std::size_t c) {
        active_[c] = contacts[c].has_normal_spring() ? 1u : 0u;
    });
    const std::uint64_t active_total = par::device_exclusive_scan(active_, slot_);
    d_blocks_.resize(3 * active_total);
    f_parts_.resize(2 * active_total);
    par::parallel_for(nc, 64, [&](std::size_t c) {
        if (active_[c] == 0) return;
        const Contact& ct = contacts[c];
        const ContactContribution cc = contact_contribution(sys, ct, geo[c], sp.contact);
        const std::size_t a = slot_[c];
        d_blocks_[3 * a] = cc.kii;
        d_blocks_[3 * a + 1] = cc.kjj;
        d_blocks_[3 * a + 2] = ct.bi < ct.bj ? cc.kij : cc.kij.transposed();
        f_parts_[2 * a] = cc.fi;
        f_parts_[2 * a + 1] = cc.fj;
    });

    // Steps 2-5, numeric half only: the sort permutation and segment ends
    // are cached, so assembly reduces to segmented sums gathered through
    // perm_ and written straight into the cached BSR structure. Emitted
    // entry e < n is block e's diagonal; entry n + 3c + r is contact c's
    // kii (r = 0), kjj (r = 1) or kij (r = 2). Block i's diagonal segment
    // lists D[i] and then one kii or kjj per incident contact in contact
    // order — the order of the loads f_i, fi, fj — so it sums out.f[i] in
    // the same pass. Open contacts' entries are skipped: every accumulator
    // starts at +0.0 and a sum of doubles never turns into -0.0, so
    // leaving out an exact +0.0 addend changes no bit. Every segment owns a
    // unique output slot (one diag row or one vals slot), so the segments
    // parallelize while the bits stay those of the serial pass.
    out.k.n = n;
    out.k.row_ptr = row_ptr_;
    out.k.col_idx = col_idx_;
    out.k.diag.assign(n, Mat6{});
    out.k.vals.assign(col_idx_.size(), Mat6{});
    out.f.assign(n, Vec6{});
    const auto un = static_cast<std::uint32_t>(n);
    par::parallel_for(ends_.size(), 64, [&](std::size_t s) {
        const std::uint32_t begin = s == 0 ? 0u : ends_[s - 1];
        const std::uint32_t end = ends_[s];
        Mat6 acc;
        Vec6 facc;
        for (std::uint32_t p = begin; p < end; ++p) {
            const std::uint32_t e = perm_[p];
            if (e < un) {
                acc += dc.k[e];
                facc += dc.f[e];
                continue;
            }
            const std::uint32_t c = (e - un) / 3;
            if (active_[c] == 0) continue;
            const std::uint32_t r = (e - un) % 3;
            acc += d_blocks_[3 * std::size_t{slot_[c]} + r];
            if (r < 2) facc += f_parts_[2 * std::size_t{slot_[c]} + r];
        }
        // Mirror bsr_from_coo exactly: diagonal blocks accumulate onto the
        // zero initializer, off-diagonal blocks are copied.
        if (seg_slot_[s] < 0) {
            const int i = -(seg_slot_[s] + 1);
            out.k.diag[i] += acc;
            out.f[i] += facc;
        } else {
            out.k.vals[seg_slot_[s]] = acc;
        }
    });

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
