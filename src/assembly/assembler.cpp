#include "assembly/assembler.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>

#include "par/parallel_for.hpp"

namespace gdda::assembly {

ContactFingerprint contact_fingerprint(int n, std::span<const Contact> contacts) {
    ContactFingerprint fp;
    fp.n = n;
    fp.count = contacts.size();
    std::uint64_t h = 1469598103934665603ull; // FNV-1a offset basis
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull; // FNV prime
    };
    for (const Contact& c : contacts) {
        mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.bi)) << 32) |
            static_cast<std::uint32_t>(c.bj));
        mix(static_cast<std::uint64_t>(c.kind));
    }
    fp.hash = h;
    return fp;
}

AssembledSystem assemble_serial(const BlockSystem& sys, const BlockAttachments& att,
                                std::span<const Contact> contacts,
                                std::span<const ContactGeometry> geo,
                                const StepParams& sp, double* diag_seconds) {
    assert(contacts.size() == geo.size());
    const int n = static_cast<int>(sys.size());

    std::vector<int> rows;
    std::vector<int> cols;
    std::vector<Mat6> blocks;
    rows.reserve(n + contacts.size() * 3);
    cols.reserve(rows.capacity());
    blocks.reserve(rows.capacity());

    AssembledSystem out;
    out.f.assign(n, Vec6{});

    const auto diag_start = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
        Mat6 k;
        Vec6 f;
        block_diagonal(sys, att, i, sp, k, f);
        rows.push_back(i);
        cols.push_back(i);
        blocks.push_back(k);
        out.f[i] += f;
    }
    if (diag_seconds)
        *diag_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - diag_start).count();

    for (std::size_t c = 0; c < contacts.size(); ++c) {
        const Contact& ct = contacts[c];
        const ContactContribution cc = contact_contribution(sys, ct, geo[c], sp.contact);
        // Claim the slots even when inactive (zero blocks keep structure).
        rows.push_back(ct.bi);
        cols.push_back(ct.bi);
        blocks.push_back(cc.kii);
        rows.push_back(ct.bj);
        cols.push_back(ct.bj);
        blocks.push_back(cc.kjj);
        if (ct.bi < ct.bj) {
            rows.push_back(ct.bi);
            cols.push_back(ct.bj);
            blocks.push_back(cc.kij);
        } else {
            rows.push_back(ct.bj);
            cols.push_back(ct.bi);
            blocks.push_back(cc.kij.transposed());
        }
        if (cc.active) {
            out.f[ct.bi] += cc.fi;
            out.f[ct.bj] += cc.fj;
        }
    }

    out.k = sparse::bsr_from_coo(n, rows, cols, blocks);
    return out;
}

AssemblyPlan::AssemblyPlan(int n, std::span<const Contact> contacts) : n_(n) {
    // Unique sorted (row, col) pairs of the off-diagonal slots.
    std::vector<std::uint64_t> keys;
    keys.reserve(contacts.size());
    for (const Contact& c : contacts) {
        const int r = std::min(c.bi, c.bj);
        const int cc = std::max(c.bi, c.bj);
        if (r != cc)
            keys.push_back((static_cast<std::uint64_t>(r) << 32) |
                           static_cast<std::uint32_t>(cc));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

    row_ptr_.assign(n + 1, 0);
    col_idx_.resize(keys.size());
    for (std::size_t p = 0; p < keys.size(); ++p) {
        ++row_ptr_[(keys[p] >> 32) + 1];
        col_idx_[p] = static_cast<int>(keys[p] & 0xffffffffu);
    }
    for (int i = 0; i < n; ++i) row_ptr_[i + 1] += row_ptr_[i];

    offdiag_slot_.reserve(contacts.size());
    transpose_.reserve(contacts.size());
    for (const Contact& c : contacts) {
        const int r = std::min(c.bi, c.bj);
        const int cc = std::max(c.bi, c.bj);
        if (r == cc) {
            offdiag_slot_.push_back(-1);
            transpose_.push_back(false);
            continue;
        }
        const std::uint64_t key =
            (static_cast<std::uint64_t>(r) << 32) | static_cast<std::uint32_t>(cc);
        const auto it = std::lower_bound(keys.begin(), keys.end(), key);
        offdiag_slot_.push_back(static_cast<int>(it - keys.begin()));
        transpose_.push_back(c.bi > c.bj);
    }
}

void AssemblyPlan::assemble_into(AssembledSystem& out, const BlockSystem& sys,
                                 const BlockAttachments& att, std::span<const Contact> contacts,
                                 std::span<const ContactGeometry> geo, const StepParams& sp,
                                 double* diag_seconds, DiagPhysicsCache* diag_cache,
                                 double* diag_par_seconds) const {
    assert(static_cast<int>(sys.size()) == n_ && contacts.size() == offdiag_slot_.size());
    out.k.n = n_;
    out.k.row_ptr = row_ptr_;
    out.k.col_idx = col_idx_;
    out.k.diag.assign(n_, Mat6{});
    out.k.vals.assign(col_idx_.size(), Mat6{});
    out.f.assign(n_, Vec6{});

    // Diagonal physics: every index writes only its own diag/f rows, so the
    // loop runs under parallel_for with no ordering concern.
    const auto diag_start = std::chrono::steady_clock::now();
    const double diag_par0 = par::parallel_region_seconds();
    if (diag_cache && diag_cache->valid) {
        par::parallel_for(static_cast<std::size_t>(n_), par::kDefaultGrain,
                          [&](std::size_t i) {
                              out.k.diag[i] = diag_cache->k[i];
                              out.f[i] = diag_cache->f[i];
                          });
    } else {
        par::parallel_for(static_cast<std::size_t>(n_), 64, [&](std::size_t i) {
            Vec6 f;
            block_diagonal(sys, att, static_cast<int>(i), sp, out.k.diag[i], f);
            out.f[i] += f;
        });
        if (diag_cache) {
            diag_cache->k.assign(out.k.diag.begin(), out.k.diag.end());
            diag_cache->f = out.f;
            diag_cache->valid = true;
        }
    }
    if (diag_par_seconds) *diag_par_seconds = par::parallel_region_seconds() - diag_par0;
    if (diag_seconds)
        *diag_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - diag_start).count();

    // Contact springs: each contribution is computed and scattered in turn,
    // serially and in contact order. The += sums are order-sensitive
    // floating-point, and the fixed serial order keeps the result bitwise
    // identical for any team size. Open contacts (almost all of them)
    // return zeros at once and add nothing.
    for (std::size_t c = 0; c < contacts.size(); ++c) {
        const Contact& ct = contacts[c];
        const ContactContribution cc = contact_contribution(sys, ct, geo[c], sp.contact);
        if (!cc.active) continue;
        out.k.diag[ct.bi] += cc.kii;
        out.k.diag[ct.bj] += cc.kjj;
        const int slot = offdiag_slot_[c];
        if (slot >= 0) {
            if (transpose_[c]) {
                out.k.vals[slot] += cc.kij.transposed();
            } else {
                out.k.vals[slot] += cc.kij;
            }
        }
        out.f[ct.bi] += cc.fi;
        out.f[ct.bj] += cc.fj;
    }
}

} // namespace gdda::assembly
