#pragma once
// GPU-style global matrix assembly (paper Fig. 4). Write conflicts between
// contacts contributing to the same sub-matrix are eliminated by turning
// assembly into data-parallel passes:
//
//   1. every contribution computes its 6x6 sub-matrix independently (array D)
//   2. D is radix-sorted by packed (row, col) key (array SD)
//   3. segment boundaries are detected: di[i] = (key[i] != key[i-1])
//   4. a scan of di yields each segment's slot; segment ends give sd2
//   5. each unique sub-matrix is the segmented sum SD[sd2[k-1]..sd2[k])
//
// The right-hand side rides the same permutation: block i's diagonal
// segment holds its own diagonal entry followed by one kii or kjj per
// incident contact, in emission order, which is exactly the order of the
// loads f_i, fi, fj, so each diagonal segment sums the matrix block and the
// RHS row together. Only active (non-Open) contacts hold D slots; an Open
// contact's sub-matrices are exact zeros and the segmented sums skip them.
// The result is bit-identical to assemble_serial (tests enforce it) because
// the stable radix sort preserves the same summation order.
//
// Costs are accounted into two ledgers matching the paper's Table II rows:
// diagonal matrix building (per-block physics) and non-diagonal matrix
// building (contact contributions + sort/scan/reduce machinery).

#include <span>

#include "assembly/assembler.hpp"
#include "simt/cost_model.hpp"

namespace gdda::assembly {

/// Per-category contact counts for the paper's C1..C5 classification
/// (section III.A, third classification): VE/VV1 split by the state-switch
/// indicators p1/p2 into C1..C3, VV2 into C4..C5.
struct CategoryStats {
    std::size_t c1 = 0, c2 = 0, c3 = 0, c4 = 0, c5 = 0, abandoned = 0;
};
CategoryStats classify_categories(std::span<const Contact> contacts);

struct GpuAssemblyCosts {
    simt::KernelCost diagonal = simt::KernelCost::accumulator();
    simt::KernelCost nondiagonal = simt::KernelCost::accumulator();
};

/// Cached sort-and-scan assembly plan: the symbolic half of the Fig. 4
/// pipeline — key emission order, stable radix-sort permutation, segment
/// boundaries, and the BSR slot of every segment — computed once per contact
/// structure by build(). Every contact, open or not, emits its keys there,
/// so the structure holds across the open-close iterations. assemble_into()
/// then runs only the numeric half: contribution kernels for the active
/// contacts, then one segmented pass through the cached permutation that
/// sums the matrix and the RHS together. The plan keeps no other
/// permutation; its per-pass contact scratch holds one active flag and one
/// compact slot per contact, plus three Mat6 and two Vec6 per active one.
class GpuAssemblyPlan {
public:
    GpuAssemblyPlan() = default;

    /// Symbolic (cold) half: sort/scan the contact structure once.
    void build(int n, std::span<const Contact> contacts);

    /// Numeric half through the cached plan, writing into a caller-owned
    /// system so repeated passes reuse its allocations. `warm` selects the
    /// cost accounting only: cold records the structural sort/scan kernels
    /// as well; warm records the numeric refill plus zero-cost "[cached]"
    /// markers for the skipped structural kernels.
    ///
    /// Runs on the par/ execution backend: a prefix-sum over the active
    /// flags gives each active contact its compact slot, the contribution
    /// kernels fill those slots, and the segmented sums parallelize over
    /// segments — each segment owns a unique output slot and sums in
    /// cached-permutation order, so the result stays bit-for-bit the serial
    /// summation for any team size. `diag_par_seconds`, when given,
    /// receives the parallel-region slice of `diag_seconds`.
    void assemble_into(AssembledSystem& out, const BlockSystem& sys, const BlockAttachments& att,
                       std::span<const Contact> contacts, std::span<const ContactGeometry> geo,
                       const StepParams& sp, GpuAssemblyCosts* costs = nullptr,
                       double* diag_seconds = nullptr, DiagPhysicsCache* diag_cache = nullptr,
                       bool warm = false, double* diag_par_seconds = nullptr) const;

private:
    int n_ = 0;
    std::size_t contact_count_ = 0;
    std::vector<std::uint32_t> perm_;    ///< stable radix-sort permutation
    std::vector<std::uint32_t> ends_;    ///< segment end offsets (the sd2 array)
    std::vector<int> row_ptr_;           ///< BSR structure template
    std::vector<int> col_idx_;
    std::vector<int> seg_slot_;          ///< >= 0: vals index; < 0: diag block -(i+1)
    /// Holds the diagonal physics when the caller passes no cache.
    mutable DiagPhysicsCache own_diag_;
    mutable std::vector<std::uint32_t> active_; ///< 1 per non-Open contact
    mutable std::vector<std::uint32_t> slot_;   ///< exclusive scan of active_
    /// Array D for the active contacts: kii, kjj, kij at 3 * slot, and the
    /// loads fi, fj at 2 * slot.
    mutable std::vector<Mat6> d_blocks_;
    mutable std::vector<Vec6> f_parts_;
};

} // namespace gdda::assembly
