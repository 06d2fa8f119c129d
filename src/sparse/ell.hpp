#pragma once
// Row-sorted sliced ELLPACK, the ELLPACK-family scalar SpMV format of the
// paper's related work (section II.B, [24][25][26]): ELL stores each slice
// column-major so warp lanes read coalesced, and padding only within
// fixed-height slices of length-sorted rows recovers most of ELL's zero-fill
// on irregular matrices. It is the solve path's alternative fp64 SpMV
// backend (SimConfig::spmv_backend).

#include <cstdint>
#include <vector>

#include "simt/cost_model.hpp"
#include "sparse/csr.hpp"

namespace gdda::sparse {

/// Row-sorted sliced ELLPACK (SELL-R, Wong/Kuhl/Darve): rows are permuted
/// into descending row-length order by a *stable* sort before slicing, so
/// every slice holds rows of near-uniform length and the per-slice padding
/// collapses. The permutation is part of the format: SpMV reads the sorted
/// layout and scatters each result back to its original row through `perm`,
/// making the kernel a drop-in y = A x — callers never see sorted order.
/// This is the solve-path SpMV backend selectable via SimConfig/PcgMatrix.
struct SortedSellMatrix {
    std::size_t rows = 0;
    std::size_t slice_height = 32;        ///< warp width
    std::vector<std::uint32_t> perm;      ///< sorted position -> original row
    std::vector<std::uint32_t> inv_perm;  ///< original row -> sorted position
    std::vector<std::size_t> slice_width; ///< per-slice max row length (sorted order)
    std::vector<std::size_t> slice_ptr;   ///< offset of each slice's data
    std::vector<std::uint32_t> cols;      ///< original column ids, column-major in slice
    std::vector<double> vals;

    [[nodiscard]] std::size_t padded_nnz() const { return vals.size(); }
    [[nodiscard]] std::size_t data_bytes() const {
        return vals.size() * sizeof(double) + cols.size() * sizeof(std::uint32_t) +
               (perm.size() + inv_perm.size()) * sizeof(std::uint32_t);
    }
};

SortedSellMatrix sorted_sell_from_csr(const CsrMatrix& a, std::size_t slice_height = 32);

/// Numeric refill of a sorted-SELL matrix from a CSR matrix with the
/// identical sparsity structure (row lengths and column ids). The
/// permutation, slice widths, and padding are kept; only vals is rewritten.
/// Throws std::invalid_argument when the structure does not match — callers
/// with value-dependent CSR structure (csr_from_bsr_full drops exact zeros)
/// must compare structure first and rebuild on mismatch.
void sorted_sell_refill(SortedSellMatrix& s, const CsrMatrix& a);

/// y = A x; exact math plus the analytic GPU trace.
void spmv_sorted_sell(const SortedSellMatrix& a, const std::vector<double>& x,
                      std::vector<double>& y, simt::KernelCost* cost = nullptr);

} // namespace gdda::sparse
