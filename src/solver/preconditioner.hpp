#pragma once
// Preconditioner interface for the DDA PCG solver, plus factories for the
// three preconditioners compared in the paper (Table I / Fig. 5):
//
//   Block-Jacobi   invert each 6x6 diagonal block; cheapest to build/apply
//   SSOR-AI        SSOR approximate inverse (Helfenstein-Koko [36]):
//                  M^-1 = (I - D^-1 L^T) D^-1 (I - L D^-1), applied with two
//                  triangle SpMVs -- no triangular solves
//   ILU(0)         scalar ILU(0) + two sparse triangular solves per apply
//                  (cuSPARSE-style; level-scheduled on the GPU)
//
// apply() computes z = M^-1 r exactly and, when given a sink, accounts the
// analytic GPU cost of one application. Construction cost is recorded by the
// factory into the object.

#include <memory>
#include <string>

#include "simt/cost_model.hpp"
#include "sparse/bsr.hpp"

namespace gdda::solver {

class Preconditioner {
public:
    virtual ~Preconditioner() = default;

    /// z = M^-1 r. z and r are distinct vectors of n blocks.
    virtual void apply(const sparse::BlockVec& r, sparse::BlockVec& z,
                       simt::KernelCost* cost = nullptr) const = 0;

    /// z = M^-1 r and return dot(r, z), fusing the reduction into the apply
    /// pass so r and z are streamed once instead of twice. The returned
    /// double is bit-identical to `apply(r, z); sparse::dot(r, z)` — element
    /// products accumulate in ascending index order with sparse::dot's chunk
    /// partitioning. The base implementation is exactly that unfused pair;
    /// cheap element-wise preconditioners override it with a single pass.
    virtual double apply_dot(const sparse::BlockVec& r, sparse::BlockVec& z,
                             simt::KernelCost* cost = nullptr) const {
        apply(r, z, cost);
        return sparse::dot(r, z);
    }

    [[nodiscard]] virtual std::string name() const = 0;

    /// Re-derive the numeric content from `a` while keeping every allocation
    /// and symbolic pattern from construction. `a` must have the same block
    /// sparsity as the construction matrix (the structure-caching solve path
    /// guarantees this via its contact-set fingerprint); the result is
    /// bitwise identical to constructing a fresh preconditioner from `a`.
    /// Implementations that detect a pattern change internally (ILU(0)'s
    /// scalar pattern depends on which block entries are exactly zero) fall
    /// back to a full rebuild on their own and return false; a true return
    /// means the cached symbolic pattern was reused as-is.
    virtual bool refactor(const sparse::BsrMatrix& a) = 0;

    /// Analytic GPU cost of constructing this preconditioner (once per step).
    [[nodiscard]] const simt::KernelCost& construction_cost() const { return construction_cost_; }
    /// Measured CPU construction time in seconds.
    [[nodiscard]] double construction_seconds() const { return construction_seconds_; }

protected:
    simt::KernelCost construction_cost_;
    double construction_seconds_ = 0.0;
};

/// No-op preconditioner (plain CG).
std::unique_ptr<Preconditioner> make_identity(int n);

/// Point-Jacobi (scalar diagonal) — the OpenMP-DDA baseline of ref [9].
std::unique_ptr<Preconditioner> make_point_jacobi(const sparse::BsrMatrix& a);

std::unique_ptr<Preconditioner> make_block_jacobi(const sparse::BsrMatrix& a);

std::unique_ptr<Preconditioner> make_ssor_ai(const sparse::BsrMatrix& a, double omega = 1.0);

std::unique_ptr<Preconditioner> make_ilu0(const sparse::BsrMatrix& a);

} // namespace gdda::solver
