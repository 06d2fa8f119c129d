// Assembly module: element sub-matrices, serial assembly properties, and
// the sort/scan GPU assembler's bit-identical equivalence (Fig. 4).

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "assembly/assembler.hpp"
#include "assembly/gpu_assembler.hpp"
#include "contact/broad_phase.hpp"
#include "contact/narrow_phase.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"
#include "par/thread_budget.hpp"
#include "solver/pcg.hpp"

namespace as = gdda::assembly;
namespace ct = gdda::contact;
namespace bl = gdda::block;
namespace sp = gdda::sparse;

namespace {

struct Fixture {
    bl::BlockSystem sys;
    as::BlockAttachments att;
    std::vector<ct::Contact> contacts;
    std::vector<ct::ContactGeometry> geo;
    as::StepParams sp;
};

Fixture make_fixture(bl::BlockSystem sys, bool close_contacts) {
    Fixture f;
    f.sys = std::move(sys);
    f.att = as::index_attachments(f.sys);
    const auto pairs = ct::broad_phase_triangular(f.sys, 0.05);
    auto np = ct::narrow_phase(f.sys, pairs, 0.05);
    f.contacts = std::move(np.contacts);
    if (close_contacts)
        for (ct::Contact& c : f.contacts) c.state = ct::ContactState::Lock;
    f.geo = ct::init_all_contacts(f.sys, f.contacts);
    f.sp.dt = 1e-3;
    f.sp.velocity_carry = 1.0;
    f.sp.contact.penalty = 2e10;
    f.sp.contact.shear_penalty = 2e10;
    f.sp.fixed_penalty = 2e10;
    return f;
}

} // namespace

TEST(Submatrices, DiagonalContainsInertiaAndGravity) {
    Fixture f = make_fixture(gdda::models::make_free_block(5.0), false);
    sp::Mat6 k;
    sp::Vec6 rhs;
    as::block_diagonal(f.sys, f.att, 0, f.sp, k, rhs);
    const bl::Block& b = f.sys.blocks[0];
    const double mass = f.sys.materials[0].density * b.area;
    // Translation diagonal = 2M/dt^2.
    EXPECT_NEAR(k(0, 0), 2.0 * mass / (f.sp.dt * f.sp.dt), 1e-3 * k(0, 0));
    // Gravity load on v0 row.
    EXPECT_NEAR(rhs[1], mass * f.sys.gravity.y, 1e-6 * std::abs(rhs[1]));
    EXPECT_NEAR(rhs[0], 0.0, 1e-9);
    EXPECT_TRUE(k.is_symmetric(1e-6 * k.max_abs()));
}

TEST(Submatrices, VelocityLoadOnlyInDynamicMode) {
    Fixture f = make_fixture(gdda::models::make_free_block(5.0), false);
    f.sys.blocks[0].velocity[1] = -3.0;
    sp::Mat6 k;
    sp::Vec6 dyn;
    as::block_diagonal(f.sys, f.att, 0, f.sp, k, dyn);
    f.sp.velocity_carry = 0.0;
    sp::Vec6 sta;
    as::block_diagonal(f.sys, f.att, 0, f.sp, k, sta);
    const double mass = f.sys.materials[0].density * f.sys.blocks[0].area;
    EXPECT_NEAR(dyn[1] - sta[1], 2.0 * mass / f.sp.dt * -3.0, 1e-3 * mass / f.sp.dt);
}

TEST(Submatrices, InitialStressEntersRhs) {
    Fixture f = make_fixture(gdda::models::make_free_block(5.0), false);
    f.sys.blocks[0].stress = {1e5, -2e5, 3e4};
    sp::Mat6 k;
    sp::Vec6 rhs;
    as::block_diagonal(f.sys, f.att, 0, f.sp, k, rhs);
    const double area = f.sys.blocks[0].area;
    EXPECT_NEAR(rhs[3], -area * 1e5, 1e-6 * area * 1e5);
    EXPECT_NEAR(rhs[4], +area * 2e5, 1e-6 * area * 2e5);
    EXPECT_NEAR(rhs[5], -area * 3e4, 1e-6 * area * 3e4);
}

TEST(Submatrices, PointLoadUsesBasis) {
    bl::BlockSystem sys = gdda::models::make_free_block(0.0);
    sys.point_loads.push_back({.block = 0, .point = {0.5, 1.0}, .force = {10.0, 0.0}});
    Fixture f = make_fixture(std::move(sys), false);
    sp::Mat6 k;
    sp::Vec6 rhs;
    as::block_diagonal(f.sys, f.att, 0, f.sp, k, rhs);
    // Force at (0.5, 1.0): centroid (0, 0.5), offset (0.5, 0.5). Moment row:
    // -(y-y0)*Fx = -0.5*10 = -5 on r0.
    EXPECT_NEAR(rhs[0], 10.0, 1e-9);
    EXPECT_NEAR(rhs[2], -5.0, 1e-9);
}

TEST(Submatrices, ContactContributionSymmetricPair) {
    Fixture f = make_fixture(gdda::models::make_block_on_floor(0.001), true);
    ASSERT_FALSE(f.contacts.empty());
    const as::ContactContribution cc =
        as::contact_contribution(f.sys, f.contacts[0], f.geo[0], f.sp.contact);
    ASSERT_TRUE(cc.active);
    EXPECT_TRUE(cc.kii.is_symmetric(1e-6 * cc.kii.max_abs() + 1e-12));
    EXPECT_TRUE(cc.kjj.is_symmetric(1e-6 * cc.kjj.max_abs() + 1e-12));
    // Rank-1 structure: kij = p * e g^T => kij(a,b)*kii(c,c)... check via
    // the defining vectors instead: kii = p e e^T means kii * x ~ e.
    EXPECT_GT(cc.kii.max_abs(), 0.0);
}

TEST(Submatrices, OpenContactInactive) {
    Fixture f = make_fixture(gdda::models::make_block_on_floor(0.001), false);
    ASSERT_FALSE(f.contacts.empty());
    const as::ContactContribution cc =
        as::contact_contribution(f.sys, f.contacts[0], f.geo[0], f.sp.contact);
    EXPECT_FALSE(cc.active);
    EXPECT_DOUBLE_EQ(cc.kii.max_abs(), 0.0);
}

TEST(Assemble, MatrixIsSymmetricSpd) {
    Fixture f = make_fixture(gdda::models::make_column(3), true);
    const as::AssembledSystem s =
        as::assemble_serial(f.sys, f.att, f.contacts, f.geo, f.sp);
    EXPECT_EQ(s.k.n, 4);
    EXPECT_TRUE(s.k.diag_symmetric(1e-4));
    // SPD check: CG on the assembled system converges.
    const sp::HsbcsrMatrix h = sp::hsbcsr_from_bsr(s.k);
    sp::BlockVec x(s.k.n);
    const auto r = gdda::solver::cg(h, s.f, x, {.max_iters = 2000, .rel_tol = 1e-8});
    EXPECT_TRUE(r.converged);
}

TEST(Assemble, StructureIncludesOpenContacts) {
    Fixture fo = make_fixture(gdda::models::make_column(3), false);
    Fixture fc = make_fixture(gdda::models::make_column(3), true);
    const auto so = as::assemble_serial(fo.sys, fo.att, fo.contacts, fo.geo, fo.sp);
    const auto sc = as::assemble_serial(fc.sys, fc.att, fc.contacts, fc.geo, fc.sp);
    // Same sparsity pattern regardless of contact state.
    EXPECT_EQ(so.k.col_idx, sc.k.col_idx);
    EXPECT_EQ(so.k.row_ptr, sc.k.row_ptr);
}

TEST(Assemble, GpuAssemblerBitIdentical) {
    for (int model = 0; model < 3; ++model) {
        Fixture f = make_fixture(model == 0   ? gdda::models::make_block_on_floor(0.001)
                                 : model == 1 ? gdda::models::make_column(4)
                                              : gdda::models::make_incline(20.0, 30.0),
                                 true);
        double ds = 0.0;
        const auto a = as::assemble_serial(f.sys, f.att, f.contacts, f.geo, f.sp, &ds);
        as::GpuAssemblyCosts costs;
        as::GpuAssemblyPlan plan;
        plan.build(static_cast<int>(f.sys.size()), f.contacts);
        as::AssembledSystem b;
        plan.assemble_into(b, f.sys, f.att, f.contacts, f.geo, f.sp, &costs);

        ASSERT_EQ(a.k.n, b.k.n);
        ASSERT_EQ(a.k.col_idx, b.k.col_idx);
        ASSERT_EQ(a.k.row_ptr, b.k.row_ptr);
        for (std::size_t i = 0; i < a.k.vals.size(); ++i)
            for (int e = 0; e < 36; ++e)
                EXPECT_EQ(a.k.vals[i].a[e], b.k.vals[i].a[e]) << "model " << model;
        for (std::size_t i = 0; i < a.k.diag.size(); ++i)
            for (int e = 0; e < 36; ++e)
                EXPECT_EQ(a.k.diag[i].a[e], b.k.diag[i].a[e]) << "model " << model;
        for (std::size_t i = 0; i < a.f.size(); ++i)
            for (int e = 0; e < 6; ++e) EXPECT_EQ(a.f[i][e], b.f[i][e]);
        EXPECT_GT(costs.nondiagonal.flops, 0.0);
        EXPECT_GT(costs.diagonal.flops, 0.0);
    }
}

namespace {

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

} // namespace

// The Gpu plan stores contributions only for active contacts and reduces
// the RHS inside the matrix's diagonal segments. A block whose segment
// interleaves Open and closed contacts exercises both the skipped entries
// and the load order, on a cold pass and on a warm pass after the states
// flip under an unchanged structure.
TEST(Assemble, GpuPlanMatchesSerialWithMixedContactStates) {
    bl::BlockSystem sys = gdda::models::make_slope_with_blocks(80);
    const double rho = 0.02 * sys.characteristic_length();
    const auto pairs = ct::broad_phase_triangular(sys, rho);
    auto contacts = ct::narrow_phase(sys, pairs, rho).contacts;
    ASSERT_FALSE(contacts.empty());
    auto set_states = [&contacts](int shift) {
        for (std::size_t i = 0; i < contacts.size(); ++i) {
            const std::size_t k = (i + shift) % 3;
            contacts[i].state = k == 0   ? ct::ContactState::Open
                                : k == 1 ? ct::ContactState::Slide
                                         : ct::ContactState::Lock;
            contacts[i].slide_sign = 1.0;
            contacts[i].last_gap = -1e-5;
        }
    };
    set_states(0);

    // Some block must see both an Open and a closed contact.
    const int n = static_cast<int>(sys.size());
    std::vector<int> open_at(n, 0), closed_at(n, 0);
    for (const ct::Contact& c : contacts) {
        auto& count = c.state == ct::ContactState::Open ? open_at : closed_at;
        ++count[c.bi];
        ++count[c.bj];
    }
    bool mixed = false;
    for (int i = 0; i < n; ++i) mixed = mixed || (open_at[i] > 0 && closed_at[i] > 0);
    ASSERT_TRUE(mixed);

    as::StepParams sp;
    sp.dt = 1e-3;
    sp.contact.penalty = 10.0 * sys.max_young();
    sp.contact.shear_penalty = sp.contact.penalty;
    sp.fixed_penalty = sp.contact.penalty;
    const auto att = as::index_attachments(sys);
    const as::ContactFingerprint fp = as::contact_fingerprint(n, contacts);

    for (int team : {1, 4}) {
        gdda::par::ScopedTeamSize scope(team);
        const std::string tag = "team " + std::to_string(team);
        set_states(0);
        auto geo = ct::init_all_contacts(sys, contacts);
        as::GpuAssemblyPlan plan;
        plan.build(n, contacts);
        as::DiagPhysicsCache cache;

        const auto cold_ref = as::assemble_serial(sys, att, contacts, geo, sp);
        as::AssembledSystem cold;
        plan.assemble_into(cold, sys, att, contacts, geo, sp, nullptr, nullptr, &cache);
        EXPECT_TRUE(same_bits(cold_ref.k.diag, cold.k.diag)) << "cold diag, " << tag;
        EXPECT_TRUE(same_bits(cold_ref.k.vals, cold.k.vals)) << "cold vals, " << tag;
        EXPECT_TRUE(same_bits(cold_ref.f, cold.f)) << "cold f, " << tag;

        set_states(1);
        ASSERT_EQ(fp, as::contact_fingerprint(n, contacts));
        geo = ct::init_all_contacts(sys, contacts);
        const auto warm_ref = as::assemble_serial(sys, att, contacts, geo, sp);
        as::AssembledSystem warm;
        plan.assemble_into(warm, sys, att, contacts, geo, sp, nullptr, nullptr, &cache,
                           /*warm=*/true);
        EXPECT_TRUE(same_bits(warm_ref.k.diag, warm.k.diag)) << "warm diag, " << tag;
        EXPECT_TRUE(same_bits(warm_ref.k.vals, warm.k.vals)) << "warm vals, " << tag;
        EXPECT_TRUE(same_bits(warm_ref.f, warm.f)) << "warm f, " << tag;
        EXPECT_FALSE(same_bits(cold_ref.f, warm_ref.f)) << "the flip must move the RHS";
    }
}

TEST(Assemble, CategoriesPartitionContacts) {
    Fixture f = make_fixture(gdda::models::make_column(4), true);
    for (std::size_t i = 0; i < f.contacts.size(); ++i) {
        f.contacts[i].p1 = static_cast<std::int8_t>(i % 3 == 0);
        f.contacts[i].p2 = static_cast<std::int8_t>(i % 3 == 1);
    }
    const as::CategoryStats st = as::classify_categories(f.contacts);
    EXPECT_EQ(st.c1 + st.c2 + st.c3 + st.c4 + st.c5 + st.abandoned, f.contacts.size());
}
