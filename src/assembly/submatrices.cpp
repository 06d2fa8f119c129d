#include "assembly/submatrices.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace gdda::assembly {

using block::Block;
using geom::Vec2;

BlockAttachments index_attachments(const BlockSystem& sys) {
    BlockAttachments att;
    att.fixed.resize(sys.size());
    att.loads.resize(sys.size());
    for (const block::FixedPoint& fp : sys.fixed_points) att.fixed[fp.block].push_back(fp);
    for (const block::PointLoad& pl : sys.point_loads) att.loads[pl.block].push_back(pl);
    return att;
}

void block_diagonal(const BlockSystem& sys, const BlockAttachments& att, int bidx,
                    const StepParams& sp, Mat6& k, Vec6& f) {
    const Block& b = sys.blocks[bidx];
    const block::Material& mat = sys.material_of(b);
    k = Mat6{};
    f = Vec6{};

    // Elastic strain energy: area-scaled plane elasticity on (ex, ey, gxy).
    const std::array<double, 9> e = mat.elasticity();
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c) k(3 + r, 3 + c) += b.area * e[r * 3 + c];

    // Inertia: K += 2M/dt^2; F += 2M/dt * v0 (constant-acceleration update).
    // The dynamic coefficient damps velocities at commit time, not here —
    // scaling the inertia load too would double-apply the damping.
    const Mat6 m = b.mass_matrix(mat.density);
    const double inv_dt = 1.0 / sp.dt;
    k += m * (2.0 * inv_dt * inv_dt);
    if (sp.velocity_carry > 0.0) {
        f += m.mul(b.velocity) * (2.0 * inv_dt);
    }

    // Body force (about the centroid only the rigid translations load).
    f[0] += mat.density * b.area * sys.gravity.x;
    f[1] += mat.density * b.area * sys.gravity.y;

    // Carried initial stress: F -= area * sigma on the strain rows.
    f[3] -= b.area * b.stress[0];
    f[4] -= b.area * b.stress[1];
    f[5] -= b.area * b.stress[2];

    // Point loads: F += T(p)^T f.
    for (const block::PointLoad& pl : att.loads[bidx]) {
        const sparse::Vec6 tx = b.tx(pl.point);
        const sparse::Vec6 ty = b.ty(pl.point);
        f += tx * pl.force.x + ty * pl.force.y;
    }

    // Fixed points: stiff springs pulling the material point to its anchor.
    auto add_fixed_spring = [&](Vec2 point, Vec2 anchor) {
        const sparse::Vec6 tx = b.tx(point);
        const sparse::Vec6 ty = b.ty(point);
        k += (Mat6::outer(tx, tx) + Mat6::outer(ty, ty)) * sp.fixed_penalty;
        const Vec2 delta = anchor - point;
        f += (tx * delta.x + ty * delta.y) * sp.fixed_penalty;
    };
    for (const block::FixedPoint& fp : att.fixed[bidx]) add_fixed_spring(fp.point, fp.anchor);
    if (b.fixed) {
        // Fully fixed block: pin every vertex at its current position.
        for (const Vec2& p : b.verts) add_fixed_spring(p, p);
    }
}

namespace {

// m = (u w^T) s and m += (u w^T) s, element by element with the operation
// order of Mat6::outer(u, w) * s, so the bits match; writing each element
// once skips the 288-byte temporaries of the operator form.
void set_outer(Mat6& m, const Vec6& u, const Vec6& w, double s) {
    for (int r = 0; r < 6; ++r)
        for (int c = 0; c < 6; ++c) m(r, c) = u[r] * w[c] * s;
}
void add_outer(Mat6& m, const Vec6& u, const Vec6& w, double s) {
    for (int r = 0; r < 6; ++r)
        for (int c = 0; c < 6; ++c) m(r, c) += u[r] * w[c] * s;
}

} // namespace

ContactContribution contact_contribution(const BlockSystem& sys, const Contact& c,
                                         const ContactGeometry& g,
                                         const contact::OpenCloseParams& params) {
    ContactContribution out;
    if (!c.has_normal_spring()) return out;
    out.active = true;

    const double p = params.penalty;
    set_outer(out.kii, g.en_i, g.en_i, p);
    set_outer(out.kjj, g.gn_j, g.gn_j, p);
    set_outer(out.kij, g.en_i, g.gn_j, p);
    // Rate-limited penetration recovery (see OpenCloseParams::max_push).
    const double gap_rhs = std::max(g.gap0, -params.max_push);
    out.fi = g.en_i * (-p * gap_rhs);
    out.fj = g.gn_j * (-p * gap_rhs);

    if (c.state == contact::ContactState::Lock) {
        const double ps = params.shear_penalty;
        add_outer(out.kii, g.es_i, g.es_i, ps);
        add_outer(out.kjj, g.gs_j, g.gs_j, ps);
        add_outer(out.kij, g.es_i, g.gs_j, ps);
        const double shear_rhs =
            std::clamp(c.shear_disp, -params.max_push, params.max_push);
        out.fi += g.es_i * (-ps * shear_rhs);
        out.fj += g.gs_j * (-ps * shear_rhs);
    } else {
        // Slide: Mohr-Coulomb friction load opposing the sliding direction,
        // proportional to the normal force from the last evaluation.
        const block::JointMaterial& jm =
            sys.joint_between(sys.blocks[c.bi], sys.blocks[c.bj]);
        const double normal_force = std::max(-params.penalty * c.last_gap, 0.0);
        const double friction =
            normal_force * std::tan(jm.friction_deg * std::numbers::pi_v<double> / 180.0) +
            jm.cohesion * g.length;
        out.fi -= g.es_i * (c.slide_sign * friction);
        out.fj -= g.gs_j * (c.slide_sign * friction);
    }
    return out;
}

} // namespace gdda::assembly
