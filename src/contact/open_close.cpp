#include "contact/open_close.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "par/parallel_for.hpp"

namespace gdda::contact {

using block::Block;
using geom::Vec2;
using sparse::Vec6;

ContactGeometry init_contact_geometry(const block::BlockSystem& sys, const Contact& c) {
    const Block& bi = sys.blocks[c.bi];
    const Block& bj = sys.blocks[c.bj];
    const Vec2 p1 = bi.verts[c.vi];
    const Vec2 p2 = bj.verts[c.e1];
    const Vec2 p3 = bj.verts[c.e2];

    ContactGeometry g;
    const Vec2 edge = p3 - p2;
    g.length = edge.norm();
    const double l = std::max(g.length, 1e-300);

    // Normal gap: gap = -det(1 p1; 1 p2; 1 p3) / l, positive outside the
    // CCW block bj. Gradients follow from the determinant's linearity.
    g.gap0 = -geom::orient2d(p2, p3, p1) / l;
    const Vec6 tx1 = bi.tx(p1);
    const Vec6 ty1 = bi.ty(p1);
    const Vec6 tx2 = bj.tx(p2);
    const Vec6 ty2 = bj.ty(p2);
    const Vec6 tx3 = bj.tx(p3);
    const Vec6 ty3 = bj.ty(p3);
    for (int k = 0; k < 6; ++k) {
        g.en_i[k] = -((p2.y - p3.y) * tx1[k] + (p3.x - p2.x) * ty1[k]) / l;
        g.gn_j[k] = -((p3.y - p1.y) * tx2[k] + (p1.x - p3.x) * ty2[k] +
                      (p1.y - p2.y) * tx3[k] + (p2.x - p1.x) * ty3[k]) /
                    l;
    }

    // Shear: tangential offset of the vertex relative to its foot point on
    // the edge, measured along the edge direction.
    const Vec2 t = edge / l;
    g.ratio = l > 0.0 ? (p1 - p2).dot(edge) / (l * l) : 0.5;
    const double r = geom::closest_param_on_segment(p2, p3, p1);
    const Vec2 p0 = p2 + edge * r;
    const Vec6 tx0 = bj.tx(p0);
    const Vec6 ty0 = bj.ty(p0);
    for (int k = 0; k < 6; ++k) {
        g.es_i[k] = t.x * tx1[k] + t.y * ty1[k];
        g.gs_j[k] = -(t.x * tx0[k] + t.y * ty0[k]);
    }
    return g;
}

std::vector<ContactGeometry> init_all_contacts(const block::BlockSystem& sys,
                                               std::span<const Contact> contacts,
                                               simt::KernelCost* cost) {
    std::vector<ContactGeometry> out(contacts.size());
    // One independent geometry computation per contact (the paper's
    // per-class initialization kernels).
    par::parallel_for(contacts.size(),
                      [&](std::size_t i) { out[i] = init_contact_geometry(sys, contacts[i]); });
    if (cost) {
        simt::KernelCost kc;
        kc.name = "contact_init";
        const double m = static_cast<double>(contacts.size());
        kc.flops = m * 180.0;
        kc.bytes_coalesced = m * (sizeof(Contact) + sizeof(ContactGeometry));
        kc.bytes_texture = m * 6.0 * sizeof(double); // vertex position fetches
        kc.depth = 10;
        // Classified pipeline: VE / VV1 / VV2 each run a uniform kernel, so
        // only residual divergence remains (measured in bench_class_divergence).
        kc.branch_slots = m / 4.0;
        kc.divergent_slots = 0.05 * kc.branch_slots;
        kc.launches = 3;
        simt::record_kernel(cost, kc);
    }
    return out;
}

OpenCloseResult update_contact_states(const block::BlockSystem& sys,
                                      std::span<const ContactGeometry> geo,
                                      std::vector<Contact>& contacts, const BlockVec& d,
                                      const OpenCloseParams& params,
                                      simt::KernelCost* cost) {
    OpenCloseResult res;
    for (std::size_t k = 0; k < contacts.size(); ++k) {
        Contact& c = contacts[k];
        const ContactGeometry& g = geo[k];
        const block::JointMaterial& jm =
            sys.joint_between(sys.blocks[c.bi], sys.blocks[c.bj]);

        const double dn = g.gap0 + g.en_i.dot(d[c.bi]) + g.gn_j.dot(d[c.bj]);
        const double ds = c.shear_disp + g.es_i.dot(d[c.bi]) + g.gs_j.dot(d[c.bj]);

        const ContactState old = c.state;
        ContactState next;

        // Tension cut: a closed contact may carry joint tensile strength
        // before it opens; an open contact closes on penetration.
        const double tension_gap = jm.tension * g.length / params.penalty;
        // A vertex whose projection falls outside the edge span has its gap
        // measured to the *extended* line; treating that as penetration
        // makes corner contacts flip open/lock forever — and a *closed*
        // contact whose vertex slides past the edge end would keep a spring
        // with a huge phantom stretch and detonate. Open both cases (real
        // DDA transfers such contacts to the neighboring edge, which the
        // next step's detection re-establishes).
        // Closing demands the vertex genuinely projects onto the edge and a
        // physically plausible depth; an already-closed contact survives a
        // wider band until the vertex clearly leaves the span.
        const bool on_span = g.ratio > -0.05 && g.ratio < 1.05;
        const bool closing_ok = g.ratio > -0.01 && g.ratio < 1.01 &&
                                dn < -params.open_tol && dn > -params.max_closing_depth;
        const bool left_span = g.ratio < -0.25 || g.ratio > 1.25;
        if (c.state == ContactState::Open) {
            next = closing_ok ? ContactState::Lock : ContactState::Open;
        } else if (dn > params.open_tol + tension_gap || left_span) {
            next = ContactState::Open;
        } else {
            const double normal_force = std::max(-params.penalty * dn, 0.0);
            const double friction_limit =
                normal_force * std::tan(jm.friction_deg * std::numbers::pi_v<double> / 180.0) +
                jm.cohesion * g.length;
            const double shear_force = params.shear_penalty * ds;
            if (old == ContactState::Lock && std::abs(shear_force) > friction_limit) {
                next = ContactState::Slide;
                c.slide_sign = shear_force >= 0.0 ? 1.0 : -1.0;
            } else if (old == ContactState::Slide &&
                       std::abs(shear_force) > 0.9 * friction_limit) {
                next = ContactState::Slide; // re-lock only with a 10% margin
                c.slide_sign = shear_force >= 0.0 ? 1.0 : -1.0;
            } else {
                next = ContactState::Lock;
            }
        }

        c.p1 = static_cast<std::int8_t>(int(next != ContactState::Open) -
                                        int(old != ContactState::Open));
        c.p2 = static_cast<std::int8_t>(int(next == ContactState::Lock) -
                                        int(old == ContactState::Lock));
        if (next != old) ++res.state_changes;
        c.prev_state = old;
        c.state = next;
        // Friction limits derive a normal force from this gap; off-span
        // evaluations are extended-line artifacts and must not contribute.
        c.last_gap = on_span ? dn : 0.0;

        // Interpenetration is measured on closed contacts only: their dn is
        // the actual spring stretch. Open contacts with deep negative line
        // gaps are corner artifacts the closing gate already rejects.
        if (next != ContactState::Open && g.ratio > -0.01 && g.ratio < 1.01) {
            res.max_penetration = std::max(res.max_penetration, -dn);
        }
    }

    if (cost) {
        simt::KernelCost kc;
        kc.name = "open_close_update";
        const double m = static_cast<double>(contacts.size());
        kc.flops = m * 60.0;
        kc.bytes_coalesced = m * (sizeof(Contact) + sizeof(ContactGeometry));
        kc.bytes_texture = m * 24.0 * sizeof(double); // d[bi], d[bj] gathers
        kc.depth = 8;
        kc.branch_slots = m;
        kc.divergent_slots = 0.18 * m; // restructured branches (section III.D)
        kc.launches = 2;
        simt::record_kernel(cost, kc);
    }
    return res;
}

void commit_contact_springs(std::span<const ContactGeometry> geo,
                            std::vector<Contact>& contacts, const BlockVec& d) {
    for (std::size_t k = 0; k < contacts.size(); ++k) {
        Contact& c = contacts[k];
        const ContactGeometry& g = geo[k];
        switch (c.state) {
            case ContactState::Lock:
                c.shear_disp = c.shear_disp + g.es_i.dot(d[c.bi]) + g.gs_j.dot(d[c.bj]);
                break;
            case ContactState::Slide:
            case ContactState::Open:
                c.shear_disp = 0.0;
                break;
        }
    }
}

} // namespace gdda::contact
