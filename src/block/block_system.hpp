#pragma once
// The blocky system: blocks, materials, joint sets, boundary conditions and
// loads. This is the model object every pipeline stage operates on.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "block/block.hpp"

namespace gdda::block {

/// Penalty anchor pinning a material point of a block to its location
/// (DDA's fixed-point boundary condition).
struct FixedPoint {
    int block = 0;
    Vec2 point;  ///< current position of the anchored material point
    Vec2 anchor; ///< world-space target the point is pinned to
};

/// Constant external force applied at a material point.
struct PointLoad {
    int block = 0;
    Vec2 point;
    Vec2 force; ///< Newtons
};

class BlockSystem {
public:
    std::vector<Block> blocks;
    std::vector<Material> materials{Material{}};
    std::vector<JointMaterial> joints{JointMaterial{}};
    std::vector<FixedPoint> fixed_points;
    std::vector<PointLoad> point_loads;
    Vec2 gravity{0.0, -9.81};

    /// Joint set governing the contact between two blocks. The default maps
    /// every pair to joint 0; models may install a pair-dependent rule by
    /// filling joint_of_material (indexed [mat_i * materials.size() + mat_j]).
    std::vector<int> joint_of_material;

    [[nodiscard]] std::size_t size() const { return blocks.size(); }
    [[nodiscard]] const Material& material_of(const Block& b) const {
        return materials[b.material];
    }
    [[nodiscard]] const JointMaterial& joint_between(const Block& a, const Block& b) const;

    /// Add a block from polygon vertices (made CCW, geometry derived).
    /// Returns its index.
    int add_block(std::vector<Vec2> poly, int material = 0, bool fixed = false);

    /// Pin every vertex of a block (convenience for foundation blocks).
    void fix_block(int index);

    /// Refresh derived geometry of all blocks.
    void update_all_geometry();

    /// Characteristic length: average over blocks of sqrt(area); drives the
    /// contact search distance and displacement control.
    [[nodiscard]] double characteristic_length() const;

    /// Largest Young's modulus among used materials (penalty scaling).
    [[nodiscard]] double max_young() const;
};

/// Bitwise fingerprint of a block system's dynamic state: vertex positions,
/// velocities and stresses of every block, hashed over their raw double bits
/// (FNV-1a). Two runs agree on this iff their trajectories are bit-identical
/// — the determinism oracle used by the thread-count and snapshot-resume
/// gates and the metrics observer-only guarantee.
[[nodiscard]] std::uint64_t state_fingerprint(const BlockSystem& sys);

} // namespace gdda::block
