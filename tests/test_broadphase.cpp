// Broad-phase contact pipeline: spatial-hash backend edge cases, backend
// candidate-set equivalence across the model zoo, the Auto selection rule,
// the persistent pair cache (rebuild/reuse/invalidation and the superset
// contract), divergence-aware pair classification, and whole-trajectory
// bitwise identity across every pipeline configuration. The contracts under
// test are documented in docs/CONTACTS.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "contact/broad_phase.hpp"
#include "contact/narrow_phase.hpp"
#include "contact/pair_cache.hpp"
#include "contact/pair_classes.hpp"
#include "contact/spatial_hash.hpp"
#include "core/engine.hpp"
#include "models/falling_rocks.hpp"
#include "models/large_scene.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"
#include "models/tunnel.hpp"

namespace ct = gdda::contact;
namespace bl = gdda::block;
namespace core = gdda::core;
namespace models = gdda::models;
using gdda::geom::Vec2;

namespace {

void translate_block(bl::BlockSystem& sys, int i, double dx, double dy) {
    for (Vec2& v : sys.blocks[i].verts) {
        v.x += dx;
        v.y += dy;
    }
    sys.blocks[i].update_geometry();
}

/// a-subset-of-b for sorted (a, b)-ordered candidate sets.
bool pair_subset(const std::vector<ct::BlockPair>& sub,
                 const std::vector<ct::BlockPair>& super) {
    return std::includes(super.begin(), super.end(), sub.begin(), sub.end(),
                         [](const ct::BlockPair& x, const ct::BlockPair& y) {
                             return x.a != y.a ? x.a < y.a : x.b < y.b;
                         });
}

} // namespace

// ---------------------------------------------------------------------------
// Spatial-hash backend: degenerate and adversarial scenes.

TEST(SpatialHash, EmptyAndSingleBlockSystems) {
    bl::BlockSystem empty;
    EXPECT_TRUE(ct::broad_phase_spatial_hash(empty, 0.1).empty());

    bl::BlockSystem one;
    one.add_block({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
    EXPECT_TRUE(ct::broad_phase_spatial_hash(one, 0.1).empty());
}

TEST(SpatialHash, FixedFixedPairsSkipped) {
    bl::BlockSystem sys;
    sys.add_block({{0, 0}, {1, 0}, {1, 1}, {0, 1}}, 0, /*fixed=*/true);
    sys.add_block({{0.5, 0.5}, {1.5, 0.5}, {1.5, 1.5}, {0.5, 1.5}}, 0, /*fixed=*/true);
    EXPECT_TRUE(ct::broad_phase_spatial_hash(sys, 0.1).empty());
    // One mobile partner is enough to re-admit the pair.
    sys.blocks[1].fixed = false;
    EXPECT_EQ(ct::broad_phase_spatial_hash(sys, 0.1).size(), 1u);
}

TEST(SpatialHash, AllBlocksInOneCell) {
    // A cell far larger than the whole cluster degrades the grid to a single
    // bucket — the backend must degrade to all-pairs, not lose candidates.
    bl::BlockSystem sys = models::make_column(8, 0.01);
    const double rho = 0.05;
    const auto ref = ct::broad_phase_triangular(sys, rho);
    const auto hashed = ct::broad_phase_spatial_hash(sys, rho, /*cell_size=*/1e6);
    EXPECT_EQ(ref, hashed);
}

TEST(SpatialHash, BlockSpanningManyCells) {
    // A tiny cell size makes the floor slab of the column span thousands of
    // cells; every pair must still be reported exactly once.
    bl::BlockSystem sys = models::make_column(8, 0.01);
    const double rho = 0.05;
    const auto ref = ct::broad_phase_triangular(sys, rho);
    const auto hashed = ct::broad_phase_spatial_hash(sys, rho, /*cell_size=*/0.02);
    EXPECT_EQ(ref, hashed);
}

TEST(SpatialHash, CellSizeNeverChangesTheResult) {
    bl::BlockSystem sys = models::make_falling_rocks_with_blocks(60);
    const double rho = 0.02 * sys.characteristic_length();
    const auto ref = ct::broad_phase_spatial_hash(sys, rho); // auto-sized
    for (double cell : {0.1, 0.5, 2.0, 10.0, 100.0})
        EXPECT_EQ(ref, ct::broad_phase_spatial_hash(sys, rho, cell)) << "cell=" << cell;
}

// ---------------------------------------------------------------------------
// Backend equivalence: hash == triangular == balanced on every zoo scene.

TEST(BroadPhaseBackends, CandidateSetsAgreeAcrossModelZoo) {
    const std::map<std::string, bl::BlockSystem> zoo = {
        {"slope", models::make_slope_with_blocks(300)},
        {"falling_rocks", models::make_falling_rocks_with_blocks(80)},
        {"tunnel", models::make_tunnel()},
        {"column", models::make_column(10)},
        {"block_on_floor", models::make_block_on_floor()},
        {"incline", models::make_incline(20.0, 30.0)},
        {"lattice", models::make_block_lattice_with_blocks(1500)},
    };
    for (const auto& [name, sys] : zoo) {
        const double rho = 0.02 * sys.characteristic_length();
        const auto tri = ct::broad_phase_triangular(sys, rho);
        EXPECT_EQ(tri, ct::broad_phase_balanced(sys, rho)) << name;
        EXPECT_EQ(tri, ct::broad_phase_spatial_hash(sys, rho)) << name;
    }
}

TEST(BroadPhaseBackends, RunBroadPhaseDispatch) {
    const bl::BlockSystem sys = models::make_falling_rocks_with_blocks(60);
    const double rho = 0.02 * sys.characteristic_length();
    const auto tri = ct::broad_phase_triangular(sys, rho);
    EXPECT_EQ(tri, ct::run_broad_phase(sys, rho, ct::BroadPhaseBackend::AllPairs, false));
    EXPECT_EQ(tri, ct::run_broad_phase(sys, rho, ct::BroadPhaseBackend::AllPairs, true));
    EXPECT_EQ(tri, ct::run_broad_phase(sys, rho, ct::BroadPhaseBackend::Hash, false));
    EXPECT_STREQ(ct::broad_phase_kernel_name(ct::BroadPhaseBackend::Hash, false),
                 "broad_phase_spatial_hash");
    EXPECT_STREQ(ct::broad_phase_kernel_name(ct::BroadPhaseBackend::AllPairs, true),
                 "broad_phase_balanced");
    EXPECT_STREQ(ct::broad_phase_kernel_name(ct::BroadPhaseBackend::AllPairs, false),
                 "broad_phase_triangular");
}

// ---------------------------------------------------------------------------
// SimConfig::broad_phase selection, including the Auto scale rule.

TEST(BroadPhaseBackends, AutoSelectsByScale) {
    bl::BlockSystem small = models::make_column(6);
    core::DdaEngine small_engine(small, {}, core::EngineMode::Serial);
    EXPECT_EQ(small_engine.broad_phase_backend(), ct::BroadPhaseBackend::AllPairs);

    bl::BlockSystem big = models::make_block_lattice_with_blocks(
        static_cast<int>(ct::kAutoHashMinBlocks) + 128);
    ASSERT_GE(big.size(), ct::kAutoHashMinBlocks);
    core::DdaEngine big_engine(big, {}, core::EngineMode::Serial);
    EXPECT_EQ(big_engine.broad_phase_backend(), ct::BroadPhaseBackend::Hash);
}

TEST(BroadPhaseBackends, ExplicitConfigOverridesAuto) {
    bl::BlockSystem sys = models::make_column(6);
    core::SimConfig cfg;
    cfg.broad_phase = core::BroadPhase::Hash;
    core::DdaEngine forced_hash(sys, cfg, core::EngineMode::Serial);
    EXPECT_EQ(forced_hash.broad_phase_backend(), ct::BroadPhaseBackend::Hash);

    bl::BlockSystem big = models::make_block_lattice_with_blocks(
        static_cast<int>(ct::kAutoHashMinBlocks) + 128);
    cfg.broad_phase = core::BroadPhase::AllPairs;
    core::DdaEngine forced_ap(big, cfg, core::EngineMode::Serial);
    EXPECT_EQ(forced_ap.broad_phase_backend(), ct::BroadPhaseBackend::AllPairs);
}

TEST(BroadPhaseBackends, ConfigValidation) {
    bl::BlockSystem sys = models::make_column(4);
    core::SimConfig cfg;
    cfg.broad_phase_cell = -1.0;
    EXPECT_THROW(core::DdaEngine(sys, cfg, core::EngineMode::Serial),
                 std::invalid_argument);
    cfg = {};
    cfg.pair_cache_margin = 0.0;
    EXPECT_THROW(core::DdaEngine(sys, cfg, core::EngineMode::Serial),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Persistent pair cache: counters, invalidation rules, superset contract.

TEST(PairCache, StaticSceneRebuildsOnce) {
    bl::BlockSystem sys = models::make_falling_rocks_with_blocks(60);
    const double rho = 0.02 * sys.characteristic_length();
    ct::BroadPhasePairCache cache;
    const auto first =
        cache.pairs(sys, rho, rho, ct::BroadPhaseBackend::Hash, false);
    EXPECT_FALSE(cache.warm());
    for (int i = 0; i < 5; ++i) {
        const auto& again =
            cache.pairs(sys, rho, rho, ct::BroadPhaseBackend::Hash, false);
        EXPECT_TRUE(cache.warm());
        EXPECT_EQ(first, again);
    }
    EXPECT_EQ(cache.stats().rebuilds, 1u);
    EXPECT_EQ(cache.stats().reuses, 5u);
}

TEST(PairCache, MotionWithinMarginStaysWarmAndSuperset) {
    bl::BlockSystem sys = models::make_column(8, 0.05);
    const double rho = 0.05;
    const double margin = 0.04;
    ct::BroadPhasePairCache cache;
    (void)cache.pairs(sys, rho, margin, ct::BroadPhaseBackend::AllPairs, false);

    translate_block(sys, 3, 0.5 * margin, -0.5 * margin);
    const auto& cached =
        cache.pairs(sys, rho, margin, ct::BroadPhaseBackend::AllPairs, false);
    EXPECT_TRUE(cache.warm());
    EXPECT_EQ(cache.stats().rebuilds, 1u);

    // Superset contract: the cached set contains every exact-rho pair at the
    // CURRENT positions, and the narrow phase produces identical contacts
    // from either set (spurious pairs emit nothing).
    const auto exact = ct::broad_phase_triangular(sys, rho);
    EXPECT_TRUE(pair_subset(exact, cached));
    const auto np_cached = ct::narrow_phase(sys, cached, rho);
    const auto np_exact = ct::narrow_phase(sys, exact, rho);
    ASSERT_EQ(np_cached.contacts.size(), np_exact.contacts.size());
    for (std::size_t i = 0; i < np_exact.contacts.size(); ++i)
        EXPECT_EQ(np_cached.contacts[i].key(), np_exact.contacts[i].key());
}

TEST(PairCache, CrossingTheMarginRebuilds) {
    bl::BlockSystem sys = models::make_column(8, 0.05);
    const double rho = 0.05;
    const double margin = 0.04;
    ct::BroadPhasePairCache cache;
    (void)cache.pairs(sys, rho, margin, ct::BroadPhaseBackend::AllPairs, false);

    translate_block(sys, 3, 0.0, 2.5 * margin);
    const auto& rebuilt =
        cache.pairs(sys, rho, margin, ct::BroadPhaseBackend::AllPairs, false);
    EXPECT_FALSE(cache.warm());
    EXPECT_EQ(cache.stats().rebuilds, 2u);
    // The rebuilt set reflects the new positions exactly (modulo margin
    // inflation): it must again be a superset of the exact set.
    EXPECT_TRUE(pair_subset(ct::broad_phase_triangular(sys, rho), rebuilt));
}

TEST(PairCache, ParameterChangesRebuild) {
    bl::BlockSystem sys = models::make_column(6, 0.05);
    ct::BroadPhasePairCache cache;
    (void)cache.pairs(sys, 0.05, 0.04, ct::BroadPhaseBackend::AllPairs, false);
    (void)cache.pairs(sys, 0.06, 0.04, ct::BroadPhaseBackend::AllPairs, false);
    EXPECT_EQ(cache.stats().rebuilds, 2u) << "rho change must rebuild";
    (void)cache.pairs(sys, 0.06, 0.03, ct::BroadPhaseBackend::AllPairs, false);
    EXPECT_EQ(cache.stats().rebuilds, 3u) << "margin change must rebuild";
    (void)cache.pairs(sys, 0.06, 0.03, ct::BroadPhaseBackend::Hash, false);
    EXPECT_EQ(cache.stats().rebuilds, 4u) << "backend change must rebuild";
    // Structural change: fixed flag flips invalidate the cached skip set.
    sys.blocks[2].fixed = true;
    (void)cache.pairs(sys, 0.06, 0.03, ct::BroadPhaseBackend::Hash, false);
    EXPECT_EQ(cache.stats().rebuilds, 5u) << "fixed-flag change must rebuild";
}

TEST(PairCache, ExplicitInvalidateForcesRebuild) {
    bl::BlockSystem sys = models::make_column(6, 0.05);
    ct::BroadPhasePairCache cache;
    (void)cache.pairs(sys, 0.05, 0.04, ct::BroadPhaseBackend::AllPairs, false);
    cache.invalidate();
    EXPECT_EQ(cache.stats().invalidations, 1u);
    (void)cache.pairs(sys, 0.05, 0.04, ct::BroadPhaseBackend::AllPairs, false);
    EXPECT_FALSE(cache.warm());
    EXPECT_EQ(cache.stats().rebuilds, 2u);
}

// ---------------------------------------------------------------------------
// Divergence-aware classification.

TEST(PairClasses, ClassifyIsAPurePermutation) {
    bl::BlockSystem sys = models::make_falling_rocks_with_blocks(80);
    const double rho = 0.02 * sys.characteristic_length();
    auto pairs = ct::broad_phase_triangular(sys, rho);
    ct::PairScheduleStats stats;
    const auto scheduled = ct::classify_pairs(sys, pairs, &stats);

    ASSERT_EQ(scheduled.size(), pairs.size());
    EXPECT_EQ(stats.pairs, pairs.size());
    auto key = [](const ct::BlockPair& p) { return std::make_pair(p.a, p.b); };
    std::vector<std::pair<int, int>> in, out;
    for (const auto& p : pairs) in.push_back(key(p));
    for (const auto& p : scheduled) out.push_back(key(p));
    std::sort(in.begin(), in.end());
    std::sort(out.begin(), out.end());
    EXPECT_EQ(in, out);
}

TEST(PairClasses, SortedScheduleNeverLessEfficient) {
    bl::BlockSystem sys = models::make_tunnel();
    const double rho = 0.02 * sys.characteristic_length();
    ct::PairScheduleStats stats;
    (void)ct::classify_pairs(sys, ct::broad_phase_triangular(sys, rho), &stats);
    EXPECT_GE(stats.efficiency_sorted(), stats.efficiency_unsorted());
    EXPECT_GE(stats.efficiency_sorted(), 0.0);
    EXPECT_LE(stats.efficiency_sorted(), 1.0);
    EXPECT_GT(stats.buckets, 0u);
    EXPECT_GT(stats.work, 0u);
}

TEST(PairClasses, NarrowPhaseOutputInvariantUnderClassification) {
    bl::BlockSystem sys = models::make_falling_rocks_with_blocks(60);
    const double rho = 0.02 * sys.characteristic_length();
    const auto pairs = ct::broad_phase_triangular(sys, rho);
    ct::PairScheduleStats stats;
    const auto scheduled = ct::classify_pairs(sys, pairs, &stats);

    const auto plain = ct::narrow_phase(sys, pairs, rho);
    const auto sorted = ct::narrow_phase(sys, scheduled, rho, nullptr, &stats);
    ASSERT_EQ(plain.contacts.size(), sorted.contacts.size());
    for (std::size_t i = 0; i < plain.contacts.size(); ++i) {
        EXPECT_EQ(plain.contacts[i].key(), sorted.contacts[i].key());
        EXPECT_EQ(plain.contacts[i].kind, sorted.contacts[i].kind);
    }
    EXPECT_EQ(plain.stats.ve + plain.stats.vv1 + plain.stats.vv2,
              sorted.stats.ve + sorted.stats.vv1 + sorted.stats.vv2);
}

// ---------------------------------------------------------------------------
// Engine-level bitwise identity: every pipeline configuration produces the
// same trajectory, in both engine modes.

namespace {
std::uint64_t trajectory_fp(core::BroadPhase backend, bool cache, bool classify,
                            core::EngineMode mode, int steps) {
    bl::BlockSystem sys = models::make_falling_rocks_with_blocks(40);
    core::SimConfig cfg;
    cfg.broad_phase = backend;
    cfg.broad_phase_cache = cache;
    cfg.classify_pairs = classify;
    core::DdaEngine engine(sys, cfg, mode);
    for (int s = 0; s < steps; ++s) engine.step();
    return bl::state_fingerprint(sys);
}
} // namespace

TEST(BroadPhasePipeline, TrajectoriesBitwiseIdenticalAcrossConfigs) {
    for (core::EngineMode mode : {core::EngineMode::Serial, core::EngineMode::Gpu}) {
        const int steps = 10;
        const std::uint64_t ref =
            trajectory_fp(core::BroadPhase::AllPairs, false, true, mode, steps);
        EXPECT_EQ(ref, trajectory_fp(core::BroadPhase::AllPairs, true, true, mode, steps));
        EXPECT_EQ(ref, trajectory_fp(core::BroadPhase::Hash, false, true, mode, steps));
        EXPECT_EQ(ref, trajectory_fp(core::BroadPhase::Hash, true, true, mode, steps));
        EXPECT_EQ(ref, trajectory_fp(core::BroadPhase::Hash, true, false, mode, steps));
    }
}

TEST(BroadPhasePipeline, EngineCacheWarmsOnRestingScene) {
    bl::BlockSystem sys = models::make_column(8, 0.0);
    core::DdaEngine engine(sys, {}, core::EngineMode::Serial);
    for (int s = 0; s < 8; ++s) engine.step();
    EXPECT_EQ(engine.pair_cache().stats().rebuilds, 1u);
    EXPECT_GE(engine.pair_cache().stats().reuses, 7u);
}

TEST(BroadPhasePipeline, GpuModeReportsClassifiedSchedule) {
    bl::BlockSystem sys = models::make_column(8, 0.0);
    core::DdaEngine engine(sys, {}, core::EngineMode::Gpu);
    engine.step();
    const auto& sched = engine.pair_schedule();
    EXPECT_GT(sched.pairs, 0u);
    EXPECT_GT(sched.efficiency_sorted(), 0.0);
    EXPECT_LE(sched.divergent_fraction_sorted(), 1.0);
}
