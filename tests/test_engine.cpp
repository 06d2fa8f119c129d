// Engine tests: single-step mechanics, time-step control, module timing,
// serial-vs-GPU pipeline trajectory equivalence, and the exact-rotation
// option.

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/interpenetration.hpp"
#include "core/simulation.hpp"
#include "models/stacks.hpp"

namespace co = gdda::core;
namespace bl = gdda::block;

namespace {
co::SimConfig quick_config() {
    co::SimConfig cfg;
    cfg.dt = 1e-3;
    cfg.dt_max = 1e-3;
    cfg.velocity_carry = 1.0;
    return cfg;
}
} // namespace

TEST(Engine, FreeFallAcceleratesDownward) {
    bl::BlockSystem sys = gdda::models::make_free_block(100.0);
    co::DdaEngine eng(sys, quick_config(), co::EngineMode::Serial);
    const double y0 = sys.blocks[0].centroid.y;
    for (int i = 0; i < 50; ++i) eng.step();
    const double t = eng.time();
    const double drop = y0 - sys.blocks[0].centroid.y;
    EXPECT_NEAR(drop, 0.5 * 9.81 * t * t, 0.02 * drop + 1e-6);
    // Velocity matches g*t.
    EXPECT_NEAR(-sys.blocks[0].velocity[1], 9.81 * t, 0.05 * 9.81 * t);
}

TEST(Engine, StaticModeDampsMotion) {
    bl::BlockSystem sys = gdda::models::make_free_block(100.0);
    co::SimConfig cfg = quick_config();
    cfg.velocity_carry = 0.0;
    co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
    for (int i = 0; i < 10; ++i) eng.step();
    // Without velocity carry each step only moves ~0.5*g*dt^2.
    EXPECT_DOUBLE_EQ(sys.blocks[0].velocity[1], 0.0);
    const double per_step = 0.5 * 9.81 * cfg.dt * cfg.dt;
    EXPECT_NEAR(100.5 - sys.blocks[0].centroid.y, 10 * per_step, 2.0 * per_step);
}

TEST(Engine, BlockLandsOnFloor) {
    // Static mode advances ~g*dt^2/2 per step, so use a small initial gap.
    bl::BlockSystem sys = gdda::models::make_block_on_floor(0.0005);
    co::SimConfig cfg = quick_config();
    cfg.velocity_carry = 0.0; // static settling
    co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
    for (int i = 0; i < 300; ++i) eng.step();
    // Block bottom must rest at the floor surface (y = 0) within penalty
    // penetration tolerance.
    const double bottom =
        std::min(sys.blocks[1].verts[0].y, sys.blocks[1].verts[1].y);
    EXPECT_NEAR(bottom, 0.0, 1e-3);
    EXPECT_LT(eng.last_max_velocity(), 1e-2);
    // Contacts exist and are closed.
    const auto& contacts = eng.contacts();
    EXPECT_FALSE(contacts.empty());
    bool any_closed = false;
    for (const auto& c : contacts)
        if (c.state != gdda::contact::ContactState::Open) any_closed = true;
    EXPECT_TRUE(any_closed);
    // No deep interpenetration.
    const auto rep = co::audit_interpenetration(sys);
    EXPECT_LT(rep.max_depth, 1e-3);
}

TEST(Engine, FixedBlockDoesNotMove) {
    bl::BlockSystem sys = gdda::models::make_block_on_floor(0.01);
    const auto floor0 = sys.blocks[0].verts;
    co::DdaEngine eng(sys, quick_config(), co::EngineMode::Serial);
    for (int i = 0; i < 50; ++i) eng.step();
    for (std::size_t v = 0; v < floor0.size(); ++v) {
        EXPECT_NEAR(sys.blocks[0].verts[v].x, floor0[v].x, 1e-9);
        EXPECT_NEAR(sys.blocks[0].verts[v].y, floor0[v].y, 1e-9);
    }
}

TEST(Engine, TimersCoverAllModules) {
    bl::BlockSystem sys = gdda::models::make_column(3);
    co::DdaEngine eng(sys, quick_config(), co::EngineMode::Serial);
    for (int i = 0; i < 5; ++i) eng.step();
    const co::ModuleTimers& t = eng.timers();
    EXPECT_GT(t.seconds(co::Module::ContactDetection), 0.0);
    EXPECT_GT(t.seconds(co::Module::DiagBuild), 0.0);
    EXPECT_GT(t.seconds(co::Module::NondiagBuild), 0.0);
    EXPECT_GT(t.seconds(co::Module::EquationSolving), 0.0);
    EXPECT_GT(t.seconds(co::Module::InterpenetrationCheck), 0.0);
    EXPECT_GT(t.seconds(co::Module::DataUpdate), 0.0);
    EXPECT_GT(t.total(), 0.0);
}

TEST(Engine, GpuModeFillsLedgers) {
    bl::BlockSystem sys = gdda::models::make_column(3);
    co::DdaEngine eng(sys, quick_config(), co::EngineMode::Gpu);
    for (int i = 0; i < 5; ++i) eng.step();
    const co::ModuleLedgers& l = eng.ledgers();
    const auto& dev = gdda::simt::tesla_k40();
    for (int m = 0; m < co::kModuleCount; ++m) {
        EXPECT_GT(l.modeled_ms(static_cast<co::Module>(m), dev), 0.0)
            << co::kModuleNames[m];
    }
    EXPECT_GT(l.total_modeled_ms(dev), 0.0);
    // K20 must model slower than K40.
    EXPECT_GT(l.total_modeled_ms(gdda::simt::tesla_k20()), l.total_modeled_ms(dev));
}

TEST(Engine, SerialAndGpuTrajectoriesMatch) {
    bl::BlockSystem sa = gdda::models::make_column(3);
    bl::BlockSystem sg = gdda::models::make_column(3);
    co::DdaEngine ea(sa, quick_config(), co::EngineMode::Serial);
    co::DdaEngine eg(sg, quick_config(), co::EngineMode::Gpu);
    for (int i = 0; i < 30; ++i) {
        ea.step();
        eg.step();
    }
    for (std::size_t b = 0; b < sa.blocks.size(); ++b) {
        for (std::size_t v = 0; v < sa.blocks[b].verts.size(); ++v) {
            EXPECT_NEAR(sa.blocks[b].verts[v].x, sg.blocks[b].verts[v].x, 1e-9);
            EXPECT_NEAR(sa.blocks[b].verts[v].y, sg.blocks[b].verts[v].y, 1e-9);
        }
    }
}

TEST(Engine, StepStatsPopulated) {
    bl::BlockSystem sys = gdda::models::make_block_on_floor(0.005);
    co::DdaEngine eng(sys, quick_config(), co::EngineMode::Serial);
    co::StepStats st{};
    for (int i = 0; i < 30; ++i) st = eng.step();
    EXPECT_GT(st.contacts, 0u);
    EXPECT_GT(st.open_close_iters, 0);
    EXPECT_GT(st.dt_used, 0.0);
    EXPECT_TRUE(st.converged);
}

TEST(Engine, PenetrationRejectionJudgesEachAttemptAlone) {
    // A unit block (mobile size 1) 0.01 above a fixed floor, falling at
    // 130 m/s. At dt = 1e-3 its free flight closes the floor contacts 0.12
    // deep, over the 0.05 rejection depth, so the first attempt is
    // rejected. At dt = 3e-4 they close 0.029 deep, which is accepted. A
    // depth left over from the rejected attempt must not reject that one.
    bl::BlockSystem sys = gdda::models::make_block_on_floor(0.01);
    sys.blocks[1].velocity[1] = -130.0;
    co::SimConfig cfg = quick_config();
    cfg.max_disp_ratio = 0.1; // admit the 0.13 free-flight displacement
    co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
    const co::StepStats st = eng.step();
    EXPECT_TRUE(st.converged);
    EXPECT_EQ(st.retries, 1);
    EXPECT_DOUBLE_EQ(st.dt_used, cfg.dt * cfg.dt_shrink);
    EXPECT_GT(st.active_contacts, 0u);
    EXPECT_LT(st.max_penetration, 0.05);
}

TEST(Simulation, RunUntilStatic) {
    co::SimConfig cfg = quick_config();
    cfg.velocity_carry = 0.0;
    co::DdaSimulation sim(gdda::models::make_block_on_floor(0.0005), cfg,
                          co::EngineMode::Serial);
    // Threshold between free fall (g*dt/2 ~ 4.9e-3) and the micrometer-scale
    // penalty-spring jitter of the resting state (~2.2e-3).
    int callbacks = 0;
    const co::RunSummary s =
        sim.run(500, /*until_static=*/true, /*static_velocity=*/3e-3,
                [&](int, const co::StepStats&) { ++callbacks; });
    EXPECT_TRUE(s.reached_static);
    EXPECT_EQ(callbacks, s.steps_run);
    EXPECT_LT(s.steps_run, 500);
}

TEST(Engine, InclineFrictionHolds) {
    // 20-degree incline with 35-degree friction: the block must stick.
    bl::BlockSystem sys = gdda::models::make_incline(20.0, 35.0);
    co::SimConfig cfg = quick_config();
    cfg.velocity_carry = 0.0;
    co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
    const gdda::geom::Vec2 c0 = sys.blocks[1].centroid;
    for (int i = 0; i < 300; ++i) eng.step();
    EXPECT_NEAR(gdda::geom::distance(sys.blocks[1].centroid, c0), 0.0, 0.02);
}

TEST(Engine, InclineSlidesWithoutFriction) {
    // 30-degree incline with 5-degree friction: the block must slide.
    bl::BlockSystem sys = gdda::models::make_incline(30.0, 5.0);
    co::SimConfig cfg = quick_config();
    co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
    const gdda::geom::Vec2 c0 = sys.blocks[1].centroid;
    for (int i = 0; i < 300; ++i) eng.step();
    const gdda::geom::Vec2 moved = sys.blocks[1].centroid - c0;
    EXPECT_GT(moved.norm(), 0.05);
    EXPECT_LT(moved.y, 0.0); // downhill
}

TEST(Engine, TwoFixedPointsPinBlock) {
    // A free block anchored at two corners hangs in place under gravity.
    bl::BlockSystem sys = gdda::models::make_free_block(10.0);
    sys.fixed_points.push_back(
        {.block = 0, .point = {-0.5, 11.0}, .anchor = {-0.5, 11.0}});
    sys.fixed_points.push_back(
        {.block = 0, .point = {0.5, 11.0}, .anchor = {0.5, 11.0}});
    co::DdaEngine eng(sys, quick_config(), co::EngineMode::Serial);
    for (int i = 0; i < 200; ++i) eng.step();
    // Sag is bounded by weight / (2 * fixed_penalty) -- micrometers here.
    EXPECT_NEAR(sys.blocks[0].centroid.y, 10.5, 5e-4);
    EXPECT_NEAR(sys.blocks[0].centroid.x, 0.0, 1e-6);
}

TEST(Engine, SingleFixedPointActsAsPivot) {
    // Anchored at one top corner, the block swings: the anchored material
    // point stays at the anchor while the centroid moves sideways/down.
    bl::BlockSystem sys = gdda::models::make_free_block(10.0);
    const gdda::geom::Vec2 anchor{-0.5, 11.0};
    sys.fixed_points.push_back({.block = 0, .point = anchor, .anchor = anchor});
    co::SimConfig cfg = quick_config();
    cfg.velocity_carry = 1.0;
    co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
    for (int i = 0; i < 400; ++i) eng.step();
    // The tracked material point never leaves the anchor...
    EXPECT_NEAR(gdda::geom::distance(sys.fixed_points[0].point, anchor), 0.0, 5e-3);
    // ...while the block rotated about it (centroid displaced).
    EXPECT_GT(gdda::geom::distance(sys.blocks[0].centroid, {0.0, 10.5}), 0.05);
}

TEST(Engine, PointLoadPushesBlock) {
    bl::BlockSystem sys = gdda::models::make_block_on_floor(0.0005);
    sys.gravity = {0.0, -9.81};
    // Horizontal force below the friction limit: the block must stay.
    const double weight = 2500.0 * 9.81;
    sys.point_loads.push_back(
        {.block = 1, .point = {0.0, 0.5}, .force = {0.2 * weight, 0.0}});
    co::SimConfig cfg = quick_config();
    cfg.velocity_carry = 0.0;
    co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
    for (int i = 0; i < 300; ++i) eng.step();
    EXPECT_NEAR(sys.blocks[1].centroid.x, 0.0, 0.01); // tan(30) = 0.577 > 0.2

    // Above the friction limit it slides in the force direction.
    bl::BlockSystem sys2 = gdda::models::make_block_on_floor(0.0005);
    sys2.point_loads.push_back(
        {.block = 1, .point = {0.0, 0.5}, .force = {1.2 * weight, 0.0}});
    co::SimConfig cfg2 = quick_config();
    cfg2.velocity_carry = 1.0;
    co::DdaEngine eng2(sys2, cfg2, co::EngineMode::Serial);
    for (int i = 0; i < 300; ++i) eng2.step();
    EXPECT_GT(sys2.blocks[1].centroid.x, 0.05);
}

TEST(ExactRotation, PreservesAreaUnderSpin) {
    // First-order rotation grows the area by (1 + r^2) per application; the
    // exact operator keeps it constant.
    const double r = 0.05;
    bl::Block first;
    first.verts = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
    first.update_geometry();
    bl::Block exact = first;
    bl::Material mat;
    gdda::sparse::Vec6 d;
    d[2] = r;
    for (int i = 0; i < 40; ++i) {
        first.apply_increment(d, mat, /*exact_rotation=*/false);
        exact.apply_increment(d, mat, /*exact_rotation=*/true);
    }
    EXPECT_NEAR(exact.area, 1.0, 1e-9);
    EXPECT_GT(first.area, 1.05); // ~ (1+r^2)^40
}

TEST(ExactRotation, MatchesFirstOrderForSmallIncrements) {
    bl::Block a;
    a.verts = {{2, 3}, {3, 3}, {3, 4}, {2, 4}};
    a.update_geometry();
    bl::Block b = a;
    bl::Material mat;
    gdda::sparse::Vec6 d{{1e-4, -2e-4, 1e-5, 2e-6, -1e-6, 3e-6}};
    a.apply_increment(d, mat, false);
    b.apply_increment(d, mat, true);
    for (std::size_t v = 0; v < a.verts.size(); ++v) {
        EXPECT_NEAR(a.verts[v].x, b.verts[v].x, 1e-9);
        EXPECT_NEAR(a.verts[v].y, b.verts[v].y, 1e-9);
    }
}

TEST(ExactRotation, EngineOptionKeepsPhysics) {
    auto run = [](bool exact) {
        bl::BlockSystem sys = gdda::models::make_block_on_floor(0.05);
        co::SimConfig cfg = quick_config();
        cfg.exact_rotation = exact;
        co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
        for (int i = 0; i < 400; ++i) eng.step();
        return sys.blocks[1].centroid;
    };
    const auto c_first = run(false);
    const auto c_exact = run(true);
    EXPECT_NEAR(gdda::geom::distance(c_first, c_exact), 0.0, 1e-3);
}
