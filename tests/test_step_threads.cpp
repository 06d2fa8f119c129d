// Whole-step thread-count invariance: the PR-10 contract that EVERY stage
// of the pre-solve pipeline — spatial-hash build, candidate generation,
// narrow phase, pair-cache revalidation, contact transfer, and both
// assembly refill paths — produces bitwise-identical results for ANY step
// team size (1, 2, 4, 8), in both engine modes, warm or cold cache paths.
// Also pins the candidate-sequence order-identity contract of the parallel
// hash build and the step_threads validation rule.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "assembly/assembler.hpp"
#include "assembly/gpu_assembler.hpp"
#include "contact/broad_phase.hpp"
#include "contact/narrow_phase.hpp"
#include "contact/spatial_hash.hpp"
#include "core/engine.hpp"
#include "models/falling_rocks.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"
#include "models/tunnel.hpp"
#include "par/thread_budget.hpp"

using namespace gdda;

namespace {

const int kTeams[] = {1, 2, 4, 8};

block::BlockSystem zoo_slope() { return models::make_slope_with_blocks(40); }
block::BlockSystem zoo_rocks() { return models::make_falling_rocks_with_blocks(16); }
block::BlockSystem zoo_column() { return models::make_column(6); }
block::BlockSystem zoo_tunnel() { return models::make_tunnel(); }

struct ZooEntry {
    const char* name;
    block::BlockSystem (*make)();
};
const ZooEntry kZoo[] = {
    {"slope", zoo_slope},
    {"rocks", zoo_rocks},
    {"column", zoo_column},
    {"tunnel", zoo_tunnel},
};

bool same_mat_bits(const std::vector<sparse::Mat6>& a, const std::vector<sparse::Mat6>& b) {
    return a.size() == b.size() &&
           (a.empty() || !std::memcmp(a.data(), b.data(), a.size() * sizeof(sparse::Mat6)));
}
bool same_vec_bits(const sparse::BlockVec& a, const sparse::BlockVec& b) {
    return a.size() == b.size() &&
           (a.empty() || !std::memcmp(a.data(), b.data(), a.size() * sizeof(sparse::Vec6)));
}

} // namespace

// ---------------------------------------------------------------------------
// Parallel spatial-hash build: order identity, not just set identity

TEST(SpatialHashOrder, RawCandidateSequenceIdenticalForAnyTeam) {
    const block::BlockSystem sys = models::make_slope_with_blocks(150);
    const double rho = 0.02 * sys.characteristic_length();

    std::vector<contact::BlockPair> base_raw;
    std::vector<contact::BlockPair> base_pairs;
    {
        par::ScopedTeamSize one(1);
        base_pairs = contact::broad_phase_spatial_hash(sys, rho, 0.0, nullptr, nullptr,
                                                       &base_raw);
    }
    ASSERT_FALSE(base_raw.empty());
    for (int team : kTeams) {
        par::ScopedTeamSize scope(team);
        std::vector<contact::BlockPair> raw;
        const auto pairs =
            contact::broad_phase_spatial_hash(sys, rho, 0.0, nullptr, nullptr, &raw);
        // The PRE-sort emission sequence must be element-for-element the
        // serial one — the chunked emission concatenates in chunk order, so
        // the sequence is a pure function of the scene, never the team.
        EXPECT_EQ(base_raw, raw) << "raw candidate sequence changed at team " << team;
        EXPECT_EQ(base_pairs, pairs) << "final candidate set changed at team " << team;
    }
}

TEST(SpatialHashOrder, HashMatchesTriangularSet) {
    const block::BlockSystem sys = models::make_slope_with_blocks(150);
    const double rho = 0.02 * sys.characteristic_length();
    const auto tri = contact::broad_phase_triangular(sys, rho);
    for (int team : kTeams) {
        par::ScopedTeamSize scope(team);
        EXPECT_EQ(tri, contact::broad_phase_spatial_hash(sys, rho))
            << "hash-vs-triangular set mismatch at team " << team;
    }
}

TEST(SpatialHashOrder, StatsInvariantAcrossTeams) {
    const block::BlockSystem sys = models::make_slope_with_blocks(120);
    const double rho = 0.02 * sys.characteristic_length();
    contact::SpatialHashStats base;
    {
        par::ScopedTeamSize one(1);
        contact::broad_phase_spatial_hash(sys, rho, 0.0, &base);
    }
    for (int team : kTeams) {
        par::ScopedTeamSize scope(team);
        contact::SpatialHashStats s;
        contact::broad_phase_spatial_hash(sys, rho, 0.0, &s);
        EXPECT_EQ(base.cells_touched, s.cells_touched) << "team " << team;
        EXPECT_EQ(base.candidate_pairs, s.candidate_pairs) << "team " << team;
    }
}

// ---------------------------------------------------------------------------
// Assembly refill: both plans bit-identical to the serial reference at any
// team size

TEST(StepThreads, AssemblyBitwiseInvariantAcrossTeams) {
    block::BlockSystem sys = models::make_slope_with_blocks(80);
    const double rho = 0.02 * sys.characteristic_length();
    const auto pairs = contact::broad_phase_triangular(sys, rho);
    auto np = contact::narrow_phase(sys, pairs, rho);
    for (auto& c : np.contacts) c.state = contact::ContactState::Lock;
    const auto geo = contact::init_all_contacts(sys, np.contacts);
    ASSERT_FALSE(np.contacts.empty());

    assembly::StepParams sp;
    sp.dt = 1e-3;
    sp.contact.penalty = 10.0 * sys.max_young();
    sp.contact.shear_penalty = sp.contact.penalty;
    sp.fixed_penalty = sp.contact.penalty;
    const auto att = assembly::index_attachments(sys);
    const int n = static_cast<int>(sys.size());

    assembly::AssembledSystem ref;
    {
        par::ScopedTeamSize one(1);
        ref = assembly::assemble_serial(sys, att, np.contacts, geo, sp);
    }

    for (int team : kTeams) {
        par::ScopedTeamSize scope(team);
        const std::string tag = "team " + std::to_string(team);

        const assembly::AssemblyPlan plan(n, np.contacts);
        assembly::AssembledSystem serial;
        plan.assemble_into(serial, sys, att, np.contacts, geo, sp);
        EXPECT_TRUE(same_mat_bits(ref.k.diag, serial.k.diag)) << "plan diag, " << tag;
        EXPECT_TRUE(same_mat_bits(ref.k.vals, serial.k.vals)) << "plan vals, " << tag;
        EXPECT_TRUE(same_vec_bits(ref.f, serial.f)) << "plan f, " << tag;

        assembly::GpuAssemblyPlan gplan;
        gplan.build(n, np.contacts);
        assembly::AssembledSystem gpu;
        gplan.assemble_into(gpu, sys, att, np.contacts, geo, sp);
        EXPECT_TRUE(same_mat_bits(ref.k.diag, gpu.k.diag)) << "gpu diag, " << tag;
        EXPECT_TRUE(same_mat_bits(ref.k.vals, gpu.k.vals)) << "gpu vals, " << tag;
        EXPECT_TRUE(same_vec_bits(ref.f, gpu.f)) << "gpu f, " << tag;

        // Warm refill (diag cache populated by the first pass) must stay
        // bit-identical too — the cached path is the common one.
        assembly::DiagPhysicsCache cache;
        assembly::AssembledSystem cold, warm;
        gplan.assemble_into(cold, sys, att, np.contacts, geo, sp, nullptr, nullptr, &cache);
        gplan.assemble_into(warm, sys, att, np.contacts, geo, sp, nullptr, nullptr, &cache,
                            /*warm=*/true);
        EXPECT_TRUE(same_mat_bits(cold.k.diag, warm.k.diag)) << "warm diag, " << tag;
        EXPECT_TRUE(same_mat_bits(ref.k.diag, warm.k.diag)) << "warm-vs-ref diag, " << tag;
        EXPECT_TRUE(same_mat_bits(ref.k.vals, warm.k.vals)) << "warm-vs-ref vals, " << tag;
        EXPECT_TRUE(same_vec_bits(ref.f, warm.f)) << "warm-vs-ref f, " << tag;
    }
}

// ---------------------------------------------------------------------------
// Whole-engine trajectories: the model zoo x both modes x the documented
// bitwise-equivalent configuration variants, at every team size

TEST(StepThreads, FingerprintInvariantAcrossTeamsModesAndConfigs) {
    constexpr int kSteps = 5;
    struct Variant {
        const char* name;
        void (*tweak)(core::SimConfig&);
    };
    const Variant variants[] = {
        {"cache_off", [](core::SimConfig& c) { c.broad_phase_cache = false; }},
        {"classify_off", [](core::SimConfig& c) { c.classify_pairs = false; }},
        {"hash", [](core::SimConfig& c) { c.broad_phase = core::BroadPhase::Hash; }},
        {"allpairs", [](core::SimConfig& c) { c.broad_phase = core::BroadPhase::AllPairs; }},
    };

    for (const ZooEntry& zoo : kZoo) {
        for (core::EngineMode mode : {core::EngineMode::Serial, core::EngineMode::Gpu}) {
            const std::string where = std::string(zoo.name) + "/" +
                                      (mode == core::EngineMode::Gpu ? "gpu" : "serial");
            std::uint64_t baseline = 0;
            {
                block::BlockSystem sys = zoo.make();
                core::SimConfig cfg;
                cfg.step_threads = 1;
                core::DdaEngine engine(sys, cfg, mode);
                for (int s = 0; s < kSteps; ++s) engine.step();
                baseline = block::state_fingerprint(sys);
            }
            for (int threads : kTeams) {
                block::BlockSystem sys = zoo.make();
                core::SimConfig cfg;
                cfg.step_threads = threads;
                core::DdaEngine engine(sys, cfg, mode);
                for (int s = 0; s < kSteps; ++s) engine.step();
                EXPECT_EQ(baseline, block::state_fingerprint(sys))
                    << where << " step_threads " << threads;
            }
            // Variants run with a 4-wide team: every one is documented
            // bitwise-equivalent to the default path, so the fingerprint
            // must not move.
            for (const Variant& v : variants) {
                block::BlockSystem sys = zoo.make();
                core::SimConfig cfg;
                cfg.step_threads = 4;
                v.tweak(cfg);
                core::DdaEngine engine(sys, cfg, mode);
                for (int s = 0; s < kSteps; ++s) engine.step();
                EXPECT_EQ(baseline, block::state_fingerprint(sys))
                    << where << " variant " << v.name;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Config plumbing: the step_threads knob

TEST(StepThreads, NegativeStepThreadsRejected) {
    core::SimConfig cfg;
    cfg.step_threads = -1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.step_threads = 0;
    EXPECT_NO_THROW(cfg.validate());
}
