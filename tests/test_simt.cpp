// SIMT simulator: warp-accurate divergence/coalescing measurement and the
// analytic cost model.

#include <gtest/gtest.h>

#include <vector>

#include "simt/cost_model.hpp"
#include "simt/device_profile.hpp"
#include "simt/warp_executor.hpp"

namespace s = gdda::simt;

TEST(WarpExecutor, UniformBranchNotDivergent) {
    s::WarpExecutor ex;
    const auto st = ex.launch(64, [](s::Lane& lane) {
        lane.branch(0, true); // every lane agrees
    });
    EXPECT_EQ(st.branch_slots, 2u); // two warps
    EXPECT_EQ(st.divergent_slots, 0u);
}

TEST(WarpExecutor, AlternatingBranchFullyDivergent) {
    s::WarpExecutor ex;
    const auto st = ex.launch(64, [](s::Lane& lane) {
        lane.branch(0, lane.thread_id() % 2 == 0);
    });
    EXPECT_EQ(st.branch_slots, 2u);
    EXPECT_EQ(st.divergent_slots, 2u);
    EXPECT_DOUBLE_EQ(st.divergence_fraction(), 1.0);
}

TEST(WarpExecutor, WarpGranularBranchUniform) {
    // Data classified by warp: lanes within a warp agree -> no divergence.
    s::WarpExecutor ex;
    const auto st = ex.launch(128, [](s::Lane& lane) {
        lane.branch(0, (lane.thread_id() / 32) % 2 == 0);
    });
    EXPECT_EQ(st.branch_slots, 4u);
    EXPECT_EQ(st.divergent_slots, 0u);
}

TEST(WarpExecutor, PartialWarpParticipationCountsDivergent) {
    // A branch inside an if: lanes that skip it make the slot divergent.
    s::WarpExecutor ex;
    const auto st = ex.launch(32, [](s::Lane& lane) {
        if (lane.thread_id() < 16) lane.branch(1, true);
    });
    EXPECT_EQ(st.branch_slots, 1u);
    EXPECT_EQ(st.divergent_slots, 1u);
}

TEST(WarpExecutor, CoalescedLoadsFewTransactions) {
    // 32 lanes reading consecutive doubles = 256 bytes = 2 segments.
    std::vector<double> data(64);
    s::WarpExecutor ex;
    const auto st = ex.launch(32, [&](s::Lane& lane) {
        lane.load(0, &data[lane.thread_id()], sizeof(double));
    });
    EXPECT_EQ(st.mem_requests, 1u);
    EXPECT_LE(st.mem_transactions, 3u); // 2 + possible misalignment
}

TEST(WarpExecutor, StridedLoadsManyTransactions) {
    // Stride-16 doubles: every lane hits its own 128B segment.
    std::vector<double> data(32 * 16);
    s::WarpExecutor ex;
    const auto st = ex.launch(32, [&](s::Lane& lane) {
        lane.load(0, &data[lane.thread_id() * 16], sizeof(double));
    });
    EXPECT_EQ(st.mem_requests, 1u);
    EXPECT_EQ(st.mem_transactions, 32u);
    EXPECT_GT(st.transactions_per_request(), 10.0);
}

TEST(WarpExecutor, OpsAndSerializedSlots) {
    s::WarpExecutor ex;
    const auto st = ex.launch(32, [](s::Lane& lane) {
        lane.op(0, static_cast<std::uint32_t>(lane.thread_id() % 4));
    });
    // Sum 0+1+2+3 repeated 8 times = 48; worst lane does 3.
    EXPECT_EQ(st.ops, 48u);
    EXPECT_EQ(st.warp_op_slots, 3u);
}

TEST(WarpExecutor, DivergentBodiesSerializeOps) {
    // Two branch bodies at different sites: the warp pays both in turn.
    s::WarpExecutor ex;
    const auto st = ex.launch(32, [](s::Lane& lane) {
        if (lane.branch(0, lane.thread_id() % 2 == 0)) {
            lane.op(100, 10);
        } else {
            lane.op(101, 7);
        }
    });
    EXPECT_EQ(st.warp_op_slots, 17u); // 10 + 7 serialized
    EXPECT_EQ(st.ops, 16u * 10 + 16u * 7);
}

TEST(WarpExecutor, MultipleOccurrencesPerSite) {
    // The same branch site evaluated twice per lane yields two slots/warp.
    s::WarpExecutor ex;
    const auto st = ex.launch(32, [](s::Lane& lane) {
        lane.branch(0, true);
        lane.branch(0, lane.thread_id() < 5);
    });
    EXPECT_EQ(st.branch_slots, 2u);
    EXPECT_EQ(st.divergent_slots, 1u);
}

TEST(CostModel, BandwidthBound) {
    s::KernelCost kc;
    kc.name = "stream";
    kc.bytes_coalesced = 288e6 * 0.70; // exactly 1 ms of K40 sustained BW
    kc.launches = 0;
    const double ms = s::modeled_ms(kc, s::tesla_k40());
    EXPECT_NEAR(ms, 1.0, 1e-9);
}

TEST(CostModel, LatencyBoundTriangularSolve) {
    // Depth dominates when a kernel is a long dependency chain.
    s::KernelCost kc;
    kc.depth = 1000;
    kc.bytes_coalesced = 1e3;
    kc.launches = 0;
    const double ms = s::modeled_ms(kc, s::tesla_k40());
    EXPECT_NEAR(ms, 1000 * 0.5e-3, 1e-9);
}

TEST(CostModel, DivergencePenaltyScalesTime) {
    s::KernelCost base;
    base.flops = 1e6;
    base.launches = 0;
    s::KernelCost divergent = base;
    divergent.branch_slots = 100;
    divergent.divergent_slots = 100;
    const double t0 = s::modeled_ms(base, s::tesla_k20());
    const double t1 = s::modeled_ms(divergent, s::tesla_k20());
    EXPECT_NEAR(t1 / t0, 2.0, 1e-12); // full divergence doubles the time
}

TEST(CostModel, K40FasterThanK20) {
    s::KernelCost kc;
    kc.flops = 1e7;
    kc.bytes_coalesced = 1e7;
    EXPECT_LT(s::modeled_ms(kc, s::tesla_k40()), s::modeled_ms(kc, s::tesla_k20()));
}

TEST(CostModel, LedgerAccumulates) {
    s::CostLedger ledger;
    s::KernelCost kc;
    kc.flops = 10;
    kc.launches = 1;
    ledger.add(kc);
    ledger.add(kc);
    EXPECT_DOUBLE_EQ(ledger.total().flops, 20.0);
    EXPECT_EQ(ledger.total().launches, 2);
    ledger.clear();
    EXPECT_DOUBLE_EQ(ledger.total().flops, 0.0);
    EXPECT_EQ(ledger.total().launches, 0);
}

TEST(CostModel, TextureFasterThanRandomSlowerThanCoalesced) {
    s::KernelCost c;
    c.bytes_coalesced = 1e6;
    c.launches = 0;
    s::KernelCost t;
    t.bytes_texture = 1e6;
    t.launches = 0;
    s::KernelCost r;
    r.bytes_random = 1e6;
    r.launches = 0;
    const auto& dev = s::tesla_k40();
    EXPECT_LT(s::modeled_ms(c, dev), s::modeled_ms(t, dev));
    EXPECT_LT(s::modeled_ms(t, dev), s::modeled_ms(r, dev));
}
