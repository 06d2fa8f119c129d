#pragma once
// Analytic kernel-cost accounting. Each GPU-pipeline kernel records how much
// arithmetic it performs, how many bytes it moves (split into coalesced and
// random traffic), its dependency depth (longest chain of dependent memory
// round-trips, e.g. the level count of a triangular solve), and its branch
// statistics. The cost model converts a trace into a modeled execution time
// on a DeviceProfile via a roofline-with-latency formula:
//
//   t = launch + max(flops / F_sustained,
//                    bytes_coalesced / B_sustained + bytes_random / B_random,
//                    depth * latency)
//       * (1 + divergence_penalty * divergent_fraction)
//
// This captures exactly the effects the paper optimizes: coalescing (HSBCSR
// slices), divergence (data classification, branch restructuring), and
// serialization (ILU triangular solves).

#include <string>
#include <vector>

#include "simt/device_profile.hpp"
#include "simt/trace_hook.hpp"

namespace gdda::simt {

struct KernelCost {
    std::string name;
    double flops = 0.0;          ///< double-precision operations
    double bytes_coalesced = 0.0;///< global-memory traffic with coalesced access
    double bytes_texture = 0.0;  ///< gathers served through the texture cache
    double bytes_random = 0.0;   ///< global-memory traffic with scattered access
    double depth = 0.0;          ///< dependent memory round-trips (critical path)
    double branch_slots = 0.0;   ///< warp-branch evaluations
    double divergent_slots = 0.0;///< of which divergent (lanes disagree)
    int launches = 1;            ///< kernel launches represented

    KernelCost& operator+=(const KernelCost& o);
    [[nodiscard]] double divergent_fraction() const {
        return branch_slots > 0.0 ? divergent_slots / branch_slots : 0.0;
    }

    /// The identity of operator+= (launches = 0). A default-constructed
    /// KernelCost describes ONE launch; use this for accumulation sinks so
    /// ledger launch counts equal the sum of the recorded launches exactly.
    [[nodiscard]] static KernelCost accumulator() {
        return KernelCost{.name = {}, .launches = 0};
    }
};

/// Modeled wall time in milliseconds for one trace on one device.
double modeled_ms(const KernelCost& cost, const DeviceProfile& dev);

/// Decomposition of the modeled time: the throughput-bound roofline work,
/// the divergence surcharge on it, and the fixed launch overhead. Exposed so
/// tracers can derive an occupancy proxy (work share of the total) without
/// re-deriving the formula.
struct ModeledTimeParts {
    double work_ms = 0.0;       ///< max(flop, memory, latency-chain) term
    double divergence_ms = 0.0; ///< extra serialization from divergent warps
    double launch_ms = 0.0;     ///< per-launch fixed cost
    [[nodiscard]] double total_ms() const { return work_ms + divergence_ms + launch_ms; }
};
ModeledTimeParts modeled_parts(const KernelCost& cost, const DeviceProfile& dev);

/// The single accumulation point for per-launch costs: adds `kc` to the
/// caller's aggregate (when given) and forwards the individual named launch
/// to the installed KernelTraceHook, so span tracers see every launch while
/// ledger totals stay bit-identical to the pre-hook behavior. `module` is an
/// optional core::Module row hint for producers that know their pipeline
/// module better than the tracer's span stack does.
inline void record_kernel(KernelCost* sink, const KernelCost& kc, int module = -1) {
    if (sink) *sink += kc;
    if (KernelTraceHook* hook = kernel_trace_hook()) hook->on_kernel(kc, module);
}

/// Record a structural kernel the warm solve path skipped because its output
/// was cached (sort permutations, segment maps, HSBCSR index arrays,
/// preconditioner symbolic analysis). The event carries zero cost and zero
/// launches — ledger totals are unchanged — but it is forwarded to the trace
/// hook with a "[cached]" suffix so gdda-prof shows warm passes explicitly
/// skipping work instead of silently omitting it. Callers must only emit
/// these when a GPU-mode sink exists: serial traces model no kernels.
inline void record_skipped_kernel(KernelCost* sink, const std::string& name, int module = -1) {
    KernelCost kc = KernelCost::accumulator();
    kc.name = name + " [cached]";
    record_kernel(sink, kc, module);
}

/// Accumulator for a pipeline module (e.g. "contact detection") across a run.
class CostLedger {
public:
    void add(const KernelCost& cost);
    void clear() { total_ = KernelCost{.name = {}, .launches = 0}; }
    [[nodiscard]] const KernelCost& total() const { return total_; }
    [[nodiscard]] double modeled_ms_on(const DeviceProfile& dev) const {
        return modeled_ms(total_, dev);
    }

private:
    KernelCost total_{.name = {}, .launches = 0};
};

} // namespace gdda::simt
