#include "simt/cost_model.hpp"

#include <algorithm>

namespace gdda::simt {

KernelCost& KernelCost::operator+=(const KernelCost& o) {
    flops += o.flops;
    bytes_coalesced += o.bytes_coalesced;
    bytes_texture += o.bytes_texture;
    bytes_random += o.bytes_random;
    depth += o.depth;
    branch_slots += o.branch_slots;
    divergent_slots += o.divergent_slots;
    launches += o.launches;
    return *this;
}

ModeledTimeParts modeled_parts(const KernelCost& cost, const DeviceProfile& dev) {
    const double flop_time_ms =
        cost.flops / (dev.dp_gflops * dev.sustained_flop_efficiency * 1e6);
    const double mem_time_ms =
        cost.bytes_coalesced / (dev.mem_bandwidth_gb * dev.sustained_bw_efficiency * 1e6) +
        cost.bytes_texture / (dev.mem_bandwidth_gb * dev.texture_efficiency * 1e6) +
        cost.bytes_random /
            (dev.mem_bandwidth_gb * dev.random_access_efficiency * 1e6);
    const double latency_time_ms = cost.depth * dev.mem_latency_us * 1e-3;
    ModeledTimeParts parts;
    parts.work_ms = std::max({flop_time_ms, mem_time_ms, latency_time_ms});
    parts.divergence_ms =
        parts.work_ms * dev.divergence_penalty * cost.divergent_fraction();
    parts.launch_ms = cost.launches * dev.kernel_launch_us * 1e-3;
    return parts;
}

double modeled_ms(const KernelCost& cost, const DeviceProfile& dev) {
    const ModeledTimeParts parts = modeled_parts(cost, dev);
    return parts.work_ms + parts.divergence_ms + parts.launch_ms;
}

void CostLedger::add(const KernelCost& cost) { total_ += cost; }

} // namespace gdda::simt
