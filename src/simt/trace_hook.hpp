#pragma once
// Per-thread kernel-launch trace hook. The SIMT layer sits at the bottom of
// the dependency stack, so the tracer (gdda::trace, which needs obs::json for
// its exporters) cannot be a direct dependency here; instead it installs
// itself through this narrow interface. Every analytic kernel cost recorded
// via record_kernel() and every lane-accurate WarpExecutor::launch is
// forwarded to the hook installed on the *calling* thread, giving tracers
// per-launch visibility that the aggregated CostLedger totals cannot provide.
//
// The slot is thread-local so N engines stepping concurrently on N threads
// each capture exactly their own launches; an engine re-installs its
// tracer's hook at the top of step(), so stepping an engine from a thread
// other than the one that constructed it still records correctly.

#include <cstddef>
#include <string_view>

namespace gdda::simt {

struct KernelCost;
struct WarpStats;

class KernelTraceHook {
public:
    virtual ~KernelTraceHook() = default;
    /// One analytic kernel record (may represent several device launches —
    /// see KernelCost::launches). `module` is the pipeline-module row hint in
    /// core::Module order, or -1 when the producer does not know it (the
    /// tracer then falls back to its open module span).
    virtual void on_kernel(const KernelCost& cost, int module) = 0;
    /// One lane-accurate WarpExecutor launch of `threads` logical threads.
    virtual void on_warp_launch(std::string_view name, std::size_t threads, int warp_size,
                                const WarpStats& stats) = 0;
};

/// Install (or clear, with nullptr) the calling thread's hook; returns the
/// previously installed one. Install/uninstall from the thread that steps
/// the pipeline — other threads' slots are unaffected.
KernelTraceHook* set_kernel_trace_hook(KernelTraceHook* hook);
[[nodiscard]] KernelTraceHook* kernel_trace_hook();

} // namespace gdda::simt
