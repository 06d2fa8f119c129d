#pragma once
// Per-module accounting matching the rows of the paper's Tables II/III:
// measured wall-clock seconds for the engine that actually ran, plus (for
// the GPU pipeline) the analytic kernel-cost ledgers the SIMT model turns
// into modeled device times.

#include <array>
#include <utility>

#include "obs/record.hpp"
#include "par/parallel_for.hpp"
#include "simt/cost_model.hpp"
#include "trace/tracer.hpp"

namespace gdda::core {

enum class Module : int {
    ContactDetection = 0,
    DiagBuild = 1,
    NondiagBuild = 2,
    EquationSolving = 3,
    InterpenetrationCheck = 4,
    DataUpdate = 5,
};
/// The row count and titles are telemetry's (obs::kModuleTitles), so the
/// two can never disagree.
inline constexpr int kModuleCount = obs::kModuleCount;
inline constexpr const auto& kModuleNames = obs::kModuleTitles;

class ModuleTimers {
public:
    void add(Module m, double seconds) { seconds_[static_cast<int>(m)] += seconds; }
    [[nodiscard]] double seconds(Module m) const { return seconds_[static_cast<int>(m)]; }
    [[nodiscard]] double total() const {
        double t = 0.0;
        for (double s : seconds_) t += s;
        return t;
    }
    void reset() { seconds_.fill(0.0); }

private:
    std::array<double, kModuleCount> seconds_{};
};

/// RAII stopwatch adding its lifetime to one module's timer. A thin wrapper
/// over a trace span: both read trace::now_us() (the single timing clock),
/// and when a tracer is attached the SAME clock samples feed the module
/// timer and the Module span, so timer seconds and span durations agree
/// exactly. With no tracer the span adds one branch per scope. Movable (the
/// moved-from timer becomes inert) so timed scopes can be restructured;
/// copying stays deleted because a scope must be charged exactly once.
class ScopedTimer {
public:
    /// `par_sink`, when given, receives the par::parallel_region_seconds()
    /// delta observed over the scope — the slice of this module's wall time
    /// spent inside dispatch-eligible parallel_for regions. That is the raw
    /// material for the per-module serial-fraction breakdown in
    /// bench_step_scaling and the parallel-coverage metrics gauge.
    ScopedTimer(ModuleTimers& timers, Module m, trace::Tracer* tracer = nullptr,
                ModuleTimers* par_sink = nullptr)
        : timers_(&timers), module_(m), start_us_(trace::now_us()), tracer_(tracer),
          span_(tracer ? tracer->begin(trace::Category::Module,
                                       kModuleNames[static_cast<int>(m)],
                                       static_cast<int>(m), start_us_)
                       : 0),
          par_sink_(par_sink),
          par_start_(par_sink ? par::parallel_region_seconds() : 0.0) {}
    ~ScopedTimer() { stop(); }
    ScopedTimer(ScopedTimer&& o) noexcept
        : timers_(std::exchange(o.timers_, nullptr)), module_(o.module_),
          start_us_(o.start_us_), tracer_(std::exchange(o.tracer_, nullptr)),
          span_(o.span_), par_sink_(std::exchange(o.par_sink_, nullptr)),
          par_start_(o.par_start_) {}
    ScopedTimer& operator=(ScopedTimer&& o) noexcept {
        if (this != &o) {
            stop();
            timers_ = std::exchange(o.timers_, nullptr);
            module_ = o.module_;
            start_us_ = o.start_us_;
            tracer_ = std::exchange(o.tracer_, nullptr);
            span_ = o.span_;
            par_sink_ = std::exchange(o.par_sink_, nullptr);
            par_start_ = o.par_start_;
        }
        return *this;
    }
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

    /// Charge the elapsed time now (idempotent; the destructor is a no-op
    /// afterwards). One end-of-scope clock read serves both sinks.
    void stop() {
        if (!timers_) return;
        const double end_us = trace::now_us();
        timers_->add(module_, (end_us - start_us_) * 1e-6);
        if (tracer_) tracer_->end(span_, end_us);
        if (par_sink_) par_sink_->add(module_, par::parallel_region_seconds() - par_start_);
        timers_ = nullptr;
        tracer_ = nullptr;
        par_sink_ = nullptr;
    }

private:
    ModuleTimers* timers_;
    Module module_;
    double start_us_;
    trace::Tracer* tracer_;
    std::uint32_t span_;
    ModuleTimers* par_sink_ = nullptr;
    double par_start_ = 0.0;
};

class ModuleLedgers {
public:
    void add(Module m, const simt::KernelCost& c) { ledgers_[static_cast<int>(m)].add(c); }
    [[nodiscard]] const simt::CostLedger& ledger(Module m) const {
        return ledgers_[static_cast<int>(m)];
    }
    [[nodiscard]] double modeled_ms(Module m, const simt::DeviceProfile& dev) const {
        return ledgers_[static_cast<int>(m)].modeled_ms_on(dev);
    }
    [[nodiscard]] double total_modeled_ms(const simt::DeviceProfile& dev) const {
        double t = 0.0;
        for (const auto& l : ledgers_) t += l.modeled_ms_on(dev);
        return t;
    }
    /// Sum of all module ledgers (explicit cross-module merge).
    [[nodiscard]] simt::KernelCost merged_total() const {
        simt::KernelCost total = simt::KernelCost::accumulator();
        for (const auto& l : ledgers_) total += l.total();
        return total;
    }
    void reset() {
        for (auto& l : ledgers_) l.clear();
    }

private:
    std::array<simt::CostLedger, kModuleCount> ledgers_{};
};

} // namespace gdda::core
