#pragma once
// Per-layer replays for the traced run. DdaEngine::step() calls its layers
// internally, so the harness replays those calls itself, from outside the
// library, on a state captured mid-run with DdaEngine::capture(): the same
// inputs the next step would see, each call wrapped in a span and repeated
// so a median can be taken.

#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "obs/record.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

struct LayerReport {
    std::vector<std::pair<std::string, double>> metrics;
    /// metric name -> why it does not apply to this workload
    std::vector<std::pair<std::string, std::string>> not_applicable;

    void set(std::string name, double v) { metrics.emplace_back(std::move(name), v); }
    void skip(std::string name, std::string why) {
        metrics.emplace_back(name, 0.0);
        not_applicable.emplace_back(std::move(name), std::move(why));
    }
};

struct ReplayInput {
    const WorkloadSpec* workload = nullptr;
    const gdda::core::SimConfig* config = nullptr;
    int team = 1;
    gdda::contact::BroadPhaseBackend backend = gdda::contact::BroadPhaseBackend::AllPairs;
    const gdda::core::EngineCheckpoint* checkpoint = nullptr; ///< the mid-run capture
    const gdda::obs::StepRecord* record = nullptr; ///< caught step record; null when obs is off
};

/// contact, assembly, sparse, solver, par, core.interpen and obs/metrics
/// replays on the captured state.
void replay_layers(const ReplayInput& in, SpanLog* log, LayerReport& out);

/// gdda::state replays (capture, save, load, restore) on a live engine; the
/// restore target is a fresh engine on a copy of its block system.
void replay_state(const gdda::core::DdaEngine& engine, SpanLog* log, LayerReport& out);

} // namespace perfbench
