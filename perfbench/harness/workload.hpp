#pragma once
// The benchmark's workloads: which scene each generates from the seed,
// how its engine is configured, how long one episode runs, and the regime
// band every run checks so a seed that leaves the intended regime fails
// instead of silently measuring something else.

#include <string>

#include "block/block_system.hpp"
#include "core/engine.hpp"

namespace perfbench {

struct Band {
    double lo = 0.0;
    double hi = 0.0;
};

enum class Scene { Slope, FallingRocks };

struct WorkloadSpec {
    std::string name;
    Scene scene = Scene::Slope;
    unsigned default_seed = 0; ///< the generator's own default seed
    int target_blocks = 0;
    gdda::core::EngineMode mode = gdda::core::EngineMode::Serial;
    double velocity_carry = 1.0; ///< 0 = static analysis, 1 = dynamic
    int max_team = 1;          ///< team = min(max_team, usable CPUs / 2), at least 1
    int steps = 0;             ///< steps per episode (one fresh engine)
    int snapshot_every = 0;    ///< save a gdda::state snapshot every N steps; 0 = never
    bool observability = false;///< telemetry aggregator + metrics observer on
    Band contacts_per_block;   ///< regime: mean contacts per block over the steps
    Band active_frac;          ///< regime: active / detected contacts over the steps
    bool first_step_retries = false; ///< regime: the cold first step must retry
};

/// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

gdda::block::BlockSystem make_scene(const WorkloadSpec& w, unsigned seed);

gdda::core::SimConfig make_config(const WorkloadSpec& w, int team);

} // namespace perfbench
