// gdda_perfbench: runs one benchmark workload of the DDA pipeline and writes
// every raw sample it took to a JSON file. perfbench/run.py builds this
// program, runs it, turns the samples into metrics and checks the outputs.
//
//   gdda_perfbench --workload <slope-static|rocks-gpu>
//                  [--seed N] --seconds S --trace 0|1 --out FILE
//
// One episode = scene generation and engine construction (set-up), then a
// fixed number of closed-loop steps on that one engine. A run cycles through
// kScenesPerRun scenes derived from --seed, in whole rounds, until --seconds
// is spent (at least two rounds, so every scene's determinism check has a
// pair). With --trace 1, odd episodes record spans around every call the
// harness makes into the library, and the first traced episode also captures
// a mid-run state for the per-layer replays.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "block/block_system.hpp"
#include "core/engine.hpp"
#include "core/interpenetration.hpp"
#include "obs/json.hpp"
#include "obs/recorder.hpp"
#include "obs/sink.hpp"
#include "par/parallel_for.hpp"
#include "probe.hpp"
#include "replay.hpp"
#include "simt/device_profile.hpp"
#include "spans.hpp"
#include "state/snapshot.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace gdda;
using obs::JsonValue;

/// Extra set-up-only samples taken after each episode: set-up is milliseconds,
/// so the run reports the median of many, spread over the whole run.
constexpr int kExtraSetupsPerEpisode = 6;

/// Scenes per run. One seed's scene can take a dt cut that another does not
/// (on slope-static one such cut took about 30% off an episode's simulated
/// time), so a run pools a few scenes to keep its figures from resting on
/// one seed's events.
constexpr int kScenesPerRun = 3;

/// The generator seed of a run's scene `i`; scene 0 is --seed itself, and the
/// scenes of runs with seeds below 1,000,003 never coincide.
unsigned scene_seed(unsigned seed, int i) {
    return seed + static_cast<unsigned>(i) * 1000003u;
}

struct Args {
    std::string workload;
    std::optional<unsigned> seed;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
};

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
        const std::string val = argv[++i];
        if (key == "--workload") a.workload = val;
        else if (key == "--seed") a.seed = static_cast<unsigned>(std::stoull(val));
        else if (key == "--seconds") a.seconds = std::stod(val);
        else if (key == "--trace") a.trace = std::stoi(val) != 0;
        else if (key == "--out") a.out = val;
        else throw std::invalid_argument("unknown argument " + key);
    }
    if (a.workload.empty() || a.out.empty())
        throw std::invalid_argument("--workload and --out are required");
    if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    return a;
}

struct StepSample {
    double wall_s = 0.0;
    double user_s = 0.0;
    double sys_s = 0.0;
    long minor_faults = 0;
    double parallel_s = 0.0; ///< par::parallel_region_seconds() delta
    std::array<double, core::kModuleCount> module_s{};
    core::StepStats stats;
    bool snapshot = false;
    bool finite = true;
    double audit_depth = 0.0;
};

struct Episode {
    bool traced = false;
    unsigned scene_seed = 0;
    double setup_s = 0.0;
    std::size_t blocks = 0;
    double pen_tol = 0.0;
    std::vector<StepSample> steps;
    std::uint64_t fingerprint = 0;
    double audit_depth = 0.0; ///< deepest audited penetration over the episode
    contact::PairCacheStats pair_cache;
    core::SolveWorkspaceStats workspace;
    std::array<double, core::kModuleCount> k40_ms{}; ///< modeled, whole episode
};

/// What the first traced episode hands to the replays.
struct TraceCapture {
    std::optional<core::EngineCheckpoint> mid;
    std::optional<obs::StepRecord> record;
    contact::BroadPhaseBackend backend = contact::BroadPhaseBackend::AllPairs;
    std::optional<bool> restore_match; ///< snapshot resume reproduced the fingerprint
    LayerReport layers;
};

class CatchSink final : public obs::Sink {
public:
    explicit CatchSink(obs::StepRecord* slot) : slot_(slot) {}
    void on_step(const obs::StepRecord& rec) override { *slot_ = rec; }

private:
    obs::StepRecord* slot_;
};

double seconds_since(double t0_us) { return (now_us() - t0_us) * 1e-6; }

bool state_is_finite(const block::BlockSystem& sys) {
    for (const block::Block& b : sys.blocks) {
        for (const geom::Vec2& p : b.verts)
            if (!std::isfinite(p.x) || !std::isfinite(p.y)) return false;
        for (int k = 0; k < 6; ++k)
            if (!std::isfinite(b.velocity[k])) return false;
        for (double s : b.stress)
            if (!std::isfinite(s)) return false;
    }
    return true;
}

/// The engine's own interpenetration tolerance: max(0.05 x mean mobile block
/// size, 1e-6 x half model height), from the initial scene.
double penetration_tolerance(const block::BlockSystem& sys) {
    double lo = 1e300;
    double hi = -1e300;
    double size = 0.0;
    std::size_t mobile = 0;
    for (const block::Block& b : sys.blocks) {
        for (const geom::Vec2& p : b.verts) {
            lo = std::min(lo, p.y);
            hi = std::max(hi, p.y);
        }
        if (!b.fixed) {
            size += std::sqrt(std::abs(b.area));
            ++mobile;
        }
    }
    const double w0 = std::max(0.5 * (hi - lo), 1e-6);
    const double mobile_size = mobile ? size / static_cast<double>(mobile) : w0;
    return std::max(0.05 * mobile_size, 1e-6 * w0);
}

std::string save_to_memory(const core::DdaEngine& eng, SpanLog* log, int req) {
    state::EngineSnapshot snap;
    {
        ScopedSpan s(log, "state.capture", req);
        snap = state::capture(eng);
    }
    ScopedSpan s(log, "state.save_snapshot", req);
    std::ostringstream os;
    state::save_snapshot(os, snap);
    return std::move(os).str();
}

/// Resume a mid-run snapshot in a fresh engine, step it to the end of the
/// episode, and compare its fingerprint with the uninterrupted run's.
bool resume_matches(const WorkloadSpec& w, unsigned seed, const core::SimConfig& cfg,
                    const std::string& bytes, int steps_left, std::uint64_t expected,
                    SpanLog* log) {
    // With no step left the check would only compare a restore with its source.
    if (steps_left <= 0) throw std::logic_error("snapshot resume needs steps left to run");
    ScopedSpan span(log, "check.resume", -1);
    std::istringstream is(bytes);
    const state::EngineSnapshot snap = state::load_snapshot(is);
    block::BlockSystem sys = make_scene(w, seed);
    core::DdaEngine eng(sys, cfg, w.mode);
    state::restore_engine(eng, snap);
    for (int i = 0; i < steps_left; ++i) {
        ScopedSpan s(log, "check.resume.step", eng.step_index());
        eng.step();
    }
    return block::state_fingerprint(eng.system()) == expected;
}

Episode run_episode(const WorkloadSpec& w, unsigned seed, const core::SimConfig& cfg,
                    SpanLog* log, TraceCapture* cap) {
    Episode ep;
    ep.traced = log != nullptr;
    ep.scene_seed = seed;
    ScopedSpan episode_span(log, "episode", -1);

    const double t0 = now_us();
    std::optional<ScopedSpan> setup_span(std::in_place, log, "setup", -1);
    block::BlockSystem sys = make_scene(w, seed);
    core::DdaEngine eng(sys, cfg, w.mode);
    setup_span.reset();
    ep.setup_s = seconds_since(t0);
    ep.blocks = sys.size();
    ep.pen_tol = penetration_tolerance(sys);

    obs::StepRecord caught;
    if (cap && eng.recorder()) eng.recorder()->add_sink(std::make_unique<CatchSink>(&caught));

    const int mid = w.steps / 2;
    // The latest snapshot with steps still to run after it, for the resume check.
    std::string resume_snapshot;
    int resume_snapshot_steps = 0;
    for (int k = 0; k < w.steps; ++k) {
        StepSample s;
        const core::ModuleTimers before = eng.timers();
        const Usage u0 = usage_now();
        const double par0 = par::parallel_region_seconds();
        const double t_step = now_us();
        {
            ScopedSpan root(log, "workload.step", k);
            {
                ScopedSpan inner(log, "core.DdaEngine.step", k);
                s.stats = eng.step();
            }
            if (w.snapshot_every > 0 && (k + 1) % w.snapshot_every == 0) {
                std::string bytes = save_to_memory(eng, log, k);
                if (k + 1 < w.steps) {
                    resume_snapshot = std::move(bytes);
                    resume_snapshot_steps = k + 1;
                }
                s.snapshot = true;
            }
        }
        s.wall_s = seconds_since(t_step);
        const Usage du = usage_now() - u0;
        s.user_s = du.user_s;
        s.sys_s = du.sys_s;
        s.minor_faults = du.minor_faults;
        s.parallel_s = par::parallel_region_seconds() - par0;
        for (int m = 0; m < core::kModuleCount; ++m) {
            const auto mod = static_cast<core::Module>(m);
            s.module_s[m] = eng.timers().seconds(mod) - before.seconds(mod);
        }

        // Output checks, outside the timed region.
        s.finite = state_is_finite(eng.system());
        s.audit_depth = core::audit_interpenetration(eng.system()).max_depth;
        ep.audit_depth = std::max(ep.audit_depth, s.audit_depth);
        ep.steps.push_back(s);

        if (cap && k + 1 == mid && !cap->mid) {
            ScopedSpan c(log, "core.DdaEngine.capture", k);
            cap->mid = eng.capture();
            cap->backend = eng.broad_phase_backend();
            if (eng.recorder()) cap->record = caught;
        }
    }
    ep.fingerprint = block::state_fingerprint(eng.system());
    ep.pair_cache = eng.pair_cache().stats();
    ep.workspace = eng.solve_workspace().stats();
    for (int m = 0; m < core::kModuleCount; ++m)
        ep.k40_ms[m] = eng.ledgers().modeled_ms(static_cast<core::Module>(m), simt::tesla_k40());

    if (cap && cap->mid) {
        replay_state(eng, log, cap->layers);
        if (!resume_snapshot.empty())
            cap->restore_match = resume_matches(w, seed, cfg, resume_snapshot,
                                                w.steps - resume_snapshot_steps, ep.fingerprint,
                                                log);
    }
    return ep;
}

/// Set-up only (scene + engine), for the extra set-up samples.
double setup_only(const WorkloadSpec& w, unsigned seed, const core::SimConfig& cfg) {
    const double t0 = now_us();
    block::BlockSystem sys = make_scene(w, seed);
    core::DdaEngine eng(sys, cfg, w.mode);
    return seconds_since(t0);
}

std::string hex64(std::uint64_t v) {
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

JsonValue modules_json(const std::array<double, core::kModuleCount>& v) {
    static constexpr std::array<const char*, core::kModuleCount> keys = {
        "contact", "diag", "nondiag", "solve", "interpen", "update"};
    JsonValue o = JsonValue::object();
    for (int m = 0; m < core::kModuleCount; ++m) o.set(keys[m], JsonValue::number(v[m]));
    return o;
}

JsonValue step_json(const StepSample& s) {
    JsonValue o = JsonValue::object();
    o.set("wall_s", JsonValue::number(s.wall_s));
    o.set("user_s", JsonValue::number(s.user_s));
    o.set("sys_s", JsonValue::number(s.sys_s));
    o.set("minor_faults", JsonValue::integer(s.minor_faults));
    o.set("parallel_s", JsonValue::number(s.parallel_s));
    o.set("module_s", modules_json(s.module_s));
    o.set("dt", JsonValue::number(s.stats.dt_used));
    o.set("retries", JsonValue::integer(s.stats.retries));
    o.set("passes", JsonValue::integer(s.stats.pcg_solves));
    o.set("pcg_iterations", JsonValue::integer(s.stats.pcg_iterations));
    o.set("pcg_failed_solves", JsonValue::integer(s.stats.pcg_failed_solves));
    o.set("converged", JsonValue::boolean(s.stats.converged));
    o.set("contacts", JsonValue::integer(static_cast<long long>(s.stats.contacts)));
    o.set("active_contacts", JsonValue::integer(static_cast<long long>(s.stats.active_contacts)));
    o.set("snapshot", JsonValue::boolean(s.snapshot));
    o.set("finite", JsonValue::boolean(s.finite));
    o.set("audit_depth", JsonValue::number(s.audit_depth));
    return o;
}

JsonValue episode_json(const Episode& ep) {
    JsonValue o = JsonValue::object();
    o.set("traced", JsonValue::boolean(ep.traced));
    o.set("scene_seed", JsonValue::integer(ep.scene_seed));
    o.set("setup_s", JsonValue::number(ep.setup_s));
    o.set("blocks", JsonValue::integer(static_cast<long long>(ep.blocks)));
    o.set("pen_tol", JsonValue::number(ep.pen_tol));
    o.set("fingerprint", JsonValue::string(hex64(ep.fingerprint)));
    o.set("audit_depth", JsonValue::number(ep.audit_depth));
    const auto count = [](std::uint64_t v) {
        return JsonValue::integer(static_cast<long long>(v));
    };
    o.set("pair_cache_rebuilds", count(ep.pair_cache.rebuilds));
    o.set("pair_cache_reuses", count(ep.pair_cache.reuses));
    o.set("workspace_cold", count(ep.workspace.cold_structure_builds));
    o.set("workspace_warm", count(ep.workspace.warm_numeric_refills));
    o.set("k40_ms", modules_json(ep.k40_ms));
    JsonValue steps = JsonValue::array();
    for (const StepSample& s : ep.steps) steps.push(step_json(s));
    o.set("steps", std::move(steps));
    return o;
}

JsonValue band_json(const Band& b) {
    JsonValue o = JsonValue::array();
    o.push(JsonValue::number(b.lo));
    o.push(JsonValue::number(b.hi));
    return o;
}

int run(const Args& a) {
    const WorkloadSpec* w = find_workload(a.workload);
    if (!w) throw std::invalid_argument("unknown workload " + a.workload);
    const unsigned seed = a.seed.value_or(w->default_seed);
    const int cpus = usable_cpus();
    // Half the CPUs stay free for everything else on the host. A team waits at
    // every fork-join for its slowest thread, so one thread that another
    // process or the hypervisor holds up stalls the whole team. With one niced
    // busy loop beside it, slope-static's first step went from 2.6 s to
    // 4.5-5.3 s at 4 threads on 4 CPUs. On a 4-vCPU VM with 7-27% steal, the
    // first step at 3 threads ran 2.7 s at 7% steal and 5.0-5.5 s at 22-27%;
    // at 2 threads it ran 3.5 s at 9% and 3.8-4.3 s at 13-17%.
    const int team = std::min(w->max_team, std::max(1, cpus / 2));
    const core::SimConfig cfg = make_config(*w, team);

    SpanLog log;
    TraceCapture cap;
    std::vector<Episode> episodes;
    std::vector<double> setups;
    const double t_start = now_us();
    for (int e = 0;; ++e) {
        const double elapsed = seconds_since(t_start);
        // Whole rounds only, so every scene weighs the same in the pooled figures.
        if (e % kScenesPerRun == 0 && e >= 2 * kScenesPerRun &&
            elapsed + kScenesPerRun * elapsed / e > a.seconds)
            break;
        const unsigned s = scene_seed(seed, e % kScenesPerRun);
        const bool traced = a.trace && e % 2 == 1;
        episodes.push_back(run_episode(*w, s, cfg, traced ? &log : nullptr,
                                       traced && !cap.mid ? &cap : nullptr));
        setups.push_back(episodes.back().setup_s);
        for (int i = 0; i < kExtraSetupsPerEpisode; ++i)
            setups.push_back(setup_only(*w, s, cfg));
        std::fprintf(stderr, "[perfbench] %s scene seed %u episode %d%s: %.2f s\n",
                     w->name.c_str(), s, e, traced ? " (traced)" : "",
                     seconds_since(t_start) - elapsed);
    }

    if (cap.mid) {
        ReplayInput in;
        in.workload = w;
        in.config = &cfg;
        in.team = team;
        in.backend = cap.backend;
        in.checkpoint = &*cap.mid;
        in.record = cap.record ? &*cap.record : nullptr;
        replay_layers(in, &log, cap.layers);
    }

    const Usage total = usage_now();
    JsonValue doc = JsonValue::object();
    doc.set("workload", JsonValue::string(w->name));
    doc.set("seed", JsonValue::integer(seed));
    doc.set("scenes", JsonValue::integer(kScenesPerRun));
    doc.set("trace", JsonValue::boolean(a.trace));
    doc.set("seconds", JsonValue::number(a.seconds));
    doc.set("mode", JsonValue::string(w->mode == core::EngineMode::Gpu ? "gpu" : "serial"));
    doc.set("cpus", JsonValue::integer(cpus));
    doc.set("team", JsonValue::integer(team));
    doc.set("steps_per_episode", JsonValue::integer(w->steps));
    JsonValue regime = JsonValue::object();
    regime.set("contacts_per_block", band_json(w->contacts_per_block));
    regime.set("active_frac", band_json(w->active_frac));
    regime.set("first_step_retries", JsonValue::boolean(w->first_step_retries));
    doc.set("regime", std::move(regime));
    JsonValue setup_arr = JsonValue::array();
    for (double s : setups) setup_arr.push(JsonValue::number(s));
    doc.set("setup_s", std::move(setup_arr));
    JsonValue eps = JsonValue::array();
    for (const Episode& ep : episodes) eps.push(episode_json(ep));
    doc.set("episodes", std::move(eps));
    JsonValue proc = JsonValue::object();
    proc.set("vmhwm_kib", JsonValue::integer(vm_hwm_kib()));
    proc.set("user_s", JsonValue::number(total.user_s));
    proc.set("sys_s", JsonValue::number(total.sys_s));
    proc.set("minor_faults", JsonValue::integer(total.minor_faults));
    proc.set("major_faults", JsonValue::integer(total.major_faults));
    doc.set("process", std::move(proc));

    if (a.trace) {
        JsonValue layers = JsonValue::object();
        for (const auto& [name, v] : cap.layers.metrics) layers.set(name, JsonValue::number(v));
        doc.set("layers", std::move(layers));
        JsonValue na = JsonValue::object();
        for (const auto& [name, why] : cap.layers.not_applicable)
            na.set(name, JsonValue::string(why));
        doc.set("not_applicable", std::move(na));
        doc.set("restore_match", cap.restore_match ? JsonValue::boolean(*cap.restore_match)
                                                   : JsonValue::null());
        JsonValue spans = JsonValue::array();
        for (const Span& s : log.spans()) {
            JsonValue o = JsonValue::object();
            o.set("name", JsonValue::string(s.name));
            o.set("start_us", JsonValue::number(s.start_us));
            o.set("end_us", JsonValue::number(s.end_us));
            o.set("parent", JsonValue::integer(s.parent));
            o.set("request", JsonValue::integer(s.request));
            spans.push(std::move(o));
        }
        doc.set("spans", std::move(spans));
    }

    std::ofstream out(a.out);
    out << doc.dump() << '\n';
    if (!out) throw std::runtime_error("cannot write " + a.out);
    return 0;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    try {
        return perfbench::run(perfbench::parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gdda_perfbench: %s\n", e.what());
        return 1;
    }
}
