#pragma once
// Thread budget for the CPU execution backend. One thread_local knob decides
// how wide a par::parallel_for team may be on the CALLING thread, mirroring
// how a CUDA stream pins work to one device context:
//
//   team   an explicit team-size request (SimConfig::step_threads via
//          ScopedTeamSize). 0 = unset: fall back to the ambient OpenMP
//          nthreads-var, so omp_set_num_threads() keeps working for callers
//          that manage OpenMP themselves.
//
// The knob is per-thread on purpose: an engine stepping on one thread must
// never widen or narrow an unrelated engine stepping on another. Results
// are invariant under every team size (deterministic_reduce.hpp fixes all
// floating-point summation orders), so the budget is purely a performance
// dial — never a correctness one.

namespace gdda::par {

/// Physical parallelism available to this process (std::thread::
/// hardware_concurrency, clamped to >= 1). Unlike omp_get_max_threads()
/// this does not shrink when a caller pins the ambient OpenMP team.
int hardware_concurrency();

/// Explicit per-thread team request. 0 = unset (ambient OpenMP default).
void set_team_size(int team);
int team_size();

/// The team width parallel_for will actually use on this thread right now:
/// the explicit team request (honored as asked, oversubscription included)
/// or the ambient OpenMP max when unset; never below 1.
int effective_team();

/// RAII team request (engine hot paths): installs `team` (0 = leave the
/// current setting untouched) and restores the previous value on scope exit.
class ScopedTeamSize {
public:
    explicit ScopedTeamSize(int team);
    ~ScopedTeamSize();
    ScopedTeamSize(const ScopedTeamSize&) = delete;
    ScopedTeamSize& operator=(const ScopedTeamSize&) = delete;

private:
    int previous_;
    bool installed_;
};

} // namespace gdda::par
