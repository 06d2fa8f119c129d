#pragma once
// Thin data-parallel loop abstraction standing in for a CUDA kernel launch.
// Backed by OpenMP when available; the loop body must be race-free across
// indices, exactly like a CUDA grid-stride kernel body.
//
// Team width comes from the per-thread budget in thread_budget.hpp (the
// engine's request, falling back to the ambient OpenMP default). The `grain`
// parameter is the minimum number of indices worth one thread's dispatch:
// loops smaller than two grains fall through to the plain serial loop so
// tiny scenes never pay the OpenMP fork/join overhead.

#include <chrono>
#include <cstddef>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "par/thread_budget.hpp"

namespace gdda::par {

/// Default grain: below ~2 x this many indices a parallel dispatch costs
/// more than it buys on element-wise bodies.
inline constexpr std::size_t kDefaultGrain = 256;

namespace detail {
inline double& parallel_seconds_slot() {
    thread_local double s = 0.0;
    return s;
}
inline int& parallel_depth_slot() {
    thread_local int d = 0;
    return d;
}
} // namespace detail

/// Cumulative wall-clock seconds this thread has spent inside dispatch-
/// eligible parallel_for regions (n large enough for the grain to allow a
/// team dispatch). Eligibility — not the actual team width — decides what
/// counts, so a 1-core host still reports the *parallelizable* fraction of
/// its step time and the Amdahl picture survives under-provisioned CI.
/// Sample before/after a region of interest and subtract.
inline double parallel_region_seconds() { return detail::parallel_seconds_slot(); }

template <typename Body>
void parallel_for(std::size_t n, std::size_t grain, Body&& body) {
    const bool eligible = (grain == 0 || n >= 2 * grain);
    // Outermost eligible dispatch only: nested parallel_for calls issued from
    // inside a loop body (device_scan's internal passes, chunk bodies) would
    // otherwise double-charge the same wall time.
    const bool timed = eligible && detail::parallel_depth_slot()++ == 0;
    const auto t0 = timed ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
#ifdef _OPENMP
    const int team = effective_team();
    if (team > 1 && eligible) {
#pragma omp parallel for schedule(static) num_threads(team)
        for (long long i = 0; i < static_cast<long long>(n); ++i)
            body(static_cast<std::size_t>(i));
    } else {
        for (std::size_t i = 0; i < n; ++i) body(i);
    }
#else
    for (std::size_t i = 0; i < n; ++i) body(i);
#endif
    if (eligible) {
        if (timed)
            detail::parallel_seconds_slot() +=
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        --detail::parallel_depth_slot();
    }
}

template <typename Body>
void parallel_for(std::size_t n, Body&& body) {
    parallel_for(n, kDefaultGrain, static_cast<Body&&>(body));
}

inline int hardware_threads() {
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 1;
#endif
}

} // namespace gdda::par
