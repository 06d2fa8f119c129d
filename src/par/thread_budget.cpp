#include "par/thread_budget.hpp"

#include <algorithm>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace gdda::par {

namespace {
thread_local int g_team = 0;
} // namespace

int hardware_concurrency() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

void set_team_size(int team) { g_team = std::max(team, 0); }
int team_size() { return g_team; }

int effective_team() {
    int t;
    if (g_team > 0) {
        // Explicit request: honor it as asked, including oversubscription —
        // the determinism tests deliberately run 8-wide teams on small hosts
        // to prove the bits do not depend on the physical core count.
        t = g_team;
    } else {
#ifdef _OPENMP
        t = omp_get_max_threads();
#else
        t = 1;
#endif
    }
    return std::max(t, 1);
}

ScopedTeamSize::ScopedTeamSize(int team) : previous_(g_team), installed_(team > 0) {
    if (installed_) set_team_size(team);
}

ScopedTeamSize::~ScopedTeamSize() {
    if (installed_) g_team = previous_;
}

} // namespace gdda::par
