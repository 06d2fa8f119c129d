#pragma once
// Process-level probes read from outside the library: CPU time and page
// faults from getrusage, resident memory from /proc/self/status, and the
// CPUs this process may run on.

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstring>

namespace perfbench {

struct Usage {
    double user_s = 0.0;
    double sys_s = 0.0;
    long minor_faults = 0;
    long major_faults = 0;
};

inline Usage usage_now() {
    rusage r{};
    getrusage(RUSAGE_SELF, &r);
    Usage u;
    const auto seconds = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    u.user_s = seconds(r.ru_utime);
    u.sys_s = seconds(r.ru_stime);
    u.minor_faults = r.ru_minflt;
    u.major_faults = r.ru_majflt;
    return u;
}

inline Usage operator-(const Usage& a, const Usage& b) {
    return {a.user_s - b.user_s, a.sys_s - b.sys_s, a.minor_faults - b.minor_faults,
            a.major_faults - b.major_faults};
}

/// A "VmHWM:" / "VmRSS:" style field of /proc/self/status, in KiB (0 when
/// the field is missing).
inline long status_kib(const char* field) {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (!f) return 0;
    char line[256];
    long kib = 0;
    const std::size_t len = std::strlen(field);
    while (std::fgets(line, sizeof line, f)) {
        if (std::strncmp(line, field, len) == 0) {
            std::sscanf(line + len, "%ld", &kib);
            break;
        }
    }
    std::fclose(f);
    return kib;
}

inline long vm_hwm_kib() { return status_kib("VmHWM:"); }
inline long vm_rss_kib() { return status_kib("VmRSS:"); }

/// CPUs in this process's affinity mask (what `nproc` prints).
inline int usable_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
    const int n = CPU_COUNT(&set);
    return n > 0 ? n : 1;
}

} // namespace perfbench
