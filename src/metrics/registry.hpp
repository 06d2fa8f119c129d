#pragma once
// Process-wide live-metrics registry: atomic counters, gauges, and
// fixed-bucket histograms grouped into named families, rendered as
// Prometheus text exposition or a JSON snapshot.
//
// Design constraints (docs/OBSERVABILITY.md):
//  - Hot-path writes are lock-free: instruments are plain atomics, and the
//    registry hands them out by stable reference so callers resolve a name
//    once (under the registry mutex) and then increment through a cached
//    pointer. No allocation, no hashing, no locking per step.
//  - Strictly observer-only: nothing in here feeds back into the
//    simulation; the bitwise state_fingerprint contract must hold with the
//    registry hot or cold (guarded by tests + bench_metrics_overhead).
//  - Snapshots are merely *consistent enough*: values are read with relaxed
//    atomics while writers keep running, so a scrape can see a histogram
//    count that is momentarily ahead of its sum. Fine for monitoring; the
//    exact per-step history lives in gdda::obs records.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace gdda::metrics {

inline constexpr std::string_view kSnapshotSchemaName = "gdda.metrics.snapshot";
inline constexpr std::string_view kPostmortemSchemaName = "gdda.metrics.postmortem";
/// Layout revision of both the snapshot JSON and the post-mortem bundle.
inline constexpr int kMetricsSchemaVersion = 1;

/// Label set of one series, rendered in the given order. Callers must use a
/// consistent order: {a=1,b=2} and {b=2,a=1} are distinct series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic event count.
class Counter {
public:
    void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time double value.
class Gauge {
public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    void add(double d) {
        double cur = v_.load(std::memory_order_relaxed);
        while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
        }
    }
    [[nodiscard]] double value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0.0, std::memory_order_relaxed); }

private:
    std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram (Prometheus semantics: `bounds` are inclusive
/// upper edges; an implicit +Inf bucket catches the rest).
class Histogram {
public:
    explicit Histogram(std::vector<double> bounds);

    void observe(double v);

    [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
    /// Raw (non-cumulative) count of bucket i; i == bounds().size() is +Inf.
    [[nodiscard]] std::uint64_t bucket_value(std::size_t i) const {
        return buckets_[i].load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }
    void reset();

private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
    std::atomic<double> sum_{0.0};
    std::atomic<std::uint64_t> count_{0};
};

/// Default latency buckets (seconds), 100us..10s, ~3x spacing.
[[nodiscard]] std::vector<double> default_latency_buckets();

enum class MetricKind { Counter, Gauge, Histogram };
[[nodiscard]] std::string_view metric_kind_name(MetricKind k);

/// Thread-safe family/series registry. Lookup is mutex-guarded and intended
/// to happen once per engine construction; the returned instrument
/// references stay valid for the registry's lifetime.
class Registry {
public:
    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /// The process-wide registry every subsystem instruments by default.
    static Registry& global();

    /// Get-or-create. Throws std::invalid_argument on an invalid metric
    /// name, a kind clash with an existing family, or (histograms) bounds
    /// that are empty/non-increasing or differ from the family's.
    Counter& counter(const std::string& name, const std::string& help = "",
                     const Labels& labels = {});
    Gauge& gauge(const std::string& name, const std::string& help = "",
                 const Labels& labels = {});
    Histogram& histogram(const std::string& name, const std::vector<double>& bounds,
                         const std::string& help = "", const Labels& labels = {});

    /// Number of series (instruments) across all families.
    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::size_t family_count() const;

    /// Prometheus text exposition (format version 0.0.4): # HELP / # TYPE
    /// headers, one sample line per series, histograms expanded into
    /// cumulative _bucket/_sum/_count samples.
    [[nodiscard]] std::string render_prometheus() const;

    /// JSON snapshot document (schema gdda.metrics.snapshot v1).
    [[nodiscard]] obs::JsonValue snapshot_json() const;

    /// Zero every instrument's value, keeping the families/series intact
    /// (their references stay valid). For tests and benches that share the
    /// global registry.
    void reset_values();

private:
    struct Series {
        Labels labels;
        std::string key; ///< canonical rendered label block, e.g. {a="1",b="2"}
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };
    struct Family {
        std::string name;
        std::string help;
        MetricKind kind = MetricKind::Counter;
        std::vector<double> bounds; ///< histograms only
        std::vector<std::unique_ptr<Series>> series;
    };

    Family& family_locked(const std::string& name, const std::string& help, MetricKind kind);
    Series& series_locked(Family& fam, const Labels& labels);

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Family>> families_; ///< insertion order (stable output)
};

/// Render one label set the way the exposition does: `{k="v",...}`, with
/// backslash/quote/newline escaped; empty labels render as "".
[[nodiscard]] std::string render_labels(const Labels& labels);

/// Render `registry.render_prometheus()` into a file (truncate). Returns
/// false and fills `err` when the file cannot be written.
bool write_exposition_file(const std::string& path, const Registry& reg, std::string* err = nullptr);

} // namespace gdda::metrics
