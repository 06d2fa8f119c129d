#pragma once
// Failure flight recorder: a bounded ring of the last-N obs::StepRecords
// plus the post-mortem bundle builder. The ring rides the step path (one
// record copy per step, no allocation once warm); the bundle is assembled
// only at dump time — when health goes Critical — so the
// happy path pays nothing for diagnosability.
//
// Bundle schema: gdda.metrics.postmortem v1 (documented in
// docs/OBSERVABILITY.md, validated by metrics::validate_postmortem and
// `obs_validate --postmortem`).

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/health.hpp"
#include "obs/aggregator.hpp"
#include "obs/record.hpp"

namespace gdda::metrics {

class Registry;

/// Bounded ring of step records, oldest evicted first.
class FlightRecorder {
public:
    explicit FlightRecorder(std::size_t capacity);

    void push(const obs::StepRecord& rec);

    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    [[nodiscard]] std::size_t size() const { return full_ ? capacity_ : next_; }
    /// Retained records, oldest first.
    [[nodiscard]] std::vector<const obs::StepRecord*> tail() const;

private:
    std::size_t capacity_;
    std::vector<obs::StepRecord> ring_;
    std::size_t next_ = 0;
    bool full_ = false;
};

/// Everything a post-mortem bundle captures. Pointers may be null — the
/// corresponding section is then omitted (the validator treats records,
/// config and health as required, so engine-produced bundles always carry
/// them).
struct PostmortemContext {
    std::string job;    ///< run label ("" for an engine's own bundles)
    std::string mode;   ///< "serial" | "gpu"
    std::string reason; ///< why the bundle was written, e.g. "health_critical"
    std::string error;  ///< human-readable cause (the failing health rule)
    std::string device; ///< modeled device profile name
    std::uint64_t state_fingerprint = 0; ///< 0 when the state is unavailable
    obs::JsonValue config = obs::JsonValue::object(); ///< engine SimConfig summary
    const FlightRecorder* recorder = nullptr;
    const HealthMonitor* health = nullptr;
    const obs::Aggregator* ledger = nullptr; ///< cumulative module/kernel totals
    const Registry* registry = nullptr;      ///< live metrics snapshot source
};

/// Assemble the self-contained bundle document.
[[nodiscard]] obs::JsonValue build_postmortem(const PostmortemContext& ctx);

/// Deterministic bundle filename: postmortem_<job>_<reason>.json with both
/// parts sanitized to [A-Za-z0-9_-]. No timestamp — reruns overwrite, and
/// tests/CI can predict the path.
[[nodiscard]] std::string postmortem_filename(const std::string& job, const std::string& reason);

/// Build and write the bundle into `dir` (created if missing). Fills
/// `path_out` with the written path on success; returns false + `err` on
/// any filesystem failure.
bool write_postmortem(const PostmortemContext& ctx, const std::string& dir,
                      std::string* path_out = nullptr, std::string* err = nullptr);

} // namespace gdda::metrics
