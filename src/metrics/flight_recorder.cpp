#include "metrics/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "metrics/registry.hpp"

#ifndef GDDA_GIT_SHA
#define GDDA_GIT_SHA "unknown"
#endif

namespace gdda::metrics {

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {
    ring_.reserve(capacity_);
}

void FlightRecorder::push(const obs::StepRecord& rec) {
    if (ring_.size() < capacity_) {
        ring_.push_back(rec);
        next_ = ring_.size() % capacity_;
        full_ = ring_.size() == capacity_;
        return;
    }
    ring_[next_] = rec;
    next_ = (next_ + 1) % capacity_;
}

std::vector<const obs::StepRecord*> FlightRecorder::tail() const {
    std::vector<const obs::StepRecord*> out;
    out.reserve(size());
    const std::size_t n = size();
    const std::size_t start = full_ ? next_ : 0;
    for (std::size_t i = 0; i < n; ++i) out.push_back(&ring_[(start + i) % capacity_]);
    return out;
}

namespace {

std::string fingerprint_hex(std::uint64_t fp) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fp));
    return buf;
}

std::string sanitize(const std::string& s) {
    std::string out;
    for (char c : s) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-';
        out += ok ? c : '_';
    }
    return out.empty() ? std::string("job") : out;
}

} // namespace

obs::JsonValue build_postmortem(const PostmortemContext& ctx) {
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("schema", obs::JsonValue::string(std::string(kPostmortemSchemaName)));
    doc.set("version", obs::JsonValue::integer(kMetricsSchemaVersion));

    obs::JsonValue meta = obs::JsonValue::object();
    meta.set("git_sha", obs::JsonValue::string(GDDA_GIT_SHA));
    meta.set("device_profile", obs::JsonValue::string(ctx.device));
    if (ctx.registry)
        meta.set("metrics_registry_size",
                 obs::JsonValue::integer(static_cast<long long>(ctx.registry->size())));
    doc.set("meta", std::move(meta));

    doc.set("job", obs::JsonValue::string(ctx.job));
    doc.set("mode", obs::JsonValue::string(ctx.mode));
    doc.set("reason", obs::JsonValue::string(ctx.reason));
    if (!ctx.error.empty()) doc.set("error", obs::JsonValue::string(ctx.error));
    doc.set("state_fingerprint", obs::JsonValue::string(fingerprint_hex(ctx.state_fingerprint)));
    doc.set("config", ctx.config);

    obs::JsonValue records = obs::JsonValue::array();
    if (ctx.recorder)
        for (const obs::StepRecord* rec : ctx.recorder->tail()) records.push(obs::to_json(*rec));
    doc.set("records", std::move(records));

    obs::JsonValue health = obs::JsonValue::object();
    if (ctx.health) {
        health.set("grade", obs::JsonValue::string(
                                std::string(health_grade_name(ctx.health->grade()))));
        health.set("worst", obs::JsonValue::string(
                                std::string(health_grade_name(ctx.health->worst()))));
        obs::JsonValue verdicts = obs::JsonValue::array();
        for (const HealthVerdict& v : ctx.health->recent()) {
            obs::JsonValue vj = obs::JsonValue::object();
            vj.set("step", obs::JsonValue::integer(v.step));
            vj.set("grade", obs::JsonValue::string(std::string(health_grade_name(v.grade))));
            vj.set("rule", obs::JsonValue::string(v.rule));
            vj.set("detail", obs::JsonValue::string(v.detail));
            verdicts.push(std::move(vj));
        }
        health.set("verdicts", std::move(verdicts));
    } else {
        health.set("grade", obs::JsonValue::string("ok"));
        health.set("worst", obs::JsonValue::string("ok"));
        health.set("verdicts", obs::JsonValue::array());
    }
    doc.set("health", std::move(health));

    if (ctx.ledger) {
        // Cumulative kernel/module ledger over the whole run (not just the
        // ring window): launches + analytic cost totals per module.
        obs::JsonValue ledger = obs::JsonValue::object();
        for (int m = 0; m < obs::kModuleCount; ++m) {
            const obs::ModuleRecord& a = ctx.ledger->module(m);
            obs::JsonValue mj = obs::JsonValue::object();
            mj.set("seconds", obs::JsonValue::number(a.seconds));
            mj.set("launches", obs::JsonValue::integer(a.launches));
            mj.set("flops", obs::JsonValue::number(a.flops));
            mj.set("bytes_coalesced", obs::JsonValue::number(a.bytes_coalesced));
            mj.set("bytes_texture", obs::JsonValue::number(a.bytes_texture));
            mj.set("bytes_random", obs::JsonValue::number(a.bytes_random));
            ledger.set(std::string(obs::kModuleKeys[m]), std::move(mj));
        }
        doc.set("kernel_ledger", std::move(ledger));
        doc.set("steps_total", obs::JsonValue::integer(ctx.ledger->steps()));
    }

    if (ctx.registry) doc.set("metrics", ctx.registry->snapshot_json());
    return doc;
}

std::string postmortem_filename(const std::string& job, const std::string& reason) {
    return "postmortem_" + sanitize(job) + "_" + sanitize(reason) + ".json";
}

bool write_postmortem(const PostmortemContext& ctx, const std::string& dir,
                      std::string* path_out, std::string* err) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        if (err) *err = "cannot create post-mortem dir '" + dir + "': " + ec.message();
        return false;
    }
    const std::string path =
        (std::filesystem::path(dir) / postmortem_filename(ctx.job, ctx.reason)).string();
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    if (!out) {
        if (err) *err = "cannot open '" + path + "' for writing";
        return false;
    }
    out << build_postmortem(ctx).dump() << '\n';
    out.flush();
    if (!out) {
        if (err) *err = "write to '" + path + "' failed";
        return false;
    }
    if (path_out) *path_out = path;
    return true;
}

} // namespace gdda::metrics
