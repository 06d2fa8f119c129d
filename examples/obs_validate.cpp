// obs_validate — schema validator for gdda observability output. Reads a
// JSON-lines telemetry file produced by the gdda::obs JsonlSink (or stdin
// with "-") and checks every record against the versioned "gdda.obs.step"
// schema; with --trace it instead validates an exported Chrome trace file
// (balanced begin/end pairs, monotonic timestamps, known categories); with
// --metrics it validates a Prometheus text exposition file (the text of
// metrics::Registry::render_prometheus()); with --postmortem it validates a
// flight-recorder post-mortem bundle (gdda.metrics.postmortem). Exit status
// 0 iff everything validates, so it composes in CI:
//
//   quickstart --telemetry out.jsonl --trace out.trace.json &&
//     obs_validate out.jsonl && obs_validate --trace out.trace.json
//
// Usage: obs_validate [--trace | --metrics | --postmortem] <file | -> | --schema
//   --trace       validate a Chrome trace file (gdda.trace).
//   --metrics     validate a Prometheus text exposition file.
//   --postmortem  validate a post-mortem bundle JSON document.
//   --schema      print the machine-readable telemetry schema document and exit.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "metrics/validate.hpp"
#include "obs/validate.hpp"
#include "trace/validate.hpp"

int main(int argc, char** argv) {
    using namespace gdda;

    enum class Mode { Telemetry, Trace, Metrics, Postmortem };
    Mode mode = Mode::Telemetry;
    std::string path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--schema") == 0) {
            std::printf("%s\n", obs::schema_json().c_str());
            return 0;
        }
        if (std::strcmp(argv[i], "--trace") == 0) {
            mode = Mode::Trace;
        } else if (std::strcmp(argv[i], "--metrics") == 0) {
            mode = Mode::Metrics;
        } else if (std::strcmp(argv[i], "--postmortem") == 0) {
            mode = Mode::Postmortem;
        } else if (path.empty()) {
            path = argv[i];
        } else {
            path.clear();
            break;
        }
    }
    if (path.empty()) {
        std::fprintf(stderr,
                     "usage: obs_validate [--trace | --metrics | --postmortem] "
                     "<file | -> | --schema\n");
        return 2;
    }

    if (mode == Mode::Metrics) {
        metrics::ExpositionValidation res;
        if (path == "-") {
            res = metrics::validate_exposition(std::cin);
        } else {
            res = metrics::validate_exposition_file(path);
        }
        if (!res) {
            std::fprintf(stderr, "obs_validate: %s: %s\n", path.c_str(), res.error.c_str());
            return 1;
        }
        std::printf("obs_validate: %s: %d metric families, %d samples OK\n", path.c_str(),
                    res.families, res.samples);
        return 0;
    }

    if (mode == Mode::Postmortem) {
        metrics::PostmortemValidation res;
        if (path == "-") {
            std::ostringstream buf;
            buf << std::cin.rdbuf();
            std::string err;
            obs::JsonValue doc;
            if (!obs::JsonValue::parse(buf.str(), doc, &err)) {
                std::fprintf(stderr, "obs_validate: -: bad JSON: %s\n", err.c_str());
                return 1;
            }
            res = metrics::validate_postmortem(doc);
        } else {
            res = metrics::validate_postmortem_file(path);
        }
        if (!res) {
            std::fprintf(stderr, "obs_validate: %s: %s\n", path.c_str(), res.error.c_str());
            return 1;
        }
        std::printf("obs_validate: %s: post-mortem OK (%d step records, %d health verdicts)\n",
                    path.c_str(), res.records, res.verdicts);
        return 0;
    }

    if (mode == Mode::Trace) {
        trace::TraceValidation res;
        if (path == "-") {
            std::ostringstream buf;
            buf << std::cin.rdbuf();
            res = trace::validate_trace_text(buf.str());
        } else {
            res = trace::validate_trace_file(path);
        }
        if (!res) {
            std::fprintf(stderr, "obs_validate: %s: %s\n", path.c_str(), res.error.c_str());
            return 1;
        }
        std::printf("obs_validate: %s: %d trace events OK\n", path.c_str(), res.events);
        return 0;
    }

    const obs::ValidationResult res =
        path == "-" ? obs::validate_stream(std::cin) : obs::validate_file(path);

    if (!res) {
        std::fprintf(stderr, "obs_validate: %s: line %d: %s\n", path.c_str(), res.bad_line,
                     res.error.c_str());
        return 1;
    }
    std::printf("obs_validate: %s: %d records OK\n", path.c_str(), res.records);
    return 0;
}
