#include "trace/validate.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "trace/tracer.hpp"

namespace gdda::trace {

namespace {

bool known_category(const std::string& s) {
    for (int c = 0; c < kCategoryCount; ++c)
        if (category_name(static_cast<Category>(c)) == s) return true;
    return false;
}

TraceValidation fail(int index, std::string message) {
    TraceValidation v;
    v.ok = false;
    v.events = index - 1;
    v.bad_event = index;
    v.error = "event " + std::to_string(index) + ": " + std::move(message);
    return v;
}

} // namespace

TraceValidation validate_trace_document(const obs::JsonValue& doc) {
    TraceValidation v;
    if (!doc.is_object()) {
        v.error = "trace document is not a JSON object";
        return v;
    }
    const obs::JsonValue* trace_events = doc.find("traceEvents");
    if (!trace_events || !trace_events->is_array()) {
        v.error = "missing 'traceEvents' array";
        return v;
    }

    double last_ts = -std::numeric_limits<double>::infinity();
    // Span nesting is only meaningful within one (pid, tid) lane: traces
    // from several threads interleave lanes freely, but each lane's B/E
    // events must still stack LIFO.
    std::map<std::pair<long long, long long>, std::vector<std::string>> open;
    int index = 0;
    for (const obs::JsonValue& row : trace_events->items()) {
        ++index;
        if (!row.is_object()) return fail(index, "not an object");

        const obs::JsonValue* name = row.find("name");
        if (!name || !name->is_string()) return fail(index, "missing string 'name'");

        const obs::JsonValue* cat = row.find("cat");
        if (!cat || !cat->is_string()) return fail(index, "missing string 'cat'");
        if (!known_category(cat->as_string()))
            return fail(index, "unknown category '" + cat->as_string() + "'");

        const obs::JsonValue* ph = row.find("ph");
        if (!ph || !ph->is_string()) return fail(index, "missing string 'ph'");
        const std::string& phase = ph->as_string();
        if (phase != "B" && phase != "E" && phase != "X" && phase != "i")
            return fail(index, "unknown phase '" + phase + "'");

        const obs::JsonValue* ts = row.find("ts");
        if (!ts || !ts->is_number()) return fail(index, "missing numeric 'ts'");
        if (!std::isfinite(ts->as_number())) return fail(index, "'ts' is not finite");
        if (ts->as_number() < last_ts)
            return fail(index, "timestamp decreases (ts=" + std::to_string(ts->as_number()) +
                                   " after " + std::to_string(last_ts) + ")");
        last_ts = ts->as_number();

        auto lane_key = [&row]() {
            const obs::JsonValue* pid = row.find("pid");
            const obs::JsonValue* tid = row.find("tid");
            return std::make_pair(pid && pid->is_number()
                                      ? static_cast<long long>(pid->as_number()) : 1LL,
                                  tid && tid->is_number()
                                      ? static_cast<long long>(tid->as_number()) : 1LL);
        };

        if (phase == "X") {
            const obs::JsonValue* dur = row.find("dur");
            if (!dur || !dur->is_number()) return fail(index, "X event missing numeric 'dur'");
            if (!std::isfinite(dur->as_number()) || dur->as_number() < 0.0)
                return fail(index, "X event 'dur' must be finite and >= 0");
        } else if (phase == "B") {
            open[lane_key()].push_back(name->as_string());
        } else if (phase == "E") {
            std::vector<std::string>& lane = open[lane_key()];
            if (lane.empty()) return fail(index, "E event with no open span in its lane");
            if (lane.back() != name->as_string())
                return fail(index, "E event '" + name->as_string() +
                                       "' does not close innermost span '" + lane.back() +
                                       "' of its lane");
            lane.pop_back();
        }
        ++v.events;
    }

    for (const auto& [lane, names] : open) {
        if (names.empty()) continue;
        v.bad_event = index;
        v.error = std::to_string(names.size()) + " span(s) still open at end of trace ('" +
                  names.back() + "' innermost, tid " + std::to_string(lane.second) + ")";
        return v;
    }
    v.ok = true;
    return v;
}

TraceValidation validate_trace_text(std::string_view text) {
    obs::JsonValue doc;
    std::string err;
    if (!obs::JsonValue::parse(text, doc, &err)) {
        TraceValidation v;
        v.error = "JSON parse error: " + err;
        return v;
    }
    return validate_trace_document(doc);
}

TraceValidation validate_trace_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        TraceValidation v;
        v.error = "cannot open '" + path + "'";
        return v;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return validate_trace_text(buf.str());
}

} // namespace gdda::trace
