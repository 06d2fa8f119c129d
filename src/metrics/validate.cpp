#include "metrics/validate.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "metrics/registry.hpp"
#include "obs/record.hpp"

namespace gdda::metrics {

namespace {

struct Sample {
    std::string name;
    std::string labels; ///< raw label block without braces
    double value = 0.0;
    bool is_inf = false;
};

bool parse_value(const std::string& text, double& out, bool& is_inf) {
    if (text == "+Inf" || text == "Inf") {
        out = std::numeric_limits<double>::infinity();
        is_inf = true;
        return true;
    }
    if (text == "NaN") {
        out = std::numeric_limits<double>::quiet_NaN();
        return true;
    }
    char* end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end && *end == '\0' && end != text.c_str();
}

/// Split `k="v",...` into pairs; returns false on malformed syntax.
bool parse_label_block(const std::string& block,
                       std::vector<std::pair<std::string, std::string>>& out) {
    std::size_t i = 0;
    while (i < block.size()) {
        std::size_t eq = block.find('=', i);
        if (eq == std::string::npos) return false;
        std::string key = block.substr(i, eq - i);
        if (key.empty()) return false;
        if (eq + 1 >= block.size() || block[eq + 1] != '"') return false;
        std::string val;
        std::size_t j = eq + 2;
        bool closed = false;
        while (j < block.size()) {
            char c = block[j];
            if (c == '\\' && j + 1 < block.size()) {
                val += block[j + 1];
                j += 2;
                continue;
            }
            if (c == '"') {
                closed = true;
                ++j;
                break;
            }
            val += c;
            ++j;
        }
        if (!closed) return false;
        out.emplace_back(std::move(key), std::move(val));
        if (j < block.size()) {
            if (block[j] != ',') return false;
            ++j;
        }
        i = j;
    }
    return true;
}

/// Parse one sample line `name{labels} value` / `name value`.
bool parse_sample(const std::string& line, Sample& s) {
    std::size_t i = 0;
    while (i < line.size() && (std::isalnum(static_cast<unsigned char>(line[i])) ||
                               line[i] == '_' || line[i] == ':'))
        ++i;
    if (i == 0) return false;
    s.name = line.substr(0, i);
    if (i < line.size() && line[i] == '{') {
        std::size_t close = line.rfind('}');
        if (close == std::string::npos || close < i) return false;
        s.labels = line.substr(i + 1, close - i - 1);
        std::vector<std::pair<std::string, std::string>> pairs;
        if (!parse_label_block(s.labels, pairs)) return false;
        i = close + 1;
    }
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size()) return false;
    // A timestamp suffix is allowed by the format but never produced here.
    const std::string value = line.substr(i);
    return parse_value(value, s.value, s.is_inf);
}

/// Strip `le="..."` out of a label block so bucket samples of one series
/// group together; returns the le value through `le`.
std::string labels_without_le(const std::string& block, std::string* le) {
    std::vector<std::pair<std::string, std::string>> pairs;
    if (!parse_label_block(block, pairs)) return block;
    std::string out;
    for (const auto& [k, v] : pairs) {
        if (k == "le") {
            if (le) *le = v;
            continue;
        }
        if (!out.empty()) out += ',';
        out += k + "=\"" + v + "\"";
    }
    return out;
}

struct HistSeries {
    std::vector<std::pair<double, double>> buckets; ///< (le, cumulative count)
    bool has_inf = false;
    double inf_count = 0.0;
    bool has_sum = false;
    bool has_count = false;
    double count = 0.0;
};

} // namespace

ExpositionValidation validate_exposition(std::istream& in) {
    ExpositionValidation res;
    std::map<std::string, std::string> family_kind; ///< name -> counter|gauge|histogram
    std::map<std::string, HistSeries> hist;         ///< "name|labels" -> series state
    std::string line;
    int lineno = 0;
    auto fail = [&](const std::string& msg) {
        res.error = "line " + std::to_string(lineno) + ": " + msg;
        return res;
    };
    while (std::getline(in, line)) {
        ++lineno;
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        if (line[0] == '#') {
            std::istringstream hdr(line);
            std::string hash;
            std::string what;
            std::string name;
            hdr >> hash >> what >> name;
            if (what == "TYPE") {
                std::string kind;
                hdr >> kind;
                if (kind != "counter" && kind != "gauge" && kind != "histogram")
                    return fail("unknown metric type '" + kind + "'");
                if (family_kind.count(name))
                    return fail("duplicate # TYPE for '" + name + "'");
                family_kind[name] = kind;
                ++res.families;
            } else if (what != "HELP") {
                return fail("unknown comment directive '" + what + "'");
            }
            continue;
        }
        Sample s;
        if (!parse_sample(line, s)) return fail("malformed sample line");
        ++res.samples;
        // Resolve the owning family: exact name, else histogram suffix.
        std::string base = s.name;
        std::string suffix;
        if (!family_kind.count(base)) {
            for (const char* suf : {"_bucket", "_sum", "_count"}) {
                const std::string sufs = suf;
                if (base.size() > sufs.size() &&
                    base.compare(base.size() - sufs.size(), sufs.size(), sufs) == 0) {
                    const std::string cand = base.substr(0, base.size() - sufs.size());
                    if (family_kind.count(cand) && family_kind[cand] == "histogram") {
                        base = cand;
                        suffix = sufs;
                        break;
                    }
                }
            }
        }
        if (!family_kind.count(base))
            return fail("sample '" + s.name + "' has no # TYPE declaration");
        const std::string& kind = family_kind[base];
        if (kind == "histogram" && suffix.empty())
            return fail("histogram '" + base + "' sampled without _bucket/_sum/_count");
        if (kind != "histogram" && !suffix.empty())
            return fail("suffix sample on non-histogram family '" + base + "'");
        if (kind == "counter") {
            if (s.value < 0.0 || s.value != std::floor(s.value))
                return fail("counter '" + s.name + "' must be a non-negative integer");
        }
        // Semantic range checks for known ratio gauges: coverage is a
        // fraction of the step and the exporter clamps it, so any value
        // outside [0, 1] means the instrumentation itself broke.
        if (kind == "gauge" && s.name == "gdda_engine_parallel_coverage") {
            if (!(s.value >= 0.0 && s.value <= 1.0))
                return fail("gauge '" + s.name + "' must lie in [0, 1]");
        }
        if (kind == "histogram") {
            std::string le;
            const std::string key = base + "|" + labels_without_le(s.labels, &le);
            HistSeries& h = hist[key];
            if (suffix == "_bucket") {
                if (le.empty()) return fail("_bucket sample without le label");
                if (le == "+Inf") {
                    h.has_inf = true;
                    h.inf_count = s.value;
                } else {
                    double edge = 0.0;
                    bool inf = false;
                    if (!parse_value(le, edge, inf)) return fail("unparseable le '" + le + "'");
                    if (!h.buckets.empty() &&
                        (edge <= h.buckets.back().first || s.value < h.buckets.back().second))
                        return fail("histogram buckets of '" + base +
                                    "' not cumulative/increasing");
                    if (h.has_inf) return fail("bucket after le=\"+Inf\" in '" + base + "'");
                    h.buckets.emplace_back(edge, s.value);
                }
            } else if (suffix == "_sum") {
                h.has_sum = true;
            } else if (suffix == "_count") {
                h.has_count = true;
                h.count = s.value;
            }
        }
    }
    lineno = 0; // post-stream checks are not tied to a line
    for (const auto& [key, h] : hist) {
        const std::string name = key.substr(0, key.find('|'));
        if (!h.has_inf) {
            res.error = "histogram series '" + name + "' missing le=\"+Inf\" bucket";
            return res;
        }
        if (!h.has_sum || !h.has_count) {
            res.error = "histogram series '" + name + "' missing _sum/_count";
            return res;
        }
        if (!h.buckets.empty() && h.inf_count < h.buckets.back().second) {
            res.error = "histogram series '" + name + "' +Inf bucket below prior bucket";
            return res;
        }
        if (h.inf_count != h.count) {
            res.error = "histogram series '" + name + "' _count disagrees with +Inf bucket";
            return res;
        }
    }
    if (res.families == 0) {
        res.error = "no metric families found";
        return res;
    }
    res.ok = true;
    return res;
}

ExpositionValidation validate_exposition_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        ExpositionValidation res;
        res.error = "cannot open '" + path + "'";
        return res;
    }
    return validate_exposition(in);
}

PostmortemValidation validate_postmortem(const obs::JsonValue& doc) {
    PostmortemValidation res;
    auto fail = [&](std::string msg) {
        res.error = std::move(msg);
        return res;
    };
    if (!doc.is_object()) return fail("bundle is not a JSON object");
    const obs::JsonValue* schema = doc.find("schema");
    if (!schema || !schema->is_string() || schema->as_string() != kPostmortemSchemaName)
        return fail("schema is not '" + std::string(kPostmortemSchemaName) + "'");
    const obs::JsonValue* version = doc.find("version");
    if (!version || !version->is_count() ||
        static_cast<int>(version->as_number()) != kMetricsSchemaVersion)
        return fail("unsupported bundle version");
    for (const char* key : {"job", "mode", "reason", "state_fingerprint"}) {
        const obs::JsonValue* v = doc.find(key);
        if (!v || !v->is_string()) return fail(std::string("missing string field '") + key + "'");
    }
    const std::string& fp = doc.find("state_fingerprint")->as_string();
    if (fp.size() != 16 || fp.find_first_not_of("0123456789abcdef") != std::string::npos)
        return fail("state_fingerprint is not 16 lowercase hex digits");
    const obs::JsonValue* meta = doc.find("meta");
    if (!meta || !meta->is_object() || !meta->find("git_sha"))
        return fail("missing meta.git_sha");
    const obs::JsonValue* config = doc.find("config");
    if (!config || !config->is_object()) return fail("missing config object");
    const obs::JsonValue* records = doc.find("records");
    if (!records || !records->is_array()) return fail("missing records array");
    for (const obs::JsonValue& rj : records->items()) {
        obs::StepRecord rec;
        std::string err;
        if (!obs::from_json(rj, rec, &err))
            return fail("record " + std::to_string(res.records) + ": " + err);
        ++res.records;
    }
    // Optional recovery pointer: the engine never writes one, but a bundle
    // from another producer may. It must name a non-empty path and a
    // non-negative step when it appears.
    if (const obs::JsonValue* ckpt = doc.find("checkpoint")) {
        if (!ckpt->is_object()) return fail("checkpoint is not an object");
        const obs::JsonValue* cpath = ckpt->find("path");
        if (!cpath || !cpath->is_string() || cpath->as_string().empty())
            return fail("checkpoint.path must be a non-empty string");
        const obs::JsonValue* cstep = ckpt->find("step");
        if (!cstep || !cstep->is_count())
            return fail("checkpoint.step must be a non-negative integer");
    }
    const obs::JsonValue* health = doc.find("health");
    if (!health || !health->is_object()) return fail("missing health object");
    auto valid_grade = [](const obs::JsonValue* g) {
        return g && g->is_string() &&
               (g->as_string() == "ok" || g->as_string() == "warn" ||
                g->as_string() == "critical");
    };
    if (!valid_grade(health->find("grade")) || !valid_grade(health->find("worst")))
        return fail("health grade/worst must be ok|warn|critical");
    const obs::JsonValue* verdicts = health->find("verdicts");
    if (!verdicts || !verdicts->is_array()) return fail("missing health.verdicts array");
    for (const obs::JsonValue& vj : verdicts->items()) {
        if (!vj.is_object() || !valid_grade(vj.find("grade")) || !vj.find("rule") ||
            !vj.find("step"))
            return fail("malformed health verdict " + std::to_string(res.verdicts));
        ++res.verdicts;
    }
    res.ok = true;
    return res;
}

PostmortemValidation validate_postmortem_file(const std::string& path) {
    PostmortemValidation res;
    std::ifstream in(path);
    if (!in) {
        res.error = "cannot open '" + path + "'";
        return res;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    obs::JsonValue doc;
    std::string err;
    if (!obs::JsonValue::parse(buf.str(), doc, &err)) {
        res.error = "JSON parse: " + err;
        return res;
    }
    return validate_postmortem(doc);
}

} // namespace gdda::metrics
