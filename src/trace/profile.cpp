#include "trace/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "obs/record.hpp"

namespace gdda::trace {

namespace {

std::string_view module_label(int module) {
    if (module >= 0 && module < obs::kModuleCount)
        return obs::kModuleKeys[static_cast<std::size_t>(module)];
    return "-";
}

void accumulate_kernel(std::map<std::pair<std::string, int>, KernelRow>& rows,
                       const Event& e) {
    KernelRow& row = rows[{e.name, e.module}];
    if (row.calls == 0) {
        row.name = e.name;
        row.module = e.module;
        row.warp = e.cat == Category::Warp;
    }
    row.calls += 1;
    row.launches += e.kernel.launches;
    row.modeled_us += e.kernel.modeled_us;
    row.flops += e.kernel.flops;
    row.bytes_coalesced += e.kernel.bytes_coalesced;
    row.bytes_texture += e.kernel.bytes_texture;
    row.bytes_random += e.kernel.bytes_random;
    row.depth += e.kernel.depth;
    row.branch_slots += e.kernel.branch_slots;
    row.divergent_slots += e.kernel.divergent_slots;
    row.warps += e.kernel.warps;
    row.occupancy_sum += e.kernel.occupancy;
}

TreeNode& find_or_create_child(TreeNode& parent, Category cat, const std::string& name,
                               int module) {
    for (TreeNode& c : parent.children)
        if (c.cat == cat && c.name == name) return c;
    TreeNode child;
    child.name = name;
    child.cat = cat;
    child.module = module;
    parent.children.push_back(std::move(child));
    return parent.children.back();
}

std::string format_us(double us) {
    char buf[48];
    if (us >= 1e6)
        std::snprintf(buf, sizeof buf, "%.3fs", us * 1e-6);
    else if (us >= 1e3)
        std::snprintf(buf, sizeof buf, "%.3fms", us * 1e-3);
    else
        std::snprintf(buf, sizeof buf, "%.2fus", us);
    return buf;
}

} // namespace

Profile Profile::from_events(const std::vector<Event>& events) {
    Profile p;
    p.root_.name = "trace";
    p.root_.cat = Category::Other;
    p.root_.count = 1;

    std::map<std::pair<std::string, int>, KernelRow> rows;

    // Open-span bookkeeping for the tree replay, one stack per emitting
    // thread lane (Event::tid): spans from different threads interleave
    // in the ring but only nest within their own lane. All lanes share one
    // tree — the loop view aggregates over threads. Only the top node's
    // children vector ever mutates while it is on a stack, so raw pointers
    // into the tree stay valid for every stacked ancestor.
    struct Open {
        std::uint32_t id;
        TreeNode* node;
        double begin_us;
        Category cat;
    };
    std::map<std::uint32_t, std::vector<Open>> stacks;
    auto top = [&](std::uint32_t tid) -> TreeNode& {
        std::vector<Open>& stack = stacks[tid];
        return stack.empty() ? p.root_ : *stack.back().node;
    };

    for (const Event& e : events) {
        switch (e.phase) {
            case Phase::Begin: {
                TreeNode& node = find_or_create_child(top(e.tid), e.cat, e.name, e.module);
                node.count += 1;
                if (e.module >= 0) node.module = e.module;
                stacks[e.tid].push_back({e.id, &node, e.t_us, e.cat});
                break;
            }
            case Phase::End: {
                // Pop through abandoned spans (tracer::end semantics); spans
                // whose Begin was lost to wraparound just miss their wall time.
                std::vector<Open>& stack = stacks[e.tid];
                while (!stack.empty()) {
                    const Open open = stack.back();
                    stack.pop_back();
                    if (open.id != e.id) continue;
                    const double dur = e.t_us - open.begin_us;
                    open.node->total_us += dur;
                    if (open.cat == Category::Step) p.step_wall_us_ += dur;
                    break;
                }
                break;
            }
            case Phase::Complete: {
                if (e.cat == Category::Kernel || e.cat == Category::Warp) {
                    accumulate_kernel(rows, e);
                } else {
                    // Retroactive spans (e.g. the diag/nondiag module split)
                    // show up in the tree like closed children of the current
                    // span.
                    TreeNode& node =
                        find_or_create_child(top(e.tid), e.cat, e.name, e.module);
                    node.count += 1;
                    if (e.module >= 0) node.module = e.module;
                    node.total_us += e.dur_us;
                }
                break;
            }
            case Phase::Instant:
                break;
        }
    }

    p.kernels_.reserve(rows.size());
    for (auto& [key, row] : rows) p.kernels_.push_back(std::move(row));
    std::stable_sort(p.kernels_.begin(), p.kernels_.end(),
                     [](const KernelRow& a, const KernelRow& b) {
                         if (a.modeled_us != b.modeled_us) return a.modeled_us > b.modeled_us;
                         return a.name < b.name;
                     });
    return p;
}

bool Profile::from_chrome(const obs::JsonValue& doc, Profile& out, std::string* err) {
    const obs::JsonValue* trace_events = doc.find("traceEvents");
    if (!trace_events || !trace_events->is_array()) {
        if (err) *err = "missing 'traceEvents' array";
        return false;
    }

    // Reconstruct Events from the exported rows; ids are recovered from the
    // begin args so the tree replay can match B/E pairs.
    std::vector<Event> events;
    events.reserve(trace_events->items().size());
    std::uint64_t seq = 0;
    // Per-lane open spans (name -> id): merged batch traces interleave
    // lanes, and an E row only ever closes a span of its own lane.
    std::map<std::uint32_t, std::vector<std::pair<std::string, std::uint32_t>>> open_lanes;
    std::uint32_t synth_id = 1u << 30; // for id-less traces

    auto category_of = [](const std::string& s) {
        for (int c = 0; c < kCategoryCount; ++c)
            if (category_name(static_cast<Category>(c)) == s)
                return static_cast<Category>(c);
        return Category::Other;
    };

    for (const obs::JsonValue& row : trace_events->items()) {
        if (!row.is_object()) {
            if (err) *err = "traceEvents entry is not an object";
            return false;
        }
        const obs::JsonValue* ph = row.find("ph");
        const obs::JsonValue* name = row.find("name");
        const obs::JsonValue* cat = row.find("cat");
        const obs::JsonValue* ts = row.find("ts");
        if (!ph || !ph->is_string() || !ts || !ts->is_number()) {
            if (err) *err = "traceEvents entry lacks 'ph'/'ts'";
            return false;
        }
        Event e;
        e.seq = ++seq;
        e.t_us = ts->as_number();
        if (const obs::JsonValue* tid = row.find("tid"); tid && tid->is_number())
            e.tid = static_cast<std::uint32_t>(tid->as_number());
        if (name && name->is_string()) e.name = name->as_string();
        if (cat && cat->is_string()) e.cat = category_of(cat->as_string());
        const obs::JsonValue* args = row.find("args");
        if (args && args->is_object()) {
            if (const obs::JsonValue* m = args->find("module"); m && m->is_number())
                e.module = static_cast<int>(m->as_number());
        }

        const std::string& phase = ph->as_string();
        if (phase == "B") {
            e.phase = Phase::Begin;
            e.id = ++synth_id;
            if (args && args->is_object())
                if (const obs::JsonValue* s = args->find("span"); s && s->is_number())
                    e.id = static_cast<std::uint32_t>(s->as_number());
            open_lanes[e.tid].emplace_back(e.name, e.id);
        } else if (phase == "E") {
            e.phase = Phase::End;
            // Chrome E rows do not carry the span id; close the innermost
            // open span of this lane with a matching name (LIFO, as the
            // exporter emits).
            auto& open = open_lanes[e.tid];
            std::uint32_t id = 0;
            for (auto it = open.rbegin(); it != open.rend(); ++it) {
                if (!e.name.empty() && it->first != e.name) continue;
                id = it->second;
                open.erase(std::next(it).base());
                break;
            }
            if (id == 0) continue; // unmatched E; exporter never emits these
            e.id = id;
        } else if (phase == "X") {
            e.phase = Phase::Complete;
            if (const obs::JsonValue* dur = row.find("dur"); dur && dur->is_number())
                e.dur_us = dur->as_number();
            if ((e.cat == Category::Kernel || e.cat == Category::Warp) && args &&
                args->is_object()) {
                auto num = [&](const char* key) {
                    const obs::JsonValue* v = args->find(key);
                    return v && v->is_number() ? v->as_number() : 0.0;
                };
                e.kernel.modeled_us = num("modeled_us");
                e.kernel.flops = num("flops");
                e.kernel.bytes_coalesced = num("bytes_coalesced");
                e.kernel.bytes_texture = num("bytes_texture");
                e.kernel.bytes_random = num("bytes_random");
                e.kernel.depth = num("depth");
                e.kernel.branch_slots = num("branch_slots");
                e.kernel.divergent_slots = num("divergent_slots");
                e.kernel.warps = num("warps");
                e.kernel.occupancy = num("occupancy");
                e.kernel.launches = static_cast<long long>(num("launches"));
            }
        } else if (phase == "i" || phase == "I") {
            e.phase = Phase::Instant;
        } else {
            continue; // metadata rows (M, ...) are fine to skip
        }
        events.push_back(std::move(e));
    }

    out = from_events(events);
    return true;
}

double Profile::total_modeled_us() const {
    double t = 0.0;
    for (const KernelRow& r : kernels_) t += r.modeled_us;
    return t;
}

simt::KernelCost Profile::module_cost(int module) const {
    simt::KernelCost total{.name = {}, .launches = 0};
    for (const KernelRow& r : kernels_) {
        if (r.warp || r.module != module) continue;
        total.flops += r.flops;
        total.bytes_coalesced += r.bytes_coalesced;
        total.bytes_texture += r.bytes_texture;
        total.bytes_random += r.bytes_random;
        total.depth += r.depth;
        total.branch_slots += r.branch_slots;
        total.divergent_slots += r.divergent_slots;
        total.launches += static_cast<int>(r.launches);
    }
    return total;
}

double Profile::module_modeled_us(int module) const {
    double t = 0.0;
    for (const KernelRow& r : kernels_)
        if (!r.warp && r.module == module) t += r.modeled_us;
    return t;
}

std::string Profile::render_kernel_table(std::size_t max_rows) const {
    const double total = total_modeled_us();
    std::string out;
    char line[256];
    std::snprintf(line, sizeof line, "%8s %12s %8s %12s %7s %7s  %-22s %s\n",
                  "Time(%)", "Time", "Calls", "Avg", "Div(%)", "Coal(%)", "Module",
                  "Name");
    out += line;
    std::size_t shown = 0;
    for (const KernelRow& r : kernels_) {
        if (max_rows && shown >= max_rows) {
            std::snprintf(line, sizeof line, "  ... %zu more rows\n",
                          kernels_.size() - shown);
            out += line;
            break;
        }
        const double pct = total > 0.0 ? 100.0 * r.modeled_us / total : 0.0;
        std::snprintf(line, sizeof line, "%7.2f%% %12s %8lld %12s %7.2f %7.2f  %-22.*s %s%s\n",
                      pct, format_us(r.modeled_us).c_str(), r.calls,
                      format_us(r.avg_us()).c_str(), r.divergence_pct(),
                      r.coalesced_pct(), static_cast<int>(module_label(r.module).size()),
                      module_label(r.module).data(), r.name.c_str(),
                      r.warp ? " [warp]" : "");
        out += line;
        ++shown;
    }
    if (kernels_.empty()) out += "  (no kernel events)\n";
    return out;
}

namespace {

void render_node(const TreeNode& node, int depth, int max_depth, std::string& out) {
    if (max_depth > 0 && depth > max_depth) return;
    char line[256];
    std::snprintf(line, sizeof line, "%*s%s [%s]  count=%lld  total=%s%s\n", 2 * depth,
                  "", node.name.c_str(), std::string(category_name(node.cat)).c_str(),
                  node.count, format_us(node.total_us).c_str(),
                  node.count > 1
                      ? ("  avg=" + format_us(node.total_us /
                                              static_cast<double>(node.count)))
                            .c_str()
                      : "");
    out += line;
    for (const TreeNode& c : node.children) render_node(c, depth + 1, max_depth, out);
}

} // namespace

std::string Profile::render_loop_tree(int max_depth) const {
    std::string out;
    if (root_.children.empty()) return "  (no span events)\n";
    for (const TreeNode& c : root_.children) render_node(c, 0, max_depth, out);
    return out;
}

} // namespace gdda::trace
