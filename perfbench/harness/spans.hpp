#pragma once
// In-memory span log for the traced run. The harness opens a span around
// each call it makes into a library layer; nothing inside the library is
// instrumented. Spans are appended to a vector and written out once, when
// the run ends, so recording costs two clock reads and a push_back.

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double now_us() {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
    int request = -1; ///< step index the span belongs to, -1 outside steps
};

class SpanLog {
public:
    int open(std::string name, int request) {
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({std::move(name), now_us(), 0.0, current_, request});
        current_ = id;
        return id;
    }
    void close(int id) {
        spans_[id].end_us = now_us();
        current_ = spans_[id].parent;
    }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

private:
    std::vector<Span> spans_;
    int current_ = -1;
};

/// RAII span; a null log makes it inert, which is how untraced episodes run
/// the same code path without recording anything.
class ScopedSpan {
public:
    ScopedSpan(SpanLog* log, std::string name, int request)
        : log_(log), id_(log ? log->open(std::move(name), request) : -1) {}
    ~ScopedSpan() {
        if (log_) log_->close(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanLog* log_;
    int id_;
};

} // namespace perfbench
