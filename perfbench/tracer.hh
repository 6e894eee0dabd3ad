/**
 * @file
 * In-memory span tracer for the benchmark's traced run.
 *
 * A span is one call into a layer: its name ("mc.compile",
 * "replay.cache", ...), start and end on the steady clock, the span
 * that was open when it began (its parent), the request it served,
 * and a layer-defined work count (instructions, references, bytes).
 * Spans live in a vector until the run ends; nothing is written while
 * timing. The tracer is single-threaded by design: the traced run
 * replays a job graph on one thread, so nesting is a plain stack.
 *
 * A disabled tracer (or a null Tracer pointer) makes every Span a
 * no-op, which is how the untraced reference run shares the code.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord
{
    const char *name;  //!< static string: the layer call
    int64_t startNs;   //!< since the tracer's origin
    int64_t endNs;
    int parent;        //!< index into the span vector, -1 at the root
    int request;       //!< request id; 0 is the job graph itself
    uint64_t work;     //!< layer-defined count
};

/** Per-name aggregate: self time is duration minus child durations. */
struct LayerTotals
{
    double selfSeconds = 0;
    uint64_t calls = 0;
    uint64_t work = 0;
};

class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    int
    open(const char *name)
    {
        const int index = static_cast<int>(spans_.size());
        spans_.push_back({name, now(), 0, stack_.empty() ? -1 : stack_.back(),
                          request_, 0});
        stack_.push_back(index);
        return index;
    }

    void
    close(int index, uint64_t work)
    {
        spans_[static_cast<size_t>(index)].endNs = now();
        spans_[static_cast<size_t>(index)].work = work;
        stack_.pop_back();
    }

    /** Request id stamped on spans opened from now on. */
    void setRequest(int request) { request_ = request; }

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Which spans an aggregate keeps: all of them, the job graph's
     *  (request 0) or the served requests' (request >= 1). */
    enum class Scope { All, Graph, Served };

    /** Aggregate by span name. Spans must all be closed. */
    std::map<std::string, LayerTotals>
    totals(Scope scope = Scope::All) const
    {
        std::vector<int64_t> self(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].endNs - spans_[i].startNs;
        for (const SpanRecord &s : spans_)
            if (s.parent >= 0)
                self[static_cast<size_t>(s.parent)] -= s.endNs - s.startNs;
        std::map<std::string, LayerTotals> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const bool graph = spans_[i].request == 0;
            if ((scope == Scope::Graph && !graph) ||
                (scope == Scope::Served && graph))
                continue;
            LayerTotals &t = out[spans_[i].name];
            t.selfSeconds += static_cast<double>(self[i]) * 1e-9;
            ++t.calls;
            t.work += spans_[i].work;
        }
        return out;
    }

  private:
    int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
    int request_ = 0;
};

/** RAII span; a null tracer records nothing. */
class Span
{
  public:
    Span(Tracer *tracer, const char *name)
        : tracer_(tracer), index_(tracer ? tracer->open(name) : -1)
    {}
    ~Span()
    {
        if (tracer_)
            tracer_->close(index_, work_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void addWork(uint64_t n) { work_ += n; }

  private:
    Tracer *tracer_;
    int index_;
    uint64_t work_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
