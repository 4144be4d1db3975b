/**
 * @file
 * Host-time spans recorded by the benchmark around its calls into each
 * simulator layer.
 *
 * Spans nest strictly (one thread opens and closes them in stack
 * order), carry the layer they time, and share a group id per request
 * or phase. They stay in memory and are written once, at exit, as
 * Chrome trace_event JSON that Perfetto loads. A layer's self time is
 * its spans' durations minus the time their child spans cover; over a
 * well-nested tree the self times sum to the root span.
 */

#ifndef PERFBENCH_SPAN_TRACE_HH
#define PERFBENCH_SPAN_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

class SpanTrace
{
  public:
    struct Span
    {
        std::string layer;
        std::string name;
        std::uint64_t group = 0;
        std::int64_t parent = -1; ///< index into spans(), -1 for a root
        double start = 0.0;       ///< seconds since the trace was made
        double end = -1.0;        ///< < start while the span is open
    };

    /** RAII span; a no-op when the trace is off. */
    class Scope
    {
      public:
        Scope(SpanTrace &trace, const char *layer, const char *name,
              std::uint64_t group)
            : t(trace.enabled() ? &trace : nullptr)
        {
            if (t)
                index = t->open(layer, name, group);
        }
        ~Scope()
        {
            if (t)
                t->close(index);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanTrace *t;
        std::size_t index = 0;
    };

    explicit SpanTrace(bool enabled = false)
        : on(enabled), origin(std::chrono::steady_clock::now())
    {}

    bool enabled() const { return on; }
    void setEnabled(bool enabled) { on = enabled; }

    /** Open a span as a child of the innermost open span. */
    std::size_t
    open(const std::string &layer, const std::string &name,
         std::uint64_t group)
    {
        Span s;
        s.layer = layer;
        s.name = name;
        s.group = group;
        s.parent = stack.empty() ? -1
                                 : static_cast<std::int64_t>(stack.back());
        s.start = clock();
        records.push_back(s);
        stack.push_back(records.size() - 1);
        return records.size() - 1;
    }

    /** Close span @p index; it must be the innermost open one. */
    void
    close(std::size_t index)
    {
        records[index].end = clock();
        if (!stack.empty() && stack.back() == index)
            stack.pop_back();
        else
            misnested = true;
    }

    /**
     * Add an already-timed span as a child of the innermost open span;
     * @p start and @p end are clock() readings. Used where a layer
     * reports its own boundaries (pass observer, engine wall time).
     */
    void
    addChild(const std::string &layer, const std::string &name,
             std::uint64_t group, double start, double end)
    {
        if (!on)
            return;
        Span s;
        s.layer = layer;
        s.name = name;
        s.group = group;
        s.parent = stack.empty() ? -1
                                 : static_cast<std::int64_t>(stack.back());
        s.start = start;
        s.end = end;
        records.push_back(s);
    }

    /** Seconds since the trace was made, on the span clock. */
    double
    clock() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - origin)
            .count();
    }

    const std::vector<Span> &spans() const { return records; }

    /**
     * Empty when every span is closed, lies inside its parent, and
     * does not overlap a sibling; otherwise the first violation.
     */
    std::string
    checkNesting() const
    {
        if (misnested || !stack.empty())
            return "spans closed out of stack order";
        std::vector<double> lastSiblingEnd(records.size() + 1, -1.0);
        for (std::size_t i = 0; i < records.size(); i++) {
            const Span &s = records[i];
            if (s.end < s.start)
                return "span " + s.name + " is not closed";
            if (s.parent >= static_cast<std::int64_t>(i))
                return "span " + s.name + " precedes its parent";
            const std::size_t slot =
                s.parent < 0 ? records.size()
                             : static_cast<std::size_t>(s.parent);
            if (s.parent >= 0) {
                const Span &p = records[slot];
                if (s.start < p.start || s.end > p.end)
                    return "span " + s.name + " leaves parent " + p.name;
            }
            if (s.start < lastSiblingEnd[slot])
                return "span " + s.name + " overlaps a sibling";
            lastSiblingEnd[slot] = s.end;
        }
        return "";
    }

    /** Per-span self time: duration minus the children's durations. */
    std::vector<double>
    selfTimes() const
    {
        std::vector<double> self(records.size());
        for (std::size_t i = 0; i < records.size(); i++)
            self[i] = records[i].end - records[i].start;
        for (const Span &s : records) {
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
        }
        return self;
    }

    /** Self time summed by layer. */
    std::map<std::string, double>
    selfTimeByLayer() const
    {
        std::map<std::string, double> out;
        const std::vector<double> self = selfTimes();
        for (std::size_t i = 0; i < records.size(); i++)
            out[records[i].layer] += self[i];
        return out;
    }

    /** Summed duration of the root spans. */
    double
    rootTime() const
    {
        double total = 0.0;
        for (const Span &s : records) {
            if (s.parent < 0)
                total += s.end - s.start;
        }
        return total;
    }

    /**
     * Chrome trace_event JSON: one complete ('X') event per span in
     * microseconds, the layer as its category, group and parent as
     * arguments.
     */
    void
    writeChromeJson(std::ostream &os) const
    {
        const auto flags = os.flags();
        const auto precision = os.precision();
        os.setf(std::ios::fixed);
        os.precision(3);
        os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":1,\"args\":{\"name\":\"perfbench\"}}";
        for (std::size_t i = 0; i < records.size(); i++) {
            const Span &s = records[i];
            os << ",\n{\"name\":\"" << s.name << "\",\"cat\":\""
               << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
               << "\"ts\":" << s.start * 1e6
               << ",\"dur\":" << (s.end - s.start) * 1e6
               << ",\"args\":{\"id\":" << i << ",\"group\":" << s.group
               << ",\"parent\":" << s.parent << "}}";
        }
        os << "\n]}\n";
        os.flags(flags);
        os.precision(precision);
    }

  private:
    bool on;
    bool misnested = false;
    std::chrono::steady_clock::time_point origin;
    std::vector<Span> records;
    std::vector<std::size_t> stack;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_TRACE_HH
