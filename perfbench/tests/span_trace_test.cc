/**
 * @file
 * Checks of the benchmark's span tracer: nesting is validated, and the
 * per-layer self times of a nested tree sum to its root span.
 *
 * Build and run:
 *   cmake --build <dir> --target span_trace_test && <dir>/span_trace_test
 */

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "span_trace.hh"

using perfbench::SpanTrace;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        failures++;
    }
}

/** round > setup > fill, then round > ops: self times sum to round. */
void
selfTimesSumToRoot()
{
    SpanTrace tree(true);
    const std::size_t root = tree.open("bench", "round", 7);
    const double base = tree.clock();
    tree.addChild("workloads", "fill", 7, base, base);
    tree.close(root);
    expect(tree.checkNesting().empty(), "zero-length child nests");

    SpanTrace manual;
    manual.setEnabled(true);
    const std::size_t r = manual.open("bench", "round", 1);
    {
        SpanTrace::Scope setup(manual, "sim", "setup", 1);
        SpanTrace::Scope fill(manual, "workloads", "fill", 1);
    }
    {
        SpanTrace::Scope ops(manual, "workloads", "ops", 1);
        volatile double sink = 0;
        for (int i = 0; i < 100000; i++)
            sink = sink + std::sqrt(static_cast<double>(i));
    }
    manual.close(r);
    expect(manual.checkNesting().empty(), "scoped spans nest");
    double sum = 0;
    for (const auto &entry : manual.selfTimeByLayer())
        sum += entry.second;
    expect(std::fabs(sum - manual.rootTime()) < 1e-9,
           "self times sum to the root span");
    expect(manual.spans().size() == 4, "four spans recorded");
    expect(manual.spans()[2].parent == 1, "fill's parent is setup");
    expect(manual.spans()[3].parent == 0, "ops' parent is the round");
}

/** Disabled traces record nothing. */
void
disabledRecordsNothing()
{
    SpanTrace off(false);
    {
        SpanTrace::Scope s(off, "bench", "round", 0);
        off.addChild("interp", "execute", 0, 0.0, 1.0);
    }
    expect(off.spans().empty(), "disabled trace is empty");
}

/** Children outside their parent, or overlapping siblings, are caught. */
void
badNestingIsReported()
{
    SpanTrace escape(true);
    const std::size_t root = escape.open("bench", "round", 0);
    escape.addChild("interp", "execute", 0, -1.0, escape.clock());
    escape.close(root);
    expect(!escape.checkNesting().empty(), "child leaving parent caught");

    SpanTrace overlap(true);
    const std::size_t top = overlap.open("bench", "round", 0);
    const double t = overlap.clock();
    overlap.addChild("passes", "a", 0, t, t + 1e-9);
    overlap.addChild("passes", "b", 0, t, t + 1e-9);
    overlap.close(top);
    // The children end after the parent closes only if the parent was
    // shorter than 1 ns; either violation must be reported.
    expect(!overlap.checkNesting().empty(), "overlapping siblings caught");

    SpanTrace order(true);
    const std::size_t a = order.open("bench", "a", 0);
    const std::size_t b = order.open("bench", "b", 0);
    order.close(a);
    order.close(b);
    expect(!order.checkNesting().empty(), "out-of-order close caught");
}

/** The Chrome JSON names every span with its layer as category. */
void
chromeJsonLists()
{
    SpanTrace trace(true);
    {
        SpanTrace::Scope s(trace, "core", "compile", 3);
    }
    std::ostringstream os;
    trace.writeChromeJson(os);
    const std::string json = os.str();
    expect(json.find("\"traceEvents\"") != std::string::npos,
           "trace has traceEvents");
    expect(json.find("\"name\":\"compile\",\"cat\":\"core\",\"ph\":\"X\"") !=
               std::string::npos,
           "span written as a complete event");
    expect(json.find("\"group\":3") != std::string::npos, "group written");
}

} // anonymous namespace

int
main()
{
    selfTimesSumToRoot();
    disabledRecordsNothing();
    badNestingIsReported();
    chromeJsonLists();
    if (failures == 0)
        std::printf("span_trace_test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
