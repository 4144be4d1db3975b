/**
 * @file
 * Entry point of the repository benchmark.
 *
 *   perfbench --workload <kv_zipf|scan_analytics|compile_run|serve_mt>
 *             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
 *
 * Runs one workload for about --seconds, checks every output, prints
 * each metric by name and unit, and ends with one JSON line:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones; with --trace 1 they are the
 * per-layer ones, from a run whose odd rounds record spans (written to
 * --trace-out as Chrome trace_event JSON). Exits non-zero when any
 * output is wrong.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

#include "bench.hh"

using namespace perfbench;

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_cycles_per_op", "cycles"},
    {"fastswap_sim_cycles_per_op", "cycles"},
    {"p50_cycles", "cycles"},
    {"p99_cycles", "cycles"},
    {"goodput_per_mcycle", "ops/Mcycle"},
};

const MetricDef kPerLayer[] = {
    {"host.ops_per_s", "ops/s"},
    {"sim.zipf_ns_per_draw", "ns"},
    {"workloads.fill_s", "s"},
    {"tfm.guards_per_op", "count"},
    {"tfm.fast_frac", "fraction"},
    {"tfm.cache_hit_frac", "fraction"},
    {"tfm.slow_remote_per_op", "count"},
    {"tfm.locality_guards_per_op", "count"},
    {"tfm.reval_hit_frac", "fraction"},
    {"runtime.demand_fetches_per_op", "count"},
    {"runtime.evictions_per_op", "count"},
    {"runtime.dirty_writebacks_per_op", "count"},
    {"runtime.prefetch_hit_frac", "fraction"},
    {"runtime.prefetch_late_frac", "fraction"},
    {"net.fetch_msgs_per_op", "count"},
    {"net.payloads_per_fetch_msg", "count"},
    {"net.bytes_fetched_per_op", "B"},
    {"net.bytes_written_back_per_op", "B"},
    {"fastswap.major_faults_per_op", "count"},
    {"fastswap.minor_faults_per_op", "count"},
    {"fastswap.readaheads_per_op", "count"},
    {"fastswap.reclaims_per_op", "count"},
    {"fastswap.bytes_per_op", "B"},
    {"paged.major_faults", "count"},
    {"paged.reclaims", "count"},
    {"ir.parse_s", "s"},
    {"core.compile_s", "s"},
    {"passes.constant-fold_s", "s"},
    {"passes.redundant-load-elim_s", "s"},
    {"passes.dce_s", "s"},
    {"passes.simplify-cfg_s", "s"},
    {"passes.runtime-init_s", "s"},
    {"passes.libc-transform_s", "s"},
    {"passes.path-arbiter_s", "s"},
    {"passes.pointer-guards_s", "s"},
    {"passes.guard-elim_s", "s"},
    {"passes.guard-coalesce_s", "s"},
    {"passes.loop-chunking_s", "s"},
    {"passes.guard-hoist_s", "s"},
    {"passes.prefetch-injection_s", "s"},
    {"passes.other_s", "s"},
    {"passes.code_growth", "ratio"},
    {"passes.static_guards", "count"},
    {"passes.paged_sites", "count"},
    {"interp.insts_per_s", "1/s"},
    {"interp.inline_guard_frac", "fraction"},
    {"core.run_prep_s", "s"},
    {"serve.setup_s", "s"},
    {"serve.max_rate_in_slo", "ops/Mcycle"},
    {"serve.queue_p99_cycles", "cycles"},
    {"serve.service_p99_cycles", "cycles"},
    {"serve.max_queue_depth", "count"},
    {"serve.det_p99_cycles", "cycles"},
    {"serve.worker_busy_frac", "fraction"},
    {"serve.worker_skew", "fraction"},
    {"serve.mt_guard_slow_frac", "fraction"},
    {"serve.p99_spread_frac", "fraction"},
    {"obs.trace_overhead_frac", "fraction"},
    {"bench.self_frac", "fraction"},
    {"sim.self_frac", "fraction"},
    {"workloads.self_frac", "fraction"},
    {"ir.self_frac", "fraction"},
    {"core.self_frac", "fraction"},
    {"passes.self_frac", "fraction"},
    {"interp.self_frac", "fraction"},
    {"serve.self_frac", "fraction"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<kv_zipf|scan_analytics|compile_run|serve_mt> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
                 why);
    std::exit(2);
}

/**
 * Self time per layer as a share of the traced rounds, plus the two
 * trace invariants: spans nest, and self times sum to the root spans.
 */
void
traceLayers(const SpanTrace &trace, Outcome &out)
{
    const std::string nesting = trace.checkNesting();
    if (!nesting.empty())
        out.fail("trace: " + nesting);
    const double root = trace.rootTime();
    double sum = 0.0;
    for (const auto &[layer, self] : trace.selfTimeByLayer()) {
        sum += self;
        const std::string name = layer + ".self_frac";
        out.layer[name] = ratio(self, root);
    }
    if (std::fabs(sum - root) > 1e-9 * (1.0 + root) *
                                    static_cast<double>(trace.spans().size()))
        out.fail("trace: layer self times do not sum to the run span");
}

void
printMetrics(const MetricDef *defs, std::size_t count,
             std::map<std::string, double> &values, Outcome &out,
             bool required)
{
    std::set<std::string> known;
    for (std::size_t i = 0; i < count; i++)
        known.insert(defs[i].name);
    for (const auto &[name, value] : values) {
        if (known.count(name))
            continue;
        if (name.rfind("passes.", 0) == 0 && name.size() > 2 &&
            name.compare(name.size() - 2, 2, "_s") == 0) {
            values["passes.other_s"] += value;
            continue;
        }
        out.fail("metric " + name + " is not in the metric table");
    }
    for (std::size_t i = 0; i < count; i++) {
        const auto it = values.find(defs[i].name);
        if (it == values.end()) {
            if (required)
                out.fail(std::string("metric ") + defs[i].name + " not set");
            values[defs[i].name] = 0.0;
        }
        double &v = values[defs[i].name];
        if (!std::isfinite(v)) {
            out.fail(std::string("metric ") + defs[i].name + " not finite");
            v = 0.0;
        }
        std::printf("  %-34s %20.6f %s\n", defs[i].name, v, defs[i].unit);
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string traceOut;
    bool haveTrace = false;
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            opt.trace = value == "1";
            haveTrace = value == "0" || value == "1";
        } else if (flag == "--trace-out") {
            traceOut = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveTrace || opt.seconds <= 0.0)
        usage("--trace must be 0 or 1 and --seconds positive");

    Outcome (*run)(const Options &, SpanTrace &) = nullptr;
    if (opt.workload == "kv_zipf")
        run = runKvZipf;
    else if (opt.workload == "scan_analytics")
        run = runScanAnalytics;
    else if (opt.workload == "compile_run")
        run = runCompileRun;
    else if (opt.workload == "serve_mt")
        run = runServeMt;
    else
        usage(("unknown workload " + opt.workload).c_str());

    std::printf("perfbench %s seed %llu, %.0f s, trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    SpanTrace trace;
    Outcome out = run(opt, trace);
    out.e2e["peak_rss_mb"] = peakRssMb();

    if (opt.trace) {
        traceLayers(trace, out);
        if (!traceOut.empty()) {
            std::ofstream file(traceOut);
            trace.writeChromeJson(file);
            if (!file)
                out.fail("cannot write " + traceOut);
        }
    }

    std::printf("end-to-end metrics%s:\n", opt.trace ? " (traced run)" : "");
    printMetrics(kEndToEnd, std::size(kEndToEnd), out.e2e, out, true);
    std::printf("per-layer metrics:\n");
    printMetrics(kPerLayer, std::size(kPerLayer), out.layer, out, false);
    if (!out.hostSamples.empty()) {
        std::vector<double> v = out.hostSamples;
        std::sort(v.begin(), v.end());
        const auto q = [&v](double f) {
            const double last = static_cast<double>(v.size() - 1);
            return v[static_cast<std::size_t>(f * last)];
        };
        std::printf("host.ops_per_s samples: %zu, min %.6g, q1 %.6g, "
                    "median %.6g, q3 %.6g, max %.6g\n",
                    v.size(), v.front(), q(0.25), q(0.5), q(0.75), v.back());
    }
    std::printf("attempted %llu, failed %llu (fail_frac %.6g)\n",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                ratio(static_cast<double>(out.failed),
                      static_cast<double>(out.attempted)));
    for (const std::string &e : out.errors)
        std::printf("FAILED: %s\n", e.c_str());

    const bool correct = out.failed == 0 && out.attempted > 0;
    const std::map<std::string, double> &shown =
        opt.trace ? out.layer : out.e2e;
    const MetricDef *defs = opt.trace ? kPerLayer : kEndToEnd;
    const std::size_t count =
        opt.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (std::size_t i = 0; i < count; i++) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name, shown.at(defs[i].name),
                    defs[i].unit);
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
