/**
 * @file
 * serve_mt: open-loop Poisson arrivals through the Scheduler in
 * concurrent mode, two worker threads, three tenants (memcached,
 * hashmap, analytics; shares 2/1/1) on one shared TrackFM runtime,
 * over a fixed ladder of absolute rates with one reference rung.
 */

#include <memory>

#include "bench.hh"
#include "serve/scheduler.hh"

namespace perfbench
{

namespace
{

/// Offered-load ladder in requests per million cycles. Fixed absolute
/// rates: a data-plane speed-up must lower latency at these rates, not
/// move the load axis.
constexpr double kLadder[] = {20, 40, 60, 80, 100, 120, 160, 200};
constexpr double kReferenceRate = 40;
/// Sojourn-time SLO in cycles.
constexpr std::uint64_t kSloCycles = 1'000'000;
constexpr std::uint64_t kRequests = 400'000; ///< arrivals per run
/// Independent arrival streams merged at the reference rate.
constexpr int kReferenceStreams = 4;
constexpr std::uint32_t kWorkers = 2;

std::vector<tfm::TenantConfig>
tenantMix(tfm::SystemKind system)
{
    tfm::TenantConfig kv;
    kv.workload = tfm::TenantWorkloadKind::Memcached;
    kv.numKeys = 20000;
    kv.share = 2.0;
    kv.farHeapBytes = 16ull << 20;
    kv.localMemBytes = 512ull << 10;

    tfm::TenantConfig probe;
    probe.workload = tfm::TenantWorkloadKind::Hashmap;
    probe.numKeys = 8000;
    probe.farHeapBytes = 8ull << 20;
    probe.localMemBytes = 256ull << 10;

    tfm::TenantConfig scan;
    scan.workload = tfm::TenantWorkloadKind::Analytics;
    scan.numKeys = 16000;
    scan.farHeapBytes = 8ull << 20;
    scan.localMemBytes = 256ull << 10;

    std::vector<tfm::TenantConfig> mix{kv, probe, scan};
    for (tfm::TenantConfig &t : mix)
        t.system = system;
    return mix;
}

/** One Scheduler run and its host timings. */
struct Served
{
    tfm::ServeReport report;
    double setupSeconds = 0.0;
    double runSeconds = 0.0;
};

Served
serve(double rate, std::uint64_t seed, bool concurrent, SpanTrace &trace,
      std::uint64_t group, Outcome &out)
{
    tfm::ServeConfig cfg;
    cfg.tenants = tenantMix(tfm::SystemKind::TrackFm);
    cfg.arrivals.ratePerCycle = rate / 1e6;
    cfg.workers = kWorkers;
    cfg.totalRequests = kRequests;
    cfg.sloCycles = kSloCycles;
    cfg.seed = seed;
    cfg.concurrent = concurrent;

    Served s;
    double t0 = hostNow();
    std::unique_ptr<tfm::Scheduler> scheduler;
    {
        SpanTrace::Scope span(trace, "serve", "setup", group);
        scheduler = std::make_unique<tfm::Scheduler>(cfg, tfm::CostParams{});
    }
    s.setupSeconds = hostNow() - t0;
    t0 = hostNow();
    {
        SpanTrace::Scope span(trace, "serve", "run", group);
        s.report = scheduler->run();
    }
    s.runSeconds = hostNow() - t0;

    out.attempted += s.report.aggregate.arrivals;
    for (const tfm::TenantReport &t : s.report.tenants) {
        if (t.completions != t.arrivals) {
            out.fail(t.name + ": " + std::to_string(t.completions) +
                         " completions for " + std::to_string(t.arrivals) +
                         " arrivals",
                     t.arrivals > t.completions ? t.arrivals - t.completions
                                                : 1);
        }
    }
    return s;
}

bool
meetsSlo(const tfm::ServeReport &r)
{
    return r.aggregate.sojourn.percentile(99) <= kSloCycles &&
           r.endCycle - r.lastArrivalCycle <= kSloCycles;
}

} // anonymous namespace

Outcome
runServeMt(const Options &opt, SpanTrace &trace)
{
    Outcome out;
    Rounds rounds(opt.seconds);
    Fingerprint fingerprint;
    std::vector<double> setup;
    HostRate host;
    std::vector<double> p50, p99, goodput, service, maxRate;
    std::vector<double> queueP99, serviceP99, busy, skew, slowFrac;
    std::vector<double> detDepth, detP99;
    while (rounds.another()) {
        const int r = rounds.next();
        trace.setEnabled(opt.trace && r % 2 == 1);
        const std::uint64_t group = static_cast<std::uint64_t>(r) * 16;
        SpanTrace::Scope round(trace, "bench", "round", group);

        double requests = 0.0, runSeconds = 0.0;
        double best = 0.0;
        tfm::TenantReport ref;
        std::uint64_t refEnd = 0;
        std::vector<tfm::WorkerReport> workers;
        std::uint64_t g = group;
        const auto record = [&](const Served &s) {
            setup.push_back(s.setupSeconds);
            requests += static_cast<double>(s.report.aggregate.completions);
            runSeconds += s.runSeconds;
        };
        for (const double rate : kLadder) {
            const Served s = serve(rate, subSeed(opt.seed, 31), true, trace,
                                   ++g, out);
            record(s);
            if (meetsSlo(s.report))
                best = rate;
            if (rate != kReferenceRate)
                continue;
            ref = s.report.aggregate;
            refEnd = s.report.endCycle;
            workers = s.report.workers;
            for (int k = 1; k < kReferenceStreams; k++) {
                const Served more =
                    serve(rate, subSeed(opt.seed, 31 + k), true, trace, ++g,
                          out);
                record(more);
                ref.completions += more.report.aggregate.completions;
                ref.sloViolations += more.report.aggregate.sloViolations;
                ref.queueDelay.merge(more.report.aggregate.queueDelay);
                ref.serviceTime.merge(more.report.aggregate.serviceTime);
                ref.sojourn.merge(more.report.aggregate.sojourn);
                refEnd += more.report.endCycle;
                for (std::size_t w = 0; w < workers.size(); w++) {
                    const tfm::WorkerReport &mw = more.report.workers[w];
                    workers[w].completions += mw.completions;
                    workers[w].busyCycles += mw.busyCycles;
                    workers[w].endCycle += mw.endCycle;
                    workers[w].guardFast += mw.guardFast;
                    workers[w].guardSlow += mw.guardSlow;
                }
            }
        }
        // The deterministic event loop at the reference rate: the
        // determinism guard's subject and the queue-depth source.
        const Served det = serve(kReferenceRate, subSeed(opt.seed, 31), false,
                                 trace, ++g, out);
        fingerprint.check(r,
                          {det.report.aggregate.sojourn.percentile(99),
                           det.report.aggregate.sojourn.sum(),
                           det.report.aggregate.serviceTime.sum(),
                           det.report.endCycle},
                          out, "serve_mt deterministic mode");
        detDepth.push_back(
            static_cast<double>(det.report.aggregate.maxQueueDepth));
        detP99.push_back(
            static_cast<double>(det.report.aggregate.sojourn.percentile(99)));

        host.addRound({requests / runSeconds}, trace.enabled());
        p50.push_back(static_cast<double>(ref.sojourn.percentile(50)));
        p99.push_back(static_cast<double>(ref.sojourn.percentile(99)));
        goodput.push_back(1e6 * static_cast<double>(ref.goodput()) /
                          static_cast<double>(refEnd));
        service.push_back(ref.serviceTime.mean());
        maxRate.push_back(best);
        queueP99.push_back(static_cast<double>(ref.queueDelay.percentile(99)));
        serviceP99.push_back(
            static_cast<double>(ref.serviceTime.percentile(99)));
        double busyCycles = 0.0, span = 0.0, fast = 0.0, slow = 0.0;
        double most = 0.0, least = 1e300, total = 0.0;
        for (const tfm::WorkerReport &w : workers) {
            busyCycles += static_cast<double>(w.busyCycles);
            span += static_cast<double>(w.endCycle);
            fast += static_cast<double>(w.guardFast);
            slow += static_cast<double>(w.guardSlow);
            const auto c = static_cast<double>(w.completions);
            most = std::max(most, c);
            least = std::min(least, c);
            total += c;
        }
        busy.push_back(ratio(busyCycles, span));
        skew.push_back(ratio(most - least, total / kWorkers));
        slowFrac.push_back(ratio(slow, fast + slow));
    }
    trace.setEnabled(false);

    // The Fastswap baseline bar: the same tenants' mean unloaded
    // service time on Fastswap backends, weighted by load share.
    double fastswap = 0.0, shares = 0.0;
    for (const tfm::TenantConfig &t : tenantMix(tfm::SystemKind::Fastswap)) {
        fastswap += t.share * tfm::meanServiceCycles(
                                  t, tfm::CostParams{},
                                  subSeed(opt.seed, 41), 4000);
        shares += t.share;
    }

    out.e2e["setup_s"] = median(setup);
    host.report(out);
    out.e2e["sim_cycles_per_op"] = median(service);
    out.e2e["fastswap_sim_cycles_per_op"] = fastswap / shares;
    out.e2e["p50_cycles"] = median(p50);
    out.e2e["p99_cycles"] = median(p99);
    out.e2e["goodput_per_mcycle"] = median(goodput);

    out.layer["serve.setup_s"] = median(setup);
    out.layer["serve.max_rate_in_slo"] = median(maxRate);
    out.layer["serve.queue_p99_cycles"] = median(queueP99);
    out.layer["serve.service_p99_cycles"] = median(serviceP99);
    out.layer["serve.max_queue_depth"] = median(detDepth);
    out.layer["serve.det_p99_cycles"] = median(detP99);
    out.layer["serve.worker_busy_frac"] = median(busy);
    out.layer["serve.worker_skew"] = median(skew);
    out.layer["serve.mt_guard_slow_frac"] = median(slowFrac);
    const auto [lo, hi] = std::minmax_element(p99.begin(), p99.end());
    out.layer["serve.p99_spread_frac"] = ratio(*hi - *lo, median(p99));
    return out;
}

} // namespace perfbench
