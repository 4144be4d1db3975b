/**
 * @file
 * kv_zipf: a memcached store of 1M USR-sized items under a Zipf 1.02
 * trace of 90% gets and 10% in-place sets, on TrackFM with 64 B
 * objects and local memory at 1/12 of the working set (Fig. 16's
 * point), then the same trace replayed on Fastswap.
 */

#include <memory>

#include "bench.hh"
#include "sim/usr_dist.hh"
#include "sim/zipf.hh"
#include "workloads/backend_config.hh"
#include "workloads/memcached.hh"

namespace perfbench
{

namespace
{

constexpr std::uint64_t kKeys = 1'000'000;
constexpr std::uint64_t kOps = 1'000'000;
constexpr double kSkew = 1.02;
constexpr std::uint64_t kSetPercent = 10;
constexpr std::uint32_t kObjectBytes = 64;
constexpr std::uint64_t kLocalDivisor = 12;
/// Per-request latency SLO for goodput, in simulated cycles.
constexpr std::uint64_t kSloCycles = 250'000;
/// Ops per trace span.
constexpr std::uint64_t kBatch = 16384;

struct Op
{
    std::uint64_t key;
    bool set;
};

/** Everything the benchmark generates from the seed for one round. */
struct Inputs
{
    std::uint64_t storeSeed = 0;
    std::vector<std::uint32_t> valueBytes; ///< per key, as stored
    std::uint64_t workingSet = 0;
    std::vector<Op> ops;
    double zipfSeconds = 0.0;
};

/** Byte @p i of key @p key's value after @p version sets. */
std::uint8_t
valueByte(std::uint64_t key, std::uint32_t i, std::uint8_t version)
{
    return static_cast<std::uint8_t>(key * 131 + i + version * 37u);
}

Inputs
makeInputs(std::uint64_t seed, SpanTrace &trace, std::uint64_t group)
{
    Inputs in;
    in.storeSeed = subSeed(seed, 1);
    {
        // The store draws item sizes from UsrSizeDist(seed) in key
        // order; replaying the draws gives each value's length and
        // the exact working set (2x-keys power-of-two bucket index of
        // 16 B entries plus 16 B headers, keys and values).
        SpanTrace::Scope span(trace, "sim", "usr_sizes", group);
        tfm::UsrSizeDist sizes(in.storeSeed);
        in.valueBytes.resize(kKeys);
        std::uint64_t buckets = 16;
        while (buckets < kKeys * 2)
            buckets <<= 1;
        in.workingSet = buckets * 16;
        for (std::uint64_t k = 0; k < kKeys; k++) {
            const tfm::KvSize s = sizes.next();
            in.valueBytes[k] = s.valueBytes;
            in.workingSet += 16 + s.keyBytes + s.valueBytes;
        }
    }
    SpanTrace::Scope span(trace, "sim", "zipf_trace", group);
    const double t0 = hostNow();
    tfm::ZipfGenerator zipf(kKeys, kSkew, subSeed(seed, 2));
    tfm::Rng kind(subSeed(seed, 3));
    in.ops.resize(kOps);
    for (Op &op : in.ops) {
        op.key = zipf.next();
        op.set = kind.below(100) < kSetPercent;
    }
    in.zipfSeconds = hostNow() - t0;
    return in;
}

/** One system's pass over the trace. */
struct Pass
{
    std::uint64_t cycles = 0;
    std::vector<std::uint64_t> latency; ///< per op, simulated cycles
    tfm::StatSet before, after;
    double fillSeconds = 0.0;
    std::vector<double> rates; ///< host ops/s of each batch of kBatch ops
};

/**
 * Build the store on @p kind, run the trace with every get checked
 * against the expected bytes, then read back every key a set wrote.
 */
Pass
runOn(tfm::SystemKind kind, const Inputs &in, SpanTrace &trace,
      std::uint64_t group, Outcome &out)
{
    Pass pass;
    const char *sys = tfm::systemName(kind);
    double t0 = hostNow();
    std::unique_ptr<tfm::MemBackend> backend;
    std::unique_ptr<tfm::MemcachedWorkload> store;
    {
        SpanTrace::Scope span(trace, "workloads", "fill", group);
        tfm::BackendConfig cfg;
        cfg.kind = kind;
        cfg.farHeapBytes = 256ull << 20;
        cfg.localMemBytes = in.workingSet / kLocalDivisor;
        cfg.objectSizeBytes = kObjectBytes;
        backend = tfm::makeBackend(cfg, tfm::CostParams{});
        tfm::MemcachedParams params;
        params.numKeys = kKeys;
        params.numGets = 0;
        params.zipfSkew = kSkew;
        params.seed = in.storeSeed;
        store = std::make_unique<tfm::MemcachedWorkload>(*backend, params);
    }
    pass.fillSeconds = hostNow() - t0;

    std::vector<std::uint8_t> version(kKeys, 0);
    std::uint8_t value[512];
    std::uint64_t wrong = 0;
    pass.latency.resize(in.ops.size());
    pass.before = backend->stats();
    const std::uint64_t c0 = backend->cycles();
    for (std::uint64_t b = 0; b < in.ops.size(); b += kBatch) {
        SpanTrace::Scope span(trace, "workloads", "kv_batch", group);
        t0 = hostNow();
        const std::uint64_t end = std::min<std::uint64_t>(
            b + kBatch, in.ops.size());
        for (std::uint64_t i = b; i < end; i++) {
            const Op &op = in.ops[i];
            const std::uint32_t len = in.valueBytes[op.key];
            const std::uint64_t start = backend->cycles();
            if (op.set) {
                const auto v = static_cast<std::uint8_t>(version[op.key] + 1);
                for (std::uint32_t j = 0; j < len; j++)
                    value[j] = valueByte(op.key, j, v);
                store->set(op.key, value, len);
                version[op.key] = v;
            } else {
                const int got = store->get(op.key, value, sizeof(value));
                bool ok = got == static_cast<int>(len);
                for (std::uint32_t j = 0; ok && j < len; j++)
                    ok = value[j] == valueByte(op.key, j, version[op.key]);
                wrong += ok ? 0 : 1;
            }
            pass.latency[i] = backend->cycles() - start;
        }
        pass.rates.push_back(static_cast<double>(end - b) /
                             (hostNow() - t0));
    }
    pass.cycles = backend->cycles() - c0;
    pass.after = backend->stats();

    {
        // Sets read back: outside the measured window.
        SpanTrace::Scope span(trace, "workloads", "readback", group);
        for (std::uint64_t k = 0; k < kKeys; k++) {
            if (version[k] == 0)
                continue;
            const std::uint32_t len = in.valueBytes[k];
            const int got = store->get(k, value, sizeof(value));
            bool ok = got == static_cast<int>(len);
            for (std::uint32_t j = 0; ok && j < len; j++)
                ok = value[j] == valueByte(k, j, version[k]);
            wrong += ok ? 0 : 1;
        }
    }
    out.attempted += in.ops.size();
    if (wrong) {
        out.fail(std::string(sys) + ": " + std::to_string(wrong) +
                     " gets returned wrong bytes",
                 wrong);
    }
    return pass;
}

} // anonymous namespace

Outcome
runKvZipf(const Options &opt, SpanTrace &trace)
{
    Outcome out;
    Rounds rounds(opt.seconds);
    Fingerprint fingerprint;
    std::vector<double> setup, fill, zipfNs;
    HostRate host;
    while (rounds.another()) {
        const int r = rounds.next();
        trace.setEnabled(opt.trace && r % 2 == 1);
        const std::uint64_t group = static_cast<std::uint64_t>(r) * 4;
        SpanTrace::Scope round(trace, "bench", "round", group);

        double t0 = hostNow();
        const Inputs in = makeInputs(opt.seed, trace, group);
        const double inputSeconds = hostNow() - t0;
        Pass tfmPass = runOn(tfm::SystemKind::TrackFm, in, trace, group + 1,
                             out);
        Pass fswPass = runOn(tfm::SystemKind::Fastswap, in, trace,
                             group + 2, out);

        setup.push_back(inputSeconds + tfmPass.fillSeconds +
                        fswPass.fillSeconds);
        fill.push_back(tfmPass.fillSeconds);
        zipfNs.push_back(in.zipfSeconds * 1e9 /
                         static_cast<double>(in.ops.size()));
        host.addRound(tfmPass.rates, trace.enabled());

        const double ops = static_cast<double>(in.ops.size());
        std::uint64_t inSlo = 0;
        for (const std::uint64_t lat : tfmPass.latency)
            inSlo += lat <= kSloCycles ? 1 : 0;
        const std::uint64_t p50 = percentile(tfmPass.latency, 50);
        const std::uint64_t p99 = percentile(tfmPass.latency, 99);

        std::vector<std::uint64_t> sim = statValues(tfmPass.after);
        const std::vector<std::uint64_t> fswSim = statValues(fswPass.after);
        sim.insert(sim.end(), fswSim.begin(), fswSim.end());
        sim.push_back(p50);
        sim.push_back(p99);
        sim.push_back(inSlo);
        fingerprint.check(r, sim, out, "kv_zipf");

        if (r == 0) {
            out.e2e["sim_cycles_per_op"] =
                static_cast<double>(tfmPass.cycles) / ops;
            out.e2e["fastswap_sim_cycles_per_op"] =
                static_cast<double>(fswPass.cycles) / ops;
            out.e2e["p50_cycles"] = static_cast<double>(p50);
            out.e2e["p99_cycles"] = static_cast<double>(p99);
            out.e2e["goodput_per_mcycle"] =
                1e6 * static_cast<double>(inSlo) /
                static_cast<double>(tfmPass.cycles);
            layerTrackFm(tfmPass.before, tfmPass.after, ops, out);
            layerFastswap(fswPass.before, fswPass.after, ops, out);
        }
    }
    trace.setEnabled(false);
    out.e2e["setup_s"] = median(setup);
    host.report(out);
    out.layer["sim.zipf_ns_per_draw"] = median(zipfNs);
    out.layer["workloads.fill_s"] = median(fill);
    return out;
}

} // namespace perfbench
