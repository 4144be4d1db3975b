/**
 * @file
 * Figure 16: memcached with USR key/value sizes — throughput, event
 * counts, and data transferred, sweeping the zipf skew parameter.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/memcached.hh"

using namespace tfm;

namespace
{

MemcachedResult
runOne(SystemKind kind, double skew, const CostParams &costs)
{
    MemcachedParams params;
    params.seed = bench::runSeed(params.seed);
    params.numKeys = 1000000; // 100M keys scaled 100x
    params.numGets = 300000;
    params.zipfSkew = skew;

    BackendConfig cfg;
    cfg.kind = kind;
    cfg.farHeapBytes = 256 << 20;
    // TrackFM / AIFM use small objects for tiny KV pairs; Fastswap is
    // stuck at the architected page size.
    cfg.objectSizeBytes = 64;
    cfg.prefetchEnabled = true;
    cfg.chunkPolicy = ChunkPolicy::CostModel;
    // Paper: 12 GB WS, 1 GB local (1/12). Items are ~64 B each here.
    const std::uint64_t working_set = params.numKeys * 96;
    cfg.localMemBytes = working_set / 12;
    if (kind == SystemKind::Local)
        cfg.localMemBytes = cfg.farHeapBytes;

    auto backend = makeBackend(cfg, costs);
    MemcachedWorkload workload(*backend, params);
    workload.run(); // warm-up: exclude the one-time cold fill
    return workload.run();
}

} // anonymous namespace

int
main()
{
    const CostParams costs;
    bench::banner(
        "Figure 16 - memcached (USR sizes), sweeping zipf skew",
        "TrackFM ~1.7x over Fastswap at low skew (I/O amplification); "
        "Fastswap converges as skew rises and faults amortize",
        "1M keys / 300K gets standing in for 100M keys; local memory "
        "1/12 of the working set as in the paper");

    // Each (system, skew) point runs once; the three sections below
    // print different columns of the same rows.
    struct Row
    {
        double skew;
        MemcachedResult tfm, fsw, local;
    };
    std::vector<Row> rows;
    for (const double skew : {1.0, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3}) {
        rows.push_back({skew, runOne(SystemKind::TrackFm, skew, costs),
                        runOne(SystemKind::Fastswap, skew, costs),
                        runOne(SystemKind::Local, skew, costs)});
    }

    bench::section("(a) throughput (KOps/s)");
    std::printf("%6s %12s %12s %12s %10s\n", "skew", "TrackFM",
                "Fastswap", "All local", "TFM/FSW");
    for (const Row &row : rows) {
        std::printf("%6.2f %12.1f %12.1f %12.1f %9.2fx\n", row.skew,
                    row.tfm.throughputKopsPerSec(costs.cpuGhz),
                    row.fsw.throughputKopsPerSec(costs.cpuGhz),
                    row.local.throughputKopsPerSec(costs.cpuGhz),
                    row.tfm.throughputKopsPerSec(costs.cpuGhz) /
                        row.fsw.throughputKopsPerSec(costs.cpuGhz));
    }

    bench::section("(b) far-memory events per 1K gets");
    std::printf("%6s %16s %16s\n", "skew", "TrackFM guards",
                "Fastswap faults");
    for (const Row &row : rows) {
        std::printf("%6.2f %16.1f %16.1f\n", row.skew,
                    1000.0 * static_cast<double>(row.tfm.delta.farEvents) /
                        static_cast<double>(row.tfm.hits),
                    1000.0 * static_cast<double>(row.fsw.delta.farEvents) /
                        static_cast<double>(row.fsw.hits));
    }

    bench::section("(c) data transferred (x working set)");
    std::printf("%6s %12s %12s\n", "skew", "TrackFM", "Fastswap");
    const double working_set = 1000000.0 * 96.0;
    for (const Row &row : rows) {
        // TrackFM moves well under 0.1x the working set: three
        // decimals keep its column from printing as 0.0x.
        std::printf("%6.2f %11.3fx %11.1fx\n", row.skew,
                    static_cast<double>(row.tfm.delta.bytesTransferred) /
                        working_set,
                    static_cast<double>(row.fsw.delta.bytesTransferred) /
                        working_set);
    }
    std::printf("\nPaper reference: Fastswap transfers ~66x the WS, "
                "TrackFM ~15x; throughput gap shrinks with skew.\n");
    return 0;
}
