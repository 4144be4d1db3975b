/**
 * @file
 * Figure 13: I/O amplification on the zipfian hashmap — execution time
 * and total data fetched, TrackFM with 64 B objects vs Fastswap's
 * architected 4 KB pages.
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/hashmap.hh"

using namespace tfm;

namespace
{

struct Point
{
    double seconds;
    double fetchedGb;
    double amplification;
};

Point
runOne(SystemKind kind, double local_fraction, const CostParams &costs)
{
    HashmapParams params;
    params.seed = bench::runSeed(params.seed);
    params.numKeys = 60000;
    params.numOps = 200000;
    params.zipfSkew = 1.02;

    BackendConfig cfg;
    cfg.kind = kind;
    cfg.farHeapBytes = 32 << 20;
    cfg.objectSizeBytes = 64; // the paper's Fig. 13 choice for TrackFM
    cfg.prefetchEnabled = true;
    cfg.chunkPolicy = ChunkPolicy::CostModel;
    const std::uint64_t working_set =
        (131072ull * 16) + params.numOps * 4;
    cfg.localMemBytes =
        bench::localBytesFor(local_fraction, working_set, 4096);

    auto backend = makeBackend(cfg, costs);
    HashmapWorkload workload(*backend, params);
    workload.run(); // warm-up: exclude the one-time cold fill
    const HashmapResult r = workload.run();
    Point point;
    point.seconds = bench::seconds(r.delta.cycles, costs);
    point.fetchedGb =
        static_cast<double>(r.delta.bytesFetched) / 1e9;
    point.amplification = static_cast<double>(r.delta.bytesFetched) /
                          static_cast<double>(working_set);
    return point;
}

} // anonymous namespace

int
main()
{
    const CostParams costs;
    bench::banner(
        "Figure 13 - I/O amplification (zipf hashmap, 4 B pairs)",
        "Fastswap transfers ~43x the working set; TrackFM (64 B "
        "objects) only ~2.3x, for an average ~12x speedup",
        "60K keys / 200K lookups standing in for 2 GB WS / 50M lookups");

    // Each point runs once; both sections print from these rows.
    Point tfm_points[bench::localMemSweepPoints];
    Point fsw_points[bench::localMemSweepPoints];
    for (int i = 0; i < bench::localMemSweepPoints; i++) {
        const double fraction = bench::localMemSweep[i];
        tfm_points[i] = runOne(SystemKind::TrackFm, fraction, costs);
        fsw_points[i] = runOne(SystemKind::Fastswap, fraction, costs);
    }

    bench::section("(a) execution time (simulated seconds)");
    std::printf("%10s %14s %14s %10s\n", "local mem", "TrackFM 64B",
                "Fastswap", "speedup");
    for (int i = 0; i < bench::localMemSweepPoints; i++) {
        std::printf("%10s %14.4f %14.4f %9.2fx\n",
                    bench::pct(bench::localMemSweep[i]).c_str(),
                    tfm_points[i].seconds, fsw_points[i].seconds,
                    fsw_points[i].seconds / tfm_points[i].seconds);
    }

    bench::section("(b) total data fetched (x working set)");
    std::printf("%10s %14s %14s\n", "local mem", "TrackFM 64B",
                "Fastswap");
    for (int i = 0; i < bench::localMemSweepPoints; i++) {
        std::printf("%10s %13.1fx %13.1fx\n",
                    bench::pct(bench::localMemSweep[i]).c_str(),
                    tfm_points[i].amplification,
                    fsw_points[i].amplification);
    }
    std::printf("\nPaper reference: Fastswap ~43x WS transferred vs "
                "TrackFM ~2.3x; ~12x average speedup.\n");
    return 0;
}
