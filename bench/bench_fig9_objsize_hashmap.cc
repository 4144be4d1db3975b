/**
 * @file
 * Figure 9: impact of the compiler's object-size choice on a zipfian
 * hashmap (fine-grained accesses, little spatial locality): smaller
 * objects win.
 */

#include <cstdio>
#include <iterator>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/hashmap.hh"

using namespace tfm;

namespace
{

HashmapResult
runHashmap(std::uint32_t object_size, double local_fraction,
           const CostParams &costs)
{
    HashmapParams params;
    params.seed = bench::runSeed(params.seed);
    params.numKeys = 60000;   // 2 GB working set scaled down
    params.numOps = 200000;   // 50M lookups scaled down
    params.zipfSkew = 1.02;

    BackendConfig cfg;
    cfg.kind = SystemKind::TrackFm;
    cfg.farHeapBytes = 32 << 20;
    cfg.objectSizeBytes = object_size;
    cfg.prefetchEnabled = true;
    cfg.chunkPolicy = ChunkPolicy::CostModel;
    // Working set: table (2x keys rounded, 16 B slots) + trace.
    const std::uint64_t working_set =
        (131072ull * 16) + params.numOps * 4;
    cfg.localMemBytes =
        bench::localBytesFor(local_fraction, working_set, object_size);

    auto backend = makeBackend(cfg, costs);
    HashmapWorkload workload(*backend, params);
    workload.run(); // warm-up: exclude the one-time cold fill
    return workload.run();
}

} // anonymous namespace

int
main()
{
    const CostParams costs;
    bench::banner(
        "Figure 9 - object size on a zipfian STL-style hashmap",
        "4 B key/value lookups benefit from small object sizes",
        "60K keys / 200K lookups standing in for 2 GB WS / 50M lookups");

    const std::uint32_t sizes[] = {4096, 2048, 1024, 512, 256};
    constexpr int numSizes = std::size(sizes);

    // Each (local memory, object size) point runs once; (b) is (a)'s
    // 25% row.
    double mops[bench::localMemSweepPoints][numSizes];
    for (int i = 0; i < bench::localMemSweepPoints; i++) {
        for (int s = 0; s < numSizes; s++) {
            mops[i][s] =
                runHashmap(sizes[s], bench::localMemSweep[i], costs)
                    .throughputMopsPerSec(costs.cpuGhz);
        }
    }

    bench::section("(a) throughput (MOps/s) vs local memory");
    std::printf("%10s", "local mem");
    for (const std::uint32_t size : sizes)
        std::printf(" %9uB", size);
    std::printf("\n");
    for (int i = 0; i < bench::localMemSweepPoints; i++) {
        std::printf("%10s", bench::pct(bench::localMemSweep[i]).c_str());
        for (int s = 0; s < numSizes; s++)
            std::printf(" %10.3f", mops[i][s]);
        std::printf("\n");
    }

    bench::section("(b) fixed 25% local memory");
    std::printf("%10s %14s\n", "obj size", "MOps/s");
    const int quarter = bench::localMemSweepIndex(0.25);
    for (int s = 0; s < numSizes; s++)
        std::printf("%9uB %14.3f\n", sizes[s], mops[quarter][s]);
    std::printf("\nPaper reference: throughput increases monotonically "
                "as object size shrinks toward 256 B.\n");
    return 0;
}
