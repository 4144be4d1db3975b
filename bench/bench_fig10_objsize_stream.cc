/**
 * @file
 * Figure 10: impact of object size on STREAM copy bandwidth (perfect
 * spatial locality): larger objects win.
 */

#include <cstdio>
#include <iterator>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/stream.hh"

using namespace tfm;

namespace
{

double
runStream(std::uint32_t object_size, double local_fraction,
          const CostParams &costs)
{
    BackendConfig cfg;
    cfg.kind = SystemKind::TrackFm;
    cfg.farHeapBytes = 32 << 20;
    cfg.objectSizeBytes = object_size;
    cfg.prefetchEnabled = true;
    cfg.chunkPolicy = ChunkPolicy::CostModel;
    const std::uint64_t elements = 1u << 20; // 4 MB per array
    const std::uint64_t working_set = 2 * elements * 4;
    cfg.localMemBytes =
        bench::localBytesFor(local_fraction, working_set, object_size);

    auto backend = makeBackend(cfg, costs);
    StreamWorkload stream(*backend, elements, 2, 4);
    stream.runCopy(); // steady-state warm-up
    return stream.runCopy().bandwidthMBps(costs.cpuGhz);
}

} // anonymous namespace

int
main()
{
    const CostParams costs;
    bench::banner(
        "Figure 10 - object size on STREAM copy (memory bandwidth)",
        "high spatial locality favours larger (4 KB) objects",
        "8 MB working set standing in for the paper's 9 GB");

    const std::uint32_t sizes[] = {4096, 2048, 1024, 512, 256};
    constexpr int numSizes = std::size(sizes);

    // Each (local memory, object size) point runs once; (b) is (a)'s
    // 25% row.
    double mbps[bench::localMemSweepPoints][numSizes];
    for (int i = 0; i < bench::localMemSweepPoints; i++) {
        for (int s = 0; s < numSizes; s++)
            mbps[i][s] = runStream(sizes[s], bench::localMemSweep[i], costs);
    }

    bench::section("(a) bandwidth (MB/s) vs local memory");
    std::printf("%10s", "local mem");
    for (const std::uint32_t size : sizes)
        std::printf(" %9uB", size);
    std::printf("\n");
    for (int i = 0; i < bench::localMemSweepPoints; i++) {
        std::printf("%10s", bench::pct(bench::localMemSweep[i]).c_str());
        for (int s = 0; s < numSizes; s++)
            std::printf(" %10.1f", mbps[i][s]);
        std::printf("\n");
    }

    bench::section("(b) fixed 25% local memory");
    std::printf("%10s %14s\n", "obj size", "MB/s");
    const int quarter = bench::localMemSweepIndex(0.25);
    for (int s = 0; s < numSizes; s++)
        std::printf("%9uB %14.1f\n", sizes[s], mbps[quarter][s]);

    std::printf("\nPaper reference: bandwidth increases monotonically "
                "with object size; 4 KB is best.\n");
    return 0;
}
