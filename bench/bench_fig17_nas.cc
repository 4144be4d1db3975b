/**
 * @file
 * Figure 17: NAS kernels at 25% local memory — (a) TrackFM vs Fastswap
 * slowdowns normalized to local-only; (b) FT and SP with the O1
 * pre-optimization pipeline (redundant loads eliminated before guard
 * insertion).
 */

#include <cmath>
#include <string>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "workloads/backend_config.hh"
#include "workloads/nas.hh"

using namespace tfm;

namespace
{

struct KernelRun
{
    std::uint64_t cycles;
    std::uint64_t guards;
};

KernelRun
runOne(const char *name, SystemKind kind, bool pre_optimized)
{
    NasParams params;
    params.seed = bench::runSeed(params.seed);
    // Scales chosen so per-line working sets fit 25% local memory, as
    // they do at the paper's class C/D sizes (SP's penta-diagonal line
    // state is the largest).
    params.scale = (std::string(name) == "sp") ? 48 : 32;
    params.iterations = 1;
    params.preOptimized = pre_optimized;

    BackendConfig cfg;
    cfg.kind = kind;
    cfg.farHeapBytes = 64 << 20;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = true;
    cfg.chunkPolicy = ChunkPolicy::CostModel;

    auto probe = makeBackend(cfg, CostParams{});
    const std::uint64_t working_set =
        makeNasKernel(name, *probe, params)->workingSetBytes();

    cfg.localMemBytes = bench::localBytesFor(
        kind == SystemKind::Local ? 1.0 : 0.25, working_set, 4096);
    auto backend = makeBackend(cfg, CostParams{});
    auto kernel = makeNasKernel(name, *backend, params);
    const NasResult result = kernel->run();
    return {result.delta.cycles, result.delta.guardEvents};
}

} // anonymous namespace

int
main()
{
    bench::banner(
        "Figure 17 - NAS kernels, 25% local memory",
        "TrackFM beats Fastswap on most kernels; FT is the outlier "
        "until the O1 pipeline trims its guard count",
        "scale-16 kernels (MBs) standing in for NAS classes C/D (GBs)");

    const char *kernels[] = {"cg", "ft", "is", "mg", "sp"};

    // Each (kernel, system) point runs once; section (b) reuses
    // section (a)'s runs of FT and SP and adds only the O1 runs.
    struct Row
    {
        const char *name;
        KernelRun local, fsw, tfm;
    };
    std::vector<Row> rows;
    for (const char *name : kernels) {
        rows.push_back({name, runOne(name, SystemKind::Local, false),
                        runOne(name, SystemKind::Fastswap, false),
                        runOne(name, SystemKind::TrackFm, false)});
    }

    bench::section("(a) slowdown vs local-only");
    std::printf("%6s %12s %12s\n", "bench", "Fastswap", "TrackFM");
    double geo_fsw = 1.0, geo_tfm = 1.0;
    for (const Row &row : rows) {
        const double fsw_slow = static_cast<double>(row.fsw.cycles) /
                                static_cast<double>(row.local.cycles);
        const double tfm_slow = static_cast<double>(row.tfm.cycles) /
                                static_cast<double>(row.local.cycles);
        geo_fsw *= fsw_slow;
        geo_tfm *= tfm_slow;
        std::printf("%6s %11.2fx %11.2fx\n", row.name, fsw_slow, tfm_slow);
    }
    std::printf("%6s %11.2fx %11.2fx\n", "GeoM.",
                std::pow(geo_fsw, 1.0 / 5.0),
                std::pow(geo_tfm, 1.0 / 5.0));

    bench::section("(b) FT and SP with the O1 pipeline (TFM/O1)");
    std::printf("%6s %10s %10s %10s %14s\n", "bench", "FSwap", "TFM",
                "TFM/O1", "guard cut");
    for (const Row &row : rows) {
        if (std::string(row.name) != "ft" && std::string(row.name) != "sp")
            continue;
        const KernelRun tfm_o1 = runOne(row.name, SystemKind::TrackFm, true);
        std::printf("%6s %9.2fx %9.2fx %9.2fx %13.1fx\n", row.name,
                    static_cast<double>(row.fsw.cycles) / row.local.cycles,
                    static_cast<double>(row.tfm.cycles) / row.local.cycles,
                    static_cast<double>(tfm_o1.cycles) / row.local.cycles,
                    static_cast<double>(row.tfm.guards) /
                        static_cast<double>(tfm_o1.guards));
    }
    std::printf("\nPaper reference: O1 cuts FT memory instructions ~6x "
                "and SP ~4x, dramatically reducing guard overheads.\n");
    return 0;
}
