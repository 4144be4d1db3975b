/**
 * @file
 * Integration tests for the application workloads: identical results on
 * every memory system, plus the qualitative properties each paper
 * figure depends on.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>

#include "sim/usr_dist.hh"
#include "workloads/backend_config.hh"
#include "workloads/dataframe.hh"
#include "workloads/hashmap.hh"
#include "workloads/kmeans.hh"
#include "workloads/memcached.hh"
#include "workloads/nas.hh"
#include "workloads/stream.hh"

namespace tfm
{
namespace
{

BackendConfig
baseConfig(SystemKind kind)
{
    BackendConfig cfg;
    cfg.kind = kind;
    cfg.farHeapBytes = 64 << 20;
    cfg.localMemBytes = 4 << 20;
    cfg.objectSizeBytes = 4096;
    return cfg;
}

const SystemKind allSystems[] = {SystemKind::Local, SystemKind::TrackFm,
                                 SystemKind::Fastswap, SystemKind::Aifm};

TEST(HashmapWorkload, AllLookupsHitOnEveryBackend)
{
    HashmapParams params;
    params.numKeys = 20000;
    params.numOps = 50000;
    for (const SystemKind kind : allSystems) {
        auto backend = makeBackend(baseConfig(kind), CostParams{});
        HashmapWorkload workload(*backend, params);
        const HashmapResult r = workload.run();
        EXPECT_EQ(r.hits, params.numOps) << systemName(kind);
        EXPECT_GE(r.probes, r.hits) << systemName(kind);
    }
}

TEST(HashmapWorkload, SmallObjectsReduceDataTransferred)
{
    // Fig. 9/13's mechanism: zipf lookups at 4 B granularity fetch less
    // with small objects.
    HashmapParams params;
    params.numKeys = 50000;
    params.numOps = 50000;
    std::uint64_t bytes_small = 0, bytes_large = 0;
    for (const std::uint32_t objsize : {256u, 4096u}) {
        auto cfg = baseConfig(SystemKind::TrackFm);
        cfg.objectSizeBytes = objsize;
        cfg.localMemBytes = 1 << 20; // heavy pressure
        cfg.prefetchEnabled = false;
        auto backend = makeBackend(cfg, CostParams{});
        HashmapWorkload workload(*backend, params);
        const HashmapResult r = workload.run();
        (objsize == 256 ? bytes_small : bytes_large) =
            r.delta.bytesFetched;
    }
    EXPECT_LT(bytes_small * 2, bytes_large);
}

TEST(KMeansWorkload, ClusterSizesAgreeAcrossBackends)
{
    KMeansParams params;
    params.numPoints = 5000;
    params.iterations = 1;
    std::vector<std::uint64_t> reference;
    for (const SystemKind kind : allSystems) {
        auto backend = makeBackend(baseConfig(kind), CostParams{});
        KMeansWorkload workload(*backend, params);
        const KMeansResult r = workload.run();
        std::uint64_t total = 0;
        for (const auto count : r.clusterSizes)
            total += count;
        EXPECT_EQ(total, params.numPoints) << systemName(kind);
        if (reference.empty())
            reference = r.clusterSizes;
        else
            EXPECT_EQ(r.clusterSizes, reference) << systemName(kind);
    }
}

TEST(KMeansWorkload, ChunkingAllLoopsIsHarmful)
{
    // Fig. 8: indiscriminate chunking of the low-density nested loops
    // slows k-means down; the cost model avoids it.
    KMeansParams params;
    params.numPoints = 5000;
    params.iterations = 1;

    std::uint64_t cycles_by_policy[3] = {};
    const ChunkPolicy policies[] = {ChunkPolicy::None, ChunkPolicy::All,
                                    ChunkPolicy::CostModel};
    for (int i = 0; i < 3; i++) {
        auto cfg = baseConfig(SystemKind::TrackFm);
        cfg.chunkPolicy = policies[i];
        auto backend = makeBackend(cfg, CostParams{});
        KMeansWorkload workload(*backend, params);
        cycles_by_policy[i] = workload.run().delta.cycles;
    }
    // All-loops must be clearly slower than the naive baseline...
    EXPECT_GT(cycles_by_policy[1], cycles_by_policy[0] * 2);
    // ...and the cost model must beat the baseline.
    EXPECT_LT(cycles_by_policy[2], cycles_by_policy[0]);
}

TEST(MemcachedWorkload, GetsHitAndVerifyOnEveryBackend)
{
    MemcachedParams params;
    params.numKeys = 10000;
    params.numGets = 20000;
    for (const SystemKind kind : allSystems) {
        auto cfg = baseConfig(kind);
        cfg.objectSizeBytes = (kind == SystemKind::TrackFm ||
                               kind == SystemKind::Aifm)
                                  ? 64
                                  : 4096;
        auto backend = makeBackend(cfg, CostParams{});
        MemcachedWorkload workload(*backend, params);
        const MemcachedResult r = workload.run();
        EXPECT_EQ(r.hits, params.numGets) << systemName(kind);
        EXPECT_GT(r.valueBytesRead, 0u) << systemName(kind);
    }
}

TEST(MemcachedWorkload, FastswapAmplifiesIoVersusTrackFm)
{
    // Fig. 16c: page-granularity transfers amplify I/O massively for
    // tiny key/value pairs; 64 B objects keep it modest.
    MemcachedParams params;
    params.numKeys = 50000;
    params.numGets = 20000;
    params.zipfSkew = 1.02;

    // Local memory an order of magnitude below the working set: at
    // 64 B granularity the hot items fit, at page granularity every hot
    // item drags 4 KB of cold neighbours along and thrashes.
    auto tfm_cfg = baseConfig(SystemKind::TrackFm);
    tfm_cfg.objectSizeBytes = 64;
    tfm_cfg.localMemBytes = 512 << 10;
    tfm_cfg.prefetchEnabled = false;
    auto fsw_cfg = baseConfig(SystemKind::Fastswap);
    fsw_cfg.localMemBytes = 512 << 10;
    fsw_cfg.prefetchEnabled = false;

    auto tfm_backend = makeBackend(tfm_cfg, CostParams{});
    auto fsw_backend = makeBackend(fsw_cfg, CostParams{});
    MemcachedWorkload tfm_workload(*tfm_backend, params);
    MemcachedWorkload fsw_workload(*fsw_backend, params);
    const MemcachedResult tr = tfm_workload.run();
    const MemcachedResult fr = fsw_workload.run();
    EXPECT_EQ(tr.hits, fr.hits);
    EXPECT_LT(tr.delta.bytesFetched * 4, fr.delta.bytesFetched);
    EXPECT_LT(tr.delta.cycles, fr.delta.cycles);
}

TEST(MemcachedWorkload, SetThenGetRoundTrip)
{
    auto backend = makeBackend(baseConfig(SystemKind::TrackFm),
                               CostParams{});
    MemcachedParams params;
    params.numKeys = 100;
    params.numGets = 10;
    MemcachedWorkload workload(*backend, params);
    const std::uint8_t payload[5] = {9, 8, 7, 6, 5};
    workload.set(1000000, payload, sizeof(payload));
    std::uint8_t out[16];
    const int len = workload.get(1000000, out, sizeof(out));
    ASSERT_EQ(len, 5);
    EXPECT_EQ(std::memcmp(out, payload, 5), 0);
}

/**
 * Every key's get returns the value the fill wrote for it: the length
 * drawn by the store's own USR size stream and the bytes k*131+i. A
 * broken index-to-item association names the first key it breaks.
 */
TEST(MemcachedWorkload, EveryKeyReadsItsOwnValue)
{
    MemcachedParams params;
    params.numKeys = 50000;
    for (const SystemKind kind :
         {SystemKind::TrackFm, SystemKind::Fastswap}) {
        auto cfg = baseConfig(kind);
        if (kind == SystemKind::TrackFm)
            cfg.objectSizeBytes = 64;
        auto backend = makeBackend(cfg, CostParams{});
        MemcachedWorkload workload(*backend, params);
        UsrSizeDist sizes(params.seed);
        std::uint8_t out[512];
        for (std::uint64_t k = 0; k < params.numKeys; k++) {
            const std::uint32_t len = sizes.next().valueBytes;
            ASSERT_EQ(workload.get(k, out, sizeof(out)),
                      static_cast<int>(len))
                << systemName(kind) << " key " << k;
            for (std::uint32_t i = 0; i < len; i++) {
                ASSERT_EQ(out[i], static_cast<std::uint8_t>(k * 131 + i))
                    << systemName(kind) << " key " << k << " byte " << i;
            }
        }
    }
}

/**
 * The fill's ranges tile [0, n) in order, each index exactly once, and
 * their number follows min(4, max(1, n / 65536)).
 */
TEST(FillRange, SplitCoversEveryIndexOnce)
{
    const struct
    {
        std::uint64_t n;
        std::size_t ranges;
    } cases[] = {{0, 1}, {1, 1}, {65535, 1}, {65536, 1}, {131072, 2},
                 {262145, 4}, {1000000, 4}};
    for (const auto &c : cases) {
        ASSERT_EQ(fillRangeCount(c.n), c.ranges) << c.n;
        const std::vector<FillRange> ranges = splitFill(c.n, c.ranges);
        ASSERT_EQ(ranges.size(), c.ranges) << c.n;
        std::vector<int> covered(c.n, 0);
        std::uint64_t next = 0;
        for (const FillRange &r : ranges) {
            EXPECT_EQ(r.lo, next) << c.n; // ordered, no gap or overlap
            EXPECT_LE(r.lo, r.hi) << c.n;
            EXPECT_LE(r.hi - r.lo, c.n / c.ranges + 1) << c.n;
            for (std::uint64_t i = r.lo; i < r.hi && i < c.n; i++)
                covered[i]++;
            next = r.hi;
        }
        EXPECT_EQ(next, c.n);
        for (std::uint64_t i = 0; i < c.n; i++)
            ASSERT_EQ(covered[i], 1) << c.n << " index " << i;
    }
}

/**
 * A far heap smaller than the smallest memcached index (16 buckets,
 * 256 B): parameters must be rejected before anything is allocated, or
 * the store dies as "far heap exhausted" instead.
 */
std::unique_ptr<MemBackend>
heaplessBackend()
{
    auto cfg = baseConfig(SystemKind::Local);
    cfg.farHeapBytes = 128;
    return makeBackend(cfg, CostParams{});
}

TEST(MemcachedWorkload, OversizedKeyCountIsFatal)
{
    auto backend = heaplessBackend();
    MemcachedParams params;
    params.numKeys = std::numeric_limits<std::uint32_t>::max();
    EXPECT_DEATH(MemcachedWorkload(*backend, params), "numKeys");
    // numKeys * 2 would overflow while sizing the index.
    params.numKeys = std::numeric_limits<std::uint64_t>::max();
    EXPECT_DEATH(MemcachedWorkload(*backend, params), "numKeys");
}

TEST(MemcachedWorkload, EmptyStoreWithGetsIsFatal)
{
    auto backend = heaplessBackend();
    MemcachedParams params;
    params.numKeys = 0;
    params.numGets = 1;
    EXPECT_DEATH(MemcachedWorkload(*backend, params), "numKeys is 0");
}

/** FNV-1a over @p len bytes, continuing from @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t len)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < len; i++) {
        h ^= bytes[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Forwards every call to an inner backend and records each allocation,
 * so a test can hash exactly the far-heap bytes a workload allocated.
 */
class AllocRecorder : public MemBackend
{
  public:
    struct Block
    {
        std::uint64_t addr;
        std::uint64_t bytes;
    };

    explicit AllocRecorder(MemBackend &inner) : in(inner) {}

    const std::vector<Block> &blocks() const { return allocs; }

    std::string name() const override { return in.name(); }

    std::uint64_t
    alloc(std::uint64_t bytes) override
    {
        const std::uint64_t addr = in.alloc(bytes);
        allocs.push_back(Block{addr, bytes});
        return addr;
    }

    std::uint64_t
    allocZeroed(std::uint64_t bytes) override
    {
        const std::uint64_t addr = in.allocZeroed(bytes);
        allocs.push_back(Block{addr, bytes});
        return addr;
    }

    void dealloc(std::uint64_t addr) override { in.dealloc(addr); }

    void
    read(std::uint64_t addr, void *dst, std::size_t len,
         AccessHint hint) override
    {
        in.read(addr, dst, len, hint);
    }

    void
    write(std::uint64_t addr, const void *src, std::size_t len,
          AccessHint hint) override
    {
        in.write(addr, src, len, hint);
    }

    std::unique_ptr<SeqStream>
    stream(std::uint64_t addr, std::uint32_t elem_size, std::uint64_t count,
           StreamMode mode) override
    {
        return in.stream(addr, elem_size, count, mode);
    }

    void compute(std::uint64_t cycles) override { in.compute(cycles); }

    void
    initWrite(std::uint64_t addr, const void *src, std::size_t len) override
    {
        in.initWrite(addr, src, len);
    }

    void
    initRead(std::uint64_t addr, void *dst, std::size_t len) override
    {
        in.initRead(addr, dst, len);
    }

    void dropCaches() override { in.dropCaches(); }
    std::uint64_t cycles() const override { return in.cycles(); }
    std::uint64_t farEvents() const override { return in.farEvents(); }
    std::uint64_t guardEvents() const override { return in.guardEvents(); }
    std::uint64_t bytesFetched() const override { return in.bytesFetched(); }

    std::uint64_t
    bytesTransferred() const override
    {
        return in.bytesTransferred();
    }

    StatSet stats() const override { return in.stats(); }

  private:
    MemBackend &in;
    std::vector<Block> allocs;
};

/** Expected set-up image of one workload on one backend. */
struct FillPin
{
    SystemKind kind;
    std::uint64_t hash;
    std::uint64_t cycles;
};

/**
 * Build a workload with @p build on each pinned backend (TrackFM at
 * 64-B objects) and check its set-up image: the FNV-1a of every block it
 * allocated (address, size, then every byte, in allocation order) and
 * the cycles on the clock once construction returns.
 */
template <typename Build>
void
expectFillImage(const FillPin (&pins)[3], Build build)
{
    for (const FillPin &pin : pins) {
        auto cfg = baseConfig(pin.kind);
        if (pin.kind == SystemKind::TrackFm)
            cfg.objectSizeBytes = 64;
        auto backend = makeBackend(cfg, CostParams{});
        AllocRecorder recorder(*backend);
        const auto workload = build(recorder);
        const std::uint64_t cycles = backend->cycles();

        std::uint64_t h = 0xcbf29ce484222325ull;
        std::vector<std::uint8_t> bytes;
        for (const AllocRecorder::Block &block : recorder.blocks()) {
            h = fnv1a(h, &block, sizeof(block));
            bytes.resize(block.bytes);
            backend->initRead(block.addr, bytes.data(), bytes.size());
            h = fnv1a(h, bytes.data(), bytes.size());
        }
        EXPECT_EQ(h, pin.hash) << systemName(pin.kind) << std::hex
                               << " hash 0x" << h << std::dec;
        EXPECT_EQ(cycles, pin.cycles) << systemName(pin.kind);
    }
}

/**
 * Build a @p num_keys memcached store on each pinned backend (TrackFM at
 * 64-B objects) and check its far-heap image and set-up cycles. The
 * hash covers the whole index, then each item (header, key and value
 * bytes) in bucket order.
 */
void
expectMemcachedImage(const FillPin (&pins)[3], std::uint64_t num_keys)
{
    MemcachedParams params;
    params.numKeys = num_keys;
    params.seed = 13;
    for (const FillPin &pin : pins) {
        auto cfg = baseConfig(pin.kind);
        if (pin.kind == SystemKind::TrackFm)
            cfg.objectSizeBytes = 64;
        auto backend = makeBackend(cfg, CostParams{});
        MemcachedWorkload workload(*backend, params);
        const std::uint64_t cycles = backend->cycles();

        struct Bucket
        {
            std::uint64_t itemAddr;
            std::uint64_t keyFingerprint;
        };
        std::vector<Bucket> index(workload.bucketCount());
        backend->initRead(workload.indexAddress(), index.data(),
                          index.size() * sizeof(Bucket));
        std::uint64_t h = fnv1a(0xcbf29ce484222325ull, index.data(),
                                index.size() * sizeof(Bucket));
        std::uint64_t items = 0;
        std::vector<std::uint8_t> item;
        for (const Bucket &bucket : index) {
            if (bucket.itemAddr == 0)
                continue;
            struct
            {
                std::uint64_t key;
                std::uint32_t keyLen;
                std::uint32_t valueLen;
            } header;
            backend->initRead(bucket.itemAddr, &header, sizeof(header));
            item.resize(sizeof(header) + header.keyLen + header.valueLen);
            backend->initRead(bucket.itemAddr, item.data(), item.size());
            h = fnv1a(h, item.data(), item.size());
            items++;
        }
        EXPECT_EQ(items, params.numKeys) << systemName(pin.kind);
        EXPECT_EQ(h, pin.hash) << systemName(pin.kind) << std::hex
                               << " hash 0x" << h << std::dec;
        EXPECT_EQ(cycles, pin.cycles) << systemName(pin.kind);
    }
}

/**
 * The store's far-heap image and set-up cycles are part of every
 * memcached result: pin both per backend.
 */
TEST(MemcachedWorkload, FillImageIsPinned)
{
    const FillPin pins[] = {
        {SystemKind::Local, 0x618dd389d567fca6ull, 2400120},
        {SystemKind::TrackFm, 0x61c99a8bf8f2c8bcull, 2400120},
        {SystemKind::Fastswap, 0x618dd389d567fca6ull, 2400120},
    };
    expectMemcachedImage(pins, 20000);
}

/**
 * 262144 keys fill in four ranges on four threads: the image and the
 * clock must be the ones the single-threaded fill left.
 */
TEST(MemcachedWorkload, FillImageIsPinnedAcrossRanges)
{
    const FillPin pins[] = {
        {SystemKind::Local, 0x62248636350d74ffull, 31457400},
        {SystemKind::TrackFm, 0xcea5fd1f3cc3d621ull, 31457400},
        {SystemKind::Fastswap, 0x62248636350d74ffull, 31457400},
    };
    expectMemcachedImage(pins, 262144);
}

TEST(StreamWorkload, FillImageIsPinned)
{
    const FillPin pins[] = {
        {SystemKind::Local, 0x78045d99f844d192ull, 360},
        {SystemKind::TrackFm, 0xb4a9aa94b487f8e2ull, 360},
        {SystemKind::Fastswap, 0x78045d99f844d192ull, 360},
    };
    expectFillImage(pins, [](MemBackend &b) {
        return std::make_unique<StreamWorkload>(b, 20000, 3, 4);
    });
}

TEST(DataframeWorkload, FillImageIsPinned)
{
    const FillPin pins[] = {
        {SystemKind::Local, 0x435814290dc58e9aull, 150840},
        {SystemKind::TrackFm, 0xe79d889a6bdaf16aull, 150840},
        {SystemKind::Fastswap, 0x435814290dc58e9aull, 150840},
    };
    DataframeParams params;
    params.numRows = 20000;
    expectFillImage(pins, [&](MemBackend &b) {
        return std::make_unique<DataframeWorkload>(b, params);
    });
}

TEST(HashmapWorkload, FillImageIsPinned)
{
    const FillPin pins[] = {
        {SystemKind::Local, 0x6a9f2f67e6c454d4ull, 240},
        {SystemKind::TrackFm, 0x9963e36555bfbef4ull, 240},
        {SystemKind::Fastswap, 0x6a9f2f67e6c454d4ull, 240},
    };
    HashmapParams params;
    params.numKeys = 20000;
    params.numOps = 50000;
    expectFillImage(pins, [&](MemBackend &b) {
        return std::make_unique<HashmapWorkload>(b, params);
    });
}

TEST(KMeansWorkload, FillImageIsPinned)
{
    const FillPin pins[] = {
        {SystemKind::Local, 0x4e963ca39559e185ull, 360},
        {SystemKind::TrackFm, 0x99fc9b0d21c5d095ull, 360},
        {SystemKind::Fastswap, 0x4e963ca39559e185ull, 360},
    };
    KMeansParams params;
    params.numPoints = 5000;
    expectFillImage(pins, [&](MemBackend &b) {
        return std::make_unique<KMeansWorkload>(b, params);
    });
}

TEST(DataframeWorkload, AnswersMatchReferenceOnEveryBackend)
{
    DataframeParams params;
    params.numRows = 20000;
    for (const SystemKind kind : allSystems) {
        auto backend = makeBackend(baseConfig(kind), CostParams{});
        DataframeWorkload workload(*backend, params);
        const DataframeResult r = workload.run();
        const DataframeAnswers &expected = workload.expected();
        EXPECT_EQ(r.answers.tripsWithManyPassengers,
                  expected.tripsWithManyPassengers)
            << systemName(kind);
        EXPECT_EQ(r.answers.longTrips, expected.longTrips)
            << systemName(kind);
        EXPECT_EQ(r.answers.groupAggregate, expected.groupAggregate)
            << systemName(kind);
        for (int h = 0; h < 24; h++) {
            EXPECT_EQ(r.answers.totalFareByHour[h],
                      expected.totalFareByHour[h])
                << systemName(kind) << " hour " << h;
        }
    }
}

TEST(DataframeWorkload, ChunkingAllLoopsHurtsOnRowGroups)
{
    // Fig. 15: the aggregation query's tiny row-group loops make the
    // All policy slower than the cost-model policy.
    DataframeParams params;
    params.numRows = 20000;
    std::uint64_t all_cycles = 0, model_cycles = 0;
    for (const ChunkPolicy policy :
         {ChunkPolicy::All, ChunkPolicy::CostModel}) {
        auto cfg = baseConfig(SystemKind::TrackFm);
        cfg.chunkPolicy = policy;
        auto backend = makeBackend(cfg, CostParams{});
        DataframeWorkload workload(*backend, params);
        const std::uint64_t cycles = workload.run().delta.cycles;
        (policy == ChunkPolicy::All ? all_cycles : model_cycles) = cycles;
    }
    EXPECT_GT(all_cycles, model_cycles);
}

class NasKernels : public ::testing::TestWithParam<const char *>
{
};

INSTANTIATE_TEST_SUITE_P(AllKernels, NasKernels,
                         ::testing::Values("cg", "ft", "is", "mg", "sp"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST_P(NasKernels, ChecksumMatchesLocalBaseline)
{
    NasParams params;
    params.scale = 8;
    double local_checksum = 0;
    for (const SystemKind kind :
         {SystemKind::Local, SystemKind::TrackFm, SystemKind::Fastswap}) {
        auto backend = makeBackend(baseConfig(kind), CostParams{});
        auto kernel = makeNasKernel(GetParam(), *backend, params);
        const NasResult r = kernel->run();
        if (kind == SystemKind::Local)
            local_checksum = r.checksum;
        else
            EXPECT_DOUBLE_EQ(r.checksum, local_checksum)
                << systemName(kind);
    }
}

TEST_P(NasKernels, FarMemoryCostsMoreThanLocal)
{
    NasParams params;
    params.scale = 8;
    auto local_cfg = baseConfig(SystemKind::Local);
    auto tfm_cfg = baseConfig(SystemKind::TrackFm);
    tfm_cfg.localMemBytes = 256 << 10;
    auto local_backend = makeBackend(local_cfg, CostParams{});
    auto tfm_backend = makeBackend(tfm_cfg, CostParams{});
    auto local_kernel = makeNasKernel(GetParam(), *local_backend, params);
    auto tfm_kernel = makeNasKernel(GetParam(), *tfm_backend, params);
    EXPECT_GT(tfm_kernel->run().delta.cycles,
              local_kernel->run().delta.cycles);
}

TEST_P(NasKernels, FillImageIsPinned)
{
    struct KernelPins
    {
        const char *name;
        FillPin pins[3];
    };
    const KernelPins table[] = {
        {"cg",
         {{SystemKind::Local, 0x1e3eecff8c5f2b38ull, 600},
          {SystemKind::TrackFm, 0xa0edefafaa207ec8ull, 600},
          {SystemKind::Fastswap, 0x1e3eecff8c5f2b38ull, 600}}},
        {"ft",
         {{SystemKind::Local, 0x8ddb39b37fa8b21full, 120},
          {SystemKind::TrackFm, 0xbaecc8d189479d8full, 120},
          {SystemKind::Fastswap, 0x8ddb39b37fa8b21full, 120}}},
        {"is",
         {{SystemKind::Local, 0xb61066c7419d37f2ull, 360},
          {SystemKind::TrackFm, 0xb14a96a7790916a2ull, 360},
          {SystemKind::Fastswap, 0xb61066c7419d37f2ull, 360}}},
        {"mg",
         {{SystemKind::Local, 0x82870a3ca02382deull, 240},
          {SystemKind::TrackFm, 0xcd89d591ea6111deull, 240},
          {SystemKind::Fastswap, 0x82870a3ca02382deull, 240}}},
        {"sp",
         {{SystemKind::Local, 0x80db435c783bcab3ull, 360},
          {SystemKind::TrackFm, 0x467eef7fa2579583ull, 360},
          {SystemKind::Fastswap, 0x80db435c783bcab3ull, 360}}},
    };
    NasParams params;
    params.scale = 8;
    for (const KernelPins &kernel : table) {
        if (std::string(kernel.name) != GetParam())
            continue;
        expectFillImage(kernel.pins, [&](MemBackend &b) {
            return makeNasKernel(kernel.name, b, params);
        });
    }
}

TEST(NasO1, PreOptimizationCutsGuardsForFtAndSp)
{
    // Fig. 17b: running the O1 pipeline before the TrackFM passes
    // removes redundant loads and their guards.
    for (const char *name : {"ft", "sp"}) {
        NasParams naive;
        naive.scale = 8;
        NasParams optimized = naive;
        optimized.preOptimized = true;

        auto naive_backend = makeBackend(baseConfig(SystemKind::TrackFm),
                                         CostParams{});
        auto opt_backend = makeBackend(baseConfig(SystemKind::TrackFm),
                                       CostParams{});
        auto naive_kernel = makeNasKernel(name, *naive_backend, naive);
        auto opt_kernel = makeNasKernel(name, *opt_backend, optimized);
        const NasResult rn = naive_kernel->run();
        const NasResult ro = opt_kernel->run();
        EXPECT_DOUBLE_EQ(rn.checksum, ro.checksum) << name;
        EXPECT_GT(rn.delta.guardEvents, ro.delta.guardEvents * 2) << name;
        EXPECT_GT(rn.delta.cycles, ro.delta.cycles) << name;
    }
}

TEST(NasFactory, RejectsUnknownKernels)
{
    auto backend = makeBackend(baseConfig(SystemKind::Local), CostParams{});
    EXPECT_EXIT(makeNasKernel("bogus", *backend, NasParams{}),
                ::testing::ExitedWithCode(1), "unknown NAS kernel");
}

} // namespace
} // namespace tfm
