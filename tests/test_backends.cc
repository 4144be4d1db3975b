/**
 * @file
 * Integration tests for the MemBackend layer across all four systems,
 * plus the STREAM workload's correctness on each.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "runtime/far_mem_runtime.hh"
#include "sim/rng.hh"
#include "tfm/tagged_ptr.hh"
#include "tfm/tfm_runtime.hh"
#include "workloads/backend_config.hh"
#include "workloads/stream.hh"

namespace tfm
{
namespace
{

BackendConfig
smallConfig(SystemKind kind)
{
    BackendConfig cfg;
    cfg.kind = kind;
    cfg.farHeapBytes = 8 << 20;
    cfg.localMemBytes = 1 << 20;
    cfg.objectSizeBytes = 4096;
    cfg.prefetchEnabled = true;
    return cfg;
}

class AllBackends : public ::testing::TestWithParam<SystemKind>
{
};

INSTANTIATE_TEST_SUITE_P(
    Systems, AllBackends,
    ::testing::Values(SystemKind::Local, SystemKind::TrackFm,
                      SystemKind::Fastswap, SystemKind::Aifm),
    [](const ::testing::TestParamInfo<SystemKind> &info) {
        return systemName(info.param);
    });

TEST_P(AllBackends, ReadWriteRoundTrip)
{
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint64_t addr = backend->alloc(64 * 1024);
    backend->writeT<std::uint64_t>(addr + 128, 0xabcdefull,
                                   AccessHint::Random);
    EXPECT_EQ(backend->readT<std::uint64_t>(addr + 128, AccessHint::Random),
              0xabcdefull);
}

TEST_P(AllBackends, InitIsUnmetered)
{
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint64_t addr = backend->alloc(4096);
    const std::uint64_t before = backend->cycles();
    backend->initT<std::uint64_t>(addr, 42);
    EXPECT_EQ(backend->cycles(), before);
    EXPECT_EQ(backend->peekT<std::uint64_t>(addr), 42u);
}

/** Expect every byte of [addr, addr + bytes) to read back as zero,
 *  unmetered and through a metered read of each 8-byte word. */
void
expectZeros(MemBackend &backend, std::uint64_t addr, std::uint64_t bytes)
{
    std::vector<std::byte> got(bytes, std::byte{1});
    backend.initRead(addr, got.data(), bytes);
    EXPECT_EQ(std::count(got.begin(), got.end(), std::byte{0}),
              static_cast<std::ptrdiff_t>(bytes));
    for (std::uint64_t i = 0; i < bytes; i += 8)
        ASSERT_EQ(backend.readT<std::uint64_t>(addr + i, AccessHint::Random),
                  0u)
            << "at byte " << i;
}

TEST_P(AllBackends, AllocZeroedReadsZeroFreshAndReused)
{
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    constexpr std::uint64_t bytes = 3 * 4096; // the 16 KB class
    backend->alloc(100);
    const std::uint64_t fresh = backend->allocZeroed(bytes);
    expectZeros(*backend, fresh, bytes);
    // Dirty the block through metered and unmetered writes, free it and
    // take the same class back: the reused block must be zeroed.
    for (std::uint64_t i = 0; i < bytes; i += 8)
        backend->writeT<std::uint64_t>(fresh + i, ~i, AccessHint::Random);
    backend->initT<std::uint64_t>(fresh + bytes - 8, 0x77);
    backend->dealloc(fresh);
    const std::uint64_t reused = backend->allocZeroed(bytes);
    ASSERT_EQ(reused, fresh);
    expectZeros(*backend, reused, bytes);
    backend->dropCaches();
    expectZeros(*backend, reused, bytes);
}

TEST_P(AllBackends, AllocZeroedChargesLikeAlloc)
{
    auto plain = makeBackend(smallConfig(GetParam()), CostParams{});
    auto zeroed = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint64_t a = plain->alloc(8192);
    const std::uint64_t z = zeroed->allocZeroed(8192);
    EXPECT_EQ(a, z);
    EXPECT_EQ(zeroed->cycles(), plain->cycles());
    plain->dealloc(a);
    zeroed->dealloc(z);
    EXPECT_EQ(zeroed->allocZeroed(8192), plain->alloc(8192)); // reused
    EXPECT_EQ(zeroed->cycles(), plain->cycles());
    EXPECT_EQ(zeroed->bytesTransferred(), plain->bytesTransferred());
}

TEST_P(AllBackends, InitWritePastTheFrontierPanics)
{
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint64_t addr = backend->alloc(4096);
    backend->initT<std::uint64_t>(addr + 4096 - 8, 1);
    EXPECT_DEATH(backend->initT<std::uint64_t>(addr + 4096 - 4, 1),
                 "raw write past the allocation frontier");
    EXPECT_DEATH(backend->initT<std::uint64_t>(addr + (1 << 20), 1),
                 "raw write past the allocation frontier");
}

TEST_P(AllBackends, StreamWritesThenReads)
{
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint64_t n = 10000;
    const std::uint64_t addr = backend->alloc(n * 8);
    {
        auto out = backend->stream(addr, 8, n, StreamMode::Write);
        for (std::uint64_t i = 0; i < n; i++) {
            const std::int64_t v = static_cast<std::int64_t>(i) * 3;
            out->write(&v);
        }
    }
    backend->dropCaches();
    {
        auto in = backend->stream(addr, 8, n, StreamMode::Read);
        for (std::uint64_t i = 0; i < n; i++) {
            std::int64_t v;
            in->read(&v);
            ASSERT_EQ(v, static_cast<std::int64_t>(i) * 3);
        }
    }
}

TEST_P(AllBackends, CyclesAdvanceWithWork)
{
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint64_t addr = backend->alloc(4096);
    const std::uint64_t before = backend->cycles();
    backend->readT<std::uint64_t>(addr, AccessHint::Random);
    EXPECT_GT(backend->cycles(), before);
}

TEST_P(AllBackends, ComputeChargesExactly)
{
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint64_t before = backend->cycles();
    backend->compute(12345);
    EXPECT_EQ(backend->cycles() - before, 12345u);
}

TEST_P(AllBackends, SnapshotDeltasAreWindowed)
{
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint64_t addr = backend->alloc(4096);
    backend->readT<std::uint64_t>(addr, AccessHint::Random);
    const BackendSnapshot a = snapshot(*backend);
    backend->readT<std::uint64_t>(addr, AccessHint::Random);
    const BackendSnapshot b = snapshot(*backend);
    const BackendSnapshot d = deltaSince(a, b);
    EXPECT_GT(d.cycles, 0u);
    EXPECT_LE(d.cycles, b.cycles);
}

TEST_P(AllBackends, InitWriterCrossesFlushBoundaryMidArray)
{
    // 12-byte records: 64 KB is not a multiple of 12, so one record
    // straddles each chunk boundary.
    struct Record
    {
        std::uint32_t a, b, c;
    };
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint32_t count =
        3 * InitWriter::chunkBytes / sizeof(Record) + 7;
    const std::uint64_t addr = backend->alloc(count * sizeof(Record));
    const std::uint64_t before = backend->cycles();
    {
        InitWriter out(*backend, addr);
        for (std::uint32_t i = 0; i < count; i++)
            out.put(Record{i, i * 3, ~i});
    }
    EXPECT_EQ(backend->cycles(), before); // set-up is unmetered

    std::vector<Record> back(count);
    backend->initRead(addr, back.data(), back.size() * sizeof(Record));
    std::uint32_t bad = 0;
    for (std::uint32_t i = 0; i < count; i++)
        bad += back[i].a != i || back[i].b != i * 3 || back[i].c != ~i;
    EXPECT_EQ(bad, 0u);

    const std::uint32_t straddler = InitWriter::chunkBytes / sizeof(Record);
    Record metered;
    backend->read(addr + straddler * sizeof(Record), &metered,
                  sizeof(metered), AccessHint::Random);
    EXPECT_EQ(metered.a, straddler);
    EXPECT_EQ(metered.b, straddler * 3);
    EXPECT_EQ(metered.c, ~straddler);
}

TEST_P(AllBackends, InitWriterDestructorFlushesTheTail)
{
    auto backend = makeBackend(smallConfig(GetParam()), CostParams{});
    const std::uint64_t addr = backend->alloc(4096);
    {
        InitWriter out(*backend, addr);
        out.put(std::uint64_t{0x1234});
        // Still buffered host-side until a flush.
        EXPECT_EQ(backend->peekT<std::uint64_t>(addr), 0u);
    }
    EXPECT_EQ(backend->peekT<std::uint64_t>(addr), 0x1234u);
}

/** A TrackFM runtime of 64-B objects and 16 frames, viewed as a backend. */
class InitWriterTfm : public ::testing::Test
{
  protected:
    static RuntimeConfig
    config()
    {
        RuntimeConfig cfg;
        cfg.farHeapBytes = 1 << 20;
        cfg.localMemBytes = 16 * 64;
        cfg.objectSizeBytes = 64;
        cfg.prefetchEnabled = false;
        // Keep an evicted dirty object parked until evacuateAll.
        cfg.writebackFlushCycles = 1ull << 40;
        return cfg;
    }

    TfmRuntime rt{config(), CostParams{}};
    std::unique_ptr<MemBackend> backend = makeSharedBackend(rt);
};

TEST_F(InitWriterTfm, ValueStraddlingAnObjectBoundary)
{
    const std::uint64_t addr = backend->alloc(256);
    const std::uint64_t boundary = addr + 64 - tfmOffsetOf(addr) % 64;
    const std::uint64_t value = 0x0102030405060708ull;
    {
        InitWriter out(*backend, boundary - 4);
        out.put(value);
    }
    EXPECT_EQ(backend->peekT<std::uint64_t>(boundary - 4), value);
    EXPECT_EQ(backend->readT<std::uint64_t>(boundary - 4,
                                            AccessHint::Random),
              value);
}

TEST_F(InitWriterTfm, WritesReachAFrameResidentObject)
{
    const std::uint64_t addr = backend->alloc(64);
    backend->writeT<std::uint64_t>(addr, 1, AccessHint::Random);
    ASSERT_TRUE(rt.runtime().isLocal(tfmOffsetOf(addr)));
    {
        InitWriter out(*backend, addr);
        out.put(std::uint64_t{2});
    }
    EXPECT_TRUE(rt.runtime().isLocal(tfmOffsetOf(addr)));
    EXPECT_EQ(backend->peekT<std::uint64_t>(addr), 2u);
    EXPECT_EQ(backend->readT<std::uint64_t>(addr, AccessHint::Random), 2u);
}

TEST_F(InitWriterTfm, WritesReachAnObjectParkedForWriteback)
{
    const std::uint64_t addr = backend->alloc(64 * 64);
    backend->writeT<std::uint64_t>(addr, 1, AccessHint::Random);
    // Sweep the other objects until the dirty one is evicted into the
    // coalescing writeback buffer.
    for (std::uint64_t i = 1; i < 64; i++)
        backend->readT<std::uint64_t>(addr + i * 64, AccessHint::Random);
    ASSERT_FALSE(rt.runtime().isLocal(tfmOffsetOf(addr)));
    ASSERT_EQ(rt.runtime().pendingWritebacks(), 1u);
    {
        InitWriter out(*backend, addr);
        out.put(std::uint64_t{2});
    }
    EXPECT_EQ(backend->peekT<std::uint64_t>(addr), 2u);
    EXPECT_EQ(backend->readT<std::uint64_t>(addr, AccessHint::Random), 2u);
    // And the parked copy's eventual flush does not bring back the 1.
    backend->dropCaches();
    EXPECT_EQ(backend->peekT<std::uint64_t>(addr), 2u);
}

TEST_F(InitWriterTfm, AllocZeroedClearsAReusedFrameResidentBlock)
{
    const std::uint64_t addr = backend->alloc(64);
    backend->writeT<std::uint64_t>(addr, ~0ull, AccessHint::Random);
    ASSERT_TRUE(rt.runtime().isLocal(tfmOffsetOf(addr)));
    backend->dealloc(addr);
    ASSERT_EQ(backend->allocZeroed(64), addr);
    EXPECT_TRUE(rt.runtime().isLocal(tfmOffsetOf(addr)));
    expectZeros(*backend, addr, 64);
    // The dirty frame's writeback carries the zeros too.
    backend->dropCaches();
    expectZeros(*backend, addr, 64);
}

TEST_F(InitWriterTfm, AllocZeroedClearsAReusedBlockParkedForWriteback)
{
    const std::uint64_t addr = backend->alloc(64 * 64);
    backend->writeT<std::uint64_t>(addr, ~0ull, AccessHint::Random);
    for (std::uint64_t i = 1; i < 64; i++)
        backend->readT<std::uint64_t>(addr + i * 64, AccessHint::Random);
    ASSERT_FALSE(rt.runtime().isLocal(tfmOffsetOf(addr)));
    ASSERT_EQ(rt.runtime().pendingWritebacks(), 1u);
    backend->dealloc(addr);
    ASSERT_EQ(backend->allocZeroed(64 * 64), addr);
    EXPECT_EQ(backend->peekT<std::uint64_t>(addr), 0u);
    // The parked copy's eventual flush does not bring the old bytes back.
    backend->dropCaches();
    expectZeros(*backend, addr, 64 * 64);
}

TEST(BackendCosts, FarBackendsChargeMoreThanLocal)
{
    const std::uint64_t n = 20000;
    std::uint64_t local_cycles = 0;
    for (const SystemKind kind :
         {SystemKind::Local, SystemKind::TrackFm, SystemKind::Fastswap,
          SystemKind::Aifm}) {
        auto cfg = smallConfig(kind);
        cfg.localMemBytes = 256 << 10; // pressure: 1/8 of heap... approx
        auto backend = makeBackend(cfg, CostParams{});
        StreamWorkload stream(*backend, n);
        const StreamResult r = stream.runSum();
        EXPECT_EQ(r.checksum, stream.expectedSum())
            << systemName(kind) << " computed a wrong sum";
        if (kind == SystemKind::Local)
            local_cycles = r.delta.cycles;
        else
            EXPECT_GT(r.delta.cycles, local_cycles) << systemName(kind);
    }
    EXPECT_GT(local_cycles, 0u);
}

TEST(BackendCosts, TrackFmTransfersLessThanFastswapOnSmallObjects)
{
    // Random 8-byte reads over a heap: Fastswap moves 4 KB per miss,
    // TrackFM with 256 B objects moves 16x less (Fig. 13's mechanism).
    const std::uint64_t heap = 4 << 20;
    auto tfm_cfg = smallConfig(SystemKind::TrackFm);
    tfm_cfg.objectSizeBytes = 256;
    tfm_cfg.localMemBytes = 256 << 10;
    tfm_cfg.prefetchEnabled = false;
    auto fsw_cfg = smallConfig(SystemKind::Fastswap);
    fsw_cfg.localMemBytes = 256 << 10;
    fsw_cfg.prefetchEnabled = false;

    auto run = [&](MemBackend &backend) {
        const std::uint64_t addr = backend.alloc(heap / 2);
        Rng rng(5);
        for (int i = 0; i < 20000; i++) {
            const std::uint64_t at = (rng.below(heap / 2 / 8)) * 8;
            backend.readT<std::uint64_t>(addr + at, AccessHint::Random);
        }
        return backend.bytesFetched();
    };

    auto tfm_backend = makeBackend(tfm_cfg, CostParams{});
    auto fsw_backend = makeBackend(fsw_cfg, CostParams{});
    const std::uint64_t tfm_bytes = run(*tfm_backend);
    const std::uint64_t fsw_bytes = run(*fsw_backend);
    EXPECT_LT(tfm_bytes * 4, fsw_bytes);
}

TEST(StreamWorkload, CopyVerifiesOnAllBackends)
{
    for (const SystemKind kind :
         {SystemKind::Local, SystemKind::TrackFm, SystemKind::Fastswap,
          SystemKind::Aifm}) {
        auto backend = makeBackend(smallConfig(kind), CostParams{});
        StreamWorkload stream(*backend, 50000);
        stream.runCopy();
        EXPECT_TRUE(stream.verifyCopy()) << systemName(kind);
    }
}

TEST(StreamWorkload, TriadRuns)
{
    auto backend = makeBackend(smallConfig(SystemKind::TrackFm),
                               CostParams{});
    StreamWorkload stream(*backend, 20000, 3);
    const StreamResult r = stream.runTriad();
    EXPECT_GT(r.delta.cycles, 0u);
    EXPECT_GT(r.bytesTouched, 0u);
}

TEST(StreamWorkload, ChunkingReducesGuardsOnTrackFm)
{
    auto naive_cfg = smallConfig(SystemKind::TrackFm);
    naive_cfg.chunkPolicy = ChunkPolicy::None;
    auto chunk_cfg = smallConfig(SystemKind::TrackFm);
    chunk_cfg.chunkPolicy = ChunkPolicy::All;

    const std::uint64_t n = 100000;
    auto naive_backend = makeBackend(naive_cfg, CostParams{});
    auto chunk_backend = makeBackend(chunk_cfg, CostParams{});
    StreamWorkload naive(*naive_backend, n);
    StreamWorkload chunked(*chunk_backend, n);

    const StreamResult rn = naive.runSum();
    const StreamResult rc = chunked.runSum();
    EXPECT_EQ(rn.checksum, rc.checksum);
    // Naive: one guard per element. Chunked: none (boundary checks and
    // locality guards instead).
    EXPECT_GE(rn.delta.guardEvents, n);
    EXPECT_LT(rc.delta.guardEvents, n / 100);
    // And chunking is faster at this density (1024 > break-even 730).
    EXPECT_LT(rc.delta.cycles, rn.delta.cycles);
}

TEST(StreamWorkload, PrefetchSpeedsUpColdSweep)
{
    auto on_cfg = smallConfig(SystemKind::TrackFm);
    on_cfg.localMemBytes = 512 << 10; // heavy pressure: 1/3 of data
    auto off_cfg = on_cfg;
    off_cfg.prefetchEnabled = false;

    const std::uint64_t n = 100000; // 800 KB per array
    auto on_backend = makeBackend(on_cfg, CostParams{});
    auto off_backend = makeBackend(off_cfg, CostParams{});
    StreamWorkload with_prefetch(*on_backend, n);
    StreamWorkload without_prefetch(*off_backend, n);

    const StreamResult r_on = with_prefetch.runSum();
    const StreamResult r_off = without_prefetch.runSum();
    EXPECT_EQ(r_on.checksum, r_off.checksum);
    EXPECT_LT(r_on.delta.cycles, r_off.delta.cycles);
}

TEST(BackendFactory, NamesAreStable)
{
    EXPECT_STREQ(systemName(SystemKind::Local), "Local");
    EXPECT_STREQ(systemName(SystemKind::TrackFm), "TrackFM");
    EXPECT_STREQ(systemName(SystemKind::Fastswap), "Fastswap");
    EXPECT_STREQ(systemName(SystemKind::Aifm), "AIFM");
    for (const SystemKind kind :
         {SystemKind::Local, SystemKind::TrackFm, SystemKind::Fastswap,
          SystemKind::Aifm}) {
        auto backend = makeBackend(smallConfig(kind), CostParams{});
        EXPECT_EQ(backend->name(), systemName(kind));
    }
}

TEST(BackendFactory, ZeroFarHeapIsFatal)
{
    auto cfg = smallConfig(SystemKind::Local);
    cfg.farHeapBytes = 0;
    EXPECT_EQ(cfg.validate(), "backend farHeapBytes is 0: the far heap "
                              "must hold at least one allocation");
    EXPECT_DEATH(makeBackend(cfg, CostParams{}), "farHeapBytes is 0");
}

TEST(BackendFactory, NonPowerOfTwoObjectSizeIsFatal)
{
    auto cfg = smallConfig(SystemKind::TrackFm);
    cfg.objectSizeBytes = 48;
    EXPECT_DEATH(makeBackend(cfg, CostParams{}),
                 "TrackFM objectSizeBytes must be a power of two of at "
                 "least 16, got 48");
    // Local and Fastswap ignore the object size.
    cfg.kind = SystemKind::Fastswap;
    EXPECT_EQ(cfg.validate(), "");
}

TEST(BackendFactory, ObjectSizeBelowSixteenIsFatal)
{
    auto cfg = smallConfig(SystemKind::Aifm);
    cfg.objectSizeBytes = 8;
    EXPECT_DEATH(makeBackend(cfg, CostParams{}),
                 "AIFM objectSizeBytes must be a power of two of at "
                 "least 16, got 8");
}

TEST(BackendFactory, LocalMemoryBelowTwoObjectsIsFatal)
{
    auto cfg = smallConfig(SystemKind::TrackFm);
    cfg.localMemBytes = 2 * cfg.objectSizeBytes - 1;
    EXPECT_DEATH(makeBackend(cfg, CostParams{}),
                 "TrackFM localMemBytes 8191 must hold at least two "
                 "4096-B objects");
    cfg.localMemBytes = 2 * cfg.objectSizeBytes;
    EXPECT_EQ(cfg.validate(), "");
}

} // namespace
} // namespace tfm
