#include "tfm_runtime.hh"

#include <algorithm>
#include <vector>

#include "fastswap/swap_model.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"

namespace tfm
{

TfmRuntime::TfmRuntime(const RuntimeConfig &config,
                       const CostParams &cost_params)
    : rt(tagged(config), cost_params)
{
    main_.rt = &rt.mainContext();
    main_.owner = this;
}

TfmRuntime::~TfmRuntime() = default;

SwapModel &
TfmRuntime::ensurePaged()
{
    // Kernel-style readahead window of the paged plane, in pages.
    constexpr std::uint32_t kPagedReadaheadPages = 8;
    if (!paged_) {
        const RuntimeConfig &c = rt.config();
        paged_ = std::make_unique<SwapModel>(
            rt.mainClock(), rt.net(), rt.costs(), c.farHeapBytes,
            c.pagedLocalMemBytes ? c.pagedLocalMemBytes : c.localMemBytes,
            kPagedReadaheadPages, "paged");
    }
    return *paged_;
}

std::uint64_t
TfmRuntime::pagedMalloc(std::size_t bytes)
{
    ensurePaged();
    return pgEncode(rt.allocate(bytes));
}

std::uint64_t
TfmRuntime::pagedCalloc(std::size_t count, std::size_t size)
{
    if (size != 0 &&
        count > std::numeric_limits<std::size_t>::max() / size) {
        return 0;
    }
    ensurePaged();
    return pgEncode(callocBlock(count * size));
}

void
TfmRuntime::pagedTouch(std::uint64_t addr, std::size_t len, bool for_write)
{
    SwapModel &pg = ensurePaged();
    const std::uint64_t majorFaults = pg.stats().majorFaults;
    pg.touch(tfmOffsetOf(addr), len, for_write);
    Observability *obs = rt.obs();
    if (pg.stats().majorFaults == majorFaults || !obs ||
        !obs->trace().enabled()) {
        return;
    }
    // Cumulative paged.* counter tracks after each faulting access.
    const std::uint32_t stream = rt.obsStream();
    const std::uint64_t now = rt.mainClock().now();
    const SwapStats &s = pg.stats();
    obs->trace().counter(stream, "paged.major_faults", now, s.majorFaults);
    obs->trace().counter(stream, "paged.minor_faults", now, s.minorFaults);
    obs->trace().counter(stream, "paged.reclaims", now, s.reclaims);
    obs->trace().counter(stream, "paged.resident_pages", now,
                         pg.residentPages());
}

void
TfmRuntime::pagedRead(std::uint64_t addr, void *dst, std::size_t len)
{
    pagedTouch(addr, len, /*for_write=*/false);
    rt.rawRead(tfmOffsetOf(addr), dst, len);
}

void
TfmRuntime::pagedWrite(std::uint64_t addr, const void *src, std::size_t len)
{
    pagedTouch(addr, len, /*for_write=*/true);
    rt.rawWrite(tfmOffsetOf(addr), src, len);
}

void
TfmRuntime::evacuatePaged()
{
    if (paged_)
        paged_->evacuate();
}

void
TfmRuntime::recordMainGuard(std::uint64_t addr, GuardPath path)
{
    const std::uint64_t now = rt.mainClock().now();
    gtrace.record(addr, now, path);
    switch (path) {
    case GuardPath::CustodyReject:
    case GuardPath::FastRead:
    case GuardPath::FastWrite:
        return; // hot paths: ring buffer only
    default:
        break;
    }
    Observability *obs = rt.obs();
    if (obs && obs->trace().enabled()) {
        obs->trace().instant(rt.obsStream(), TrackApp,
                             guardPathName(path), "guard", now);
        obs->trace().arg("addr", addr);
    }
}

void
TfmRuntime::custodyReject(Worker &w, std::uint64_t addr)
{
    // Custody check fails: this is not a TrackFM pointer; the original
    // access runs directly (~4 instructions).
    w.rt->clock.advance(costs().custodyRejectCycles);
    w.gstats.custodyRejects++;
    recordGuard(w, addr, GuardPath::CustodyReject);
}

void
TfmRuntime::cacheFill(Worker &w, std::uint64_t offset, std::byte *ptr)
{
    if (!rt.config().guardCacheEnabled)
        return;
    const std::uint64_t obj_id = rt.stateTable().objectOf(offset);
    ObjectMeta &meta = rt.stateTable()[obj_id];
    w.cache.objId = obj_id;
    w.cache.epoch = rt.evictionEpoch();
    w.cache.frameBase = ptr - rt.stateTable().offsetInObject(offset);
    w.cache.meta = &meta;
    w.cache.frame = &rt.frameCache().frame(meta.frame());
}

template <bool ForWrite>
std::byte *
TfmRuntime::guardTagged(Worker &w, std::uint64_t addr)
{
    // Same object as the previous guard: skip the state-table lookup
    // and charge only the inline-cache hit.
    if (std::byte *cached = cacheHit<ForWrite>(w, addr))
        return cached;
    const CostParams &c = costs();
    const std::uint64_t offset = tfmOffsetOf(addr);
    if (std::byte *fast = rt.tryFast(offset, ForWrite)) {
        w.rt->clock.advance(ForWrite ? c.fastPathWriteCycles
                                     : c.fastPathReadCycles);
        (ForWrite ? w.gstats.fastWrites : w.gstats.fastReads)++;
        recordGuard(w, addr,
                    ForWrite ? GuardPath::FastWrite : GuardPath::FastRead);
        cacheFill(w, offset, fast);
        return fast;
    }

    // Slow path: runtime call, which may block on a remote fetch.
    w.rt->clock.advance(ForWrite ? c.slowPathWriteCycles
                                 : c.slowPathReadCycles);
    FarMemRuntime::Localized outcome;
    std::byte *data = rt.localize(*w.rt, offset, ForWrite, &outcome);
    if (outcome == FarMemRuntime::Localized::RemoteFetch) {
        (ForWrite ? w.gstats.slowRemoteWrites : w.gstats.slowRemoteReads)++;
        recordGuard(w, addr,
                    ForWrite ? GuardPath::SlowRemoteWrite
                             : GuardPath::SlowRemoteRead);
    } else {
        (ForWrite ? w.gstats.slowLocalWrites : w.gstats.slowLocalReads)++;
        recordGuard(w, addr,
                    ForWrite ? GuardPath::SlowLocalWrite
                             : GuardPath::SlowLocalRead);
    }
    cacheFill(w, offset, data);
    return data;
}

// guardRead/guardWrite instantiate both bodies from the header.
template std::byte *TfmRuntime::guardTagged<false>(Worker &, std::uint64_t);
template std::byte *TfmRuntime::guardTagged<true>(Worker &, std::uint64_t);

thread_local TfmRuntime::Worker *TfmRuntime::tlsWorker_ = nullptr;

TfmRuntime::Worker *
TfmRuntime::registerWorker()
{
    auto w = std::make_unique<Worker>();
    w->owner = this;
    w->rt = rt.registerWorker();
    workers_.push_back(std::move(w));
    return workers_.back().get();
}

void
TfmRuntime::bindWorker(Worker *w)
{
    TFM_ASSERT(w && w->owner == this, "binding a foreign tfm worker");
    tlsWorker_ = w;
    rt.bindWorker(w->rt);
}

void
TfmRuntime::unbindWorker()
{
    tlsWorker_ = nullptr;
    rt.unbindWorker();
}

GuardStats
TfmRuntime::mergedGuardStats() const
{
    GuardStats total = main_.gstats;
    for (const auto &w : workers_)
        total += w->gstats;
    return total;
}

void
TfmRuntime::readGuarded(std::uint64_t addr, void *dst, std::size_t len)
{
    Worker &w = worker();
    if (!tfmIsTagged(addr)) {
        custodyReject(w, addr);
        std::memcpy(dst, reinterpret_cast<const void *>(addr), len);
        return;
    }
    auto *out = static_cast<std::byte *>(dst);
    const CostParams &c = costs();
    const auto &table = rt.stateTable();
    const bool lock_free = rt.config().concurrent;
    std::size_t done = 0;
    while (done < len) {
        const std::uint64_t at = addr + done;
        const std::uint64_t offset = tfmOffsetOf(at);
        const std::size_t piece = std::min<std::size_t>(
            len - done, table.objectSize() - table.offsetInObject(offset));
        // Concurrency branch: the lock-free epoch reader (inline cache,
        // then one state-table snapshot) before any lock is taken.
        if (lock_free &&
            rt.tryCachedReadMt(*w.rt, w.cache, offset, out + done, piece)) {
            w.rt->clock.advance(c.guardCacheHitReadCycles);
            w.gstats.fastReads++;
            w.gstats.cacheHitReads++;
            recordGuard(w, at, GuardPath::FastRead);
        } else if (lock_free && rt.tryFastReadMt(*w.rt, offset, out + done,
                                                 piece, &w.cache)) {
            w.rt->clock.advance(c.fastPathReadCycles);
            w.gstats.fastReads++;
            recordGuard(w, at, GuardPath::FastRead);
        } else {
            const auto lock = rt.shardLock(offset);
            std::memcpy(out + done, guardTagged<false>(w, at), piece);
        }
        done += piece;
    }
}

void
TfmRuntime::writeGuarded(std::uint64_t addr, const void *src,
                         std::size_t len)
{
    Worker &w = worker();
    if (!tfmIsTagged(addr)) {
        custodyReject(w, addr);
        std::memcpy(reinterpret_cast<void *>(addr), src, len);
        return;
    }
    const auto *in = static_cast<const std::byte *>(src);
    const auto &table = rt.stateTable();
    std::size_t done = 0;
    while (done < len) {
        const std::uint64_t at = addr + done;
        const std::uint64_t offset = tfmOffsetOf(at);
        const std::size_t piece = std::min<std::size_t>(
            len - done, table.objectSize() - table.offsetInObject(offset));
        // No lock-free write path: two writers to one object serialize
        // on its shard lock (taken only when concurrent).
        const auto lock = rt.shardLock(offset);
        std::memcpy(guardTagged<true>(w, at), in + done, piece);
        done += piece;
    }
}

std::byte *
TfmRuntime::localityGuard(std::uint64_t addr, std::uint64_t prev_obj,
                          bool for_write)
{
    const std::uint64_t offset = tfmOffsetOf(addr);
    Worker &w = worker();
    w.rt->clock.advance(costs().localityGuardCycles);
    w.gstats.localityGuards++;
    FarMemRuntime::Localized outcome;
    std::byte *data = rt.localize(*w.rt, offset, for_write, &outcome);
    if (outcome == FarMemRuntime::Localized::RemoteFetch) {
        w.gstats.localityRemotes++;
        recordGuard(w, addr, GuardPath::LocalityRemote);
    } else {
        recordGuard(w, addr, GuardPath::LocalityLocal);
    }
    const std::uint64_t obj_id = rt.stateTable().objectOf(offset);
    rt.pinObject(obj_id);
    if (prev_obj != noObject)
        rt.unpinObject(prev_obj);
    return data;
}

std::uint64_t
TfmRuntime::tfmRealloc(std::uint64_t addr, std::size_t bytes)
{
    if (addr == 0)
        return tfmMalloc(bytes);
    const std::uint64_t old_offset = tfmOffsetOf(addr);
    const std::uint64_t old_size = rt.sizeOf(old_offset);
    const std::uint64_t fresh = tfmMalloc(bytes);
    const std::size_t copy =
        static_cast<std::size_t>(std::min<std::uint64_t>(old_size, bytes));
    if (copy > 0) {
        std::vector<std::byte> tmp(copy);
        rt.rawRead(old_offset, tmp.data(), copy);
        rt.rawWrite(tfmOffsetOf(fresh), tmp.data(), copy);
        // Charge the copy as streaming traffic through the CPU.
        rt.clock().advance(copy / 16 + 1);
    }
    rt.deallocate(old_offset);
    return fresh;
}

std::uint64_t
TfmRuntime::callocBlock(std::size_t bytes)
{
    const std::uint64_t offset = rt.allocateZeroed(bytes);
    rt.clock().advance(bytes / 16 + 1);
    return offset;
}

void
TfmRuntime::exportStats(StatSet &set) const
{
    mergedGuardStats().exportStats(set);
    rt.exportStats(set);
    if (paged_)
        paged_->exportStats(set);
}

} // namespace tfm
