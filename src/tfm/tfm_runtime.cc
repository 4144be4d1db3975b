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
{}

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
    const std::size_t bytes = count * size;
    const std::uint64_t addr = pagedMalloc(bytes);
    zeroFill(addr, bytes);
    return addr;
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
TfmRuntime::recordGuard(std::uint64_t addr, GuardPath path)
{
    const std::uint64_t now = rt.clock().now();
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
TfmRuntime::cacheFill(std::uint64_t obj_id, std::uint64_t offset,
                      std::byte *ptr)
{
    if (!rt.config().guardCacheEnabled)
        return;
    ObjectMeta &meta = rt.stateTable()[obj_id];
    lastObjCache.objId = obj_id;
    lastObjCache.epoch = rt.evictionEpoch();
    lastObjCache.frameBase = ptr - rt.stateTable().offsetInObject(offset);
    lastObjCache.meta = &meta;
    lastObjCache.frame = &rt.frameCache().frame(meta.frame());
}

std::byte *
TfmRuntime::guardRead(std::uint64_t addr)
{
    if (!tfmIsTagged(addr)) {
        // Custody check fails: this is not a TrackFM pointer; perform
        // the original load directly (~4 instructions).
        rt.clock().advance(costs().custodyRejectCycles);
        gstats.custodyRejects++;
        recordGuard(addr, GuardPath::CustodyReject);
        return reinterpret_cast<std::byte *>(addr);
    }

    const std::uint64_t offset = tfmOffsetOf(addr);
    if (std::byte *cached = cacheLookup(offset, /*for_write=*/false)) {
        // Same object as the previous guard: skip the state-table
        // lookup and charge only the inline-cache hit.
        rt.clock().advance(costs().guardCacheHitReadCycles);
        gstats.fastReads++;
        gstats.cacheHitReads++;
        recordGuard(addr, GuardPath::FastRead);
        return cached;
    }
    std::byte *fast = rt.tryFast(offset, /*for_write=*/false);
    if (fast) {
        rt.clock().advance(costs().fastPathReadCycles);
        gstats.fastReads++;
        recordGuard(addr, GuardPath::FastRead);
        cacheFill(rt.stateTable().objectOf(offset), offset, fast);
        return fast;
    }

    // Slow path: runtime call, which may block on a remote fetch.
    rt.clock().advance(costs().slowPathReadCycles);
    FarMemRuntime::Localized outcome;
    std::byte *data = rt.localize(offset, /*for_write=*/false, &outcome);
    if (outcome == FarMemRuntime::Localized::RemoteFetch) {
        gstats.slowRemoteReads++;
        recordGuard(addr, GuardPath::SlowRemoteRead);
    } else {
        gstats.slowLocalReads++;
        recordGuard(addr, GuardPath::SlowLocalRead);
    }
    cacheFill(rt.stateTable().objectOf(offset), offset, data);
    return data;
}

std::byte *
TfmRuntime::guardWrite(std::uint64_t addr)
{
    if (!tfmIsTagged(addr)) {
        rt.clock().advance(costs().custodyRejectCycles);
        gstats.custodyRejects++;
        recordGuard(addr, GuardPath::CustodyReject);
        return reinterpret_cast<std::byte *>(addr);
    }

    const std::uint64_t offset = tfmOffsetOf(addr);
    if (std::byte *cached = cacheLookup(offset, /*for_write=*/true)) {
        rt.clock().advance(costs().guardCacheHitWriteCycles);
        gstats.fastWrites++;
        gstats.cacheHitWrites++;
        recordGuard(addr, GuardPath::FastWrite);
        return cached;
    }
    std::byte *fast = rt.tryFast(offset, /*for_write=*/true);
    if (fast) {
        rt.clock().advance(costs().fastPathWriteCycles);
        gstats.fastWrites++;
        recordGuard(addr, GuardPath::FastWrite);
        cacheFill(rt.stateTable().objectOf(offset), offset, fast);
        return fast;
    }

    rt.clock().advance(costs().slowPathWriteCycles);
    FarMemRuntime::Localized outcome;
    std::byte *data = rt.localize(offset, /*for_write=*/true, &outcome);
    if (outcome == FarMemRuntime::Localized::RemoteFetch) {
        gstats.slowRemoteWrites++;
        recordGuard(addr, GuardPath::SlowRemoteWrite);
    } else {
        gstats.slowLocalWrites++;
        recordGuard(addr, GuardPath::SlowLocalWrite);
    }
    cacheFill(rt.stateTable().objectOf(offset), offset, data);
    return data;
}

thread_local TfmRuntime::Worker *TfmRuntime::tlsWorker_ = nullptr;

TfmRuntime::Worker *
TfmRuntime::registerWorker()
{
    auto w = std::make_unique<Worker>();
    w->owner = this;
    w->index = static_cast<std::uint32_t>(workers_.size());
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

TfmRuntime::Worker *
TfmRuntime::boundWorker() const
{
    Worker *w = tlsWorker_;
    return (w && w->owner == this) ? w : nullptr;
}

GuardStats
TfmRuntime::mergedGuardStats() const
{
    GuardStats total = gstats;
    for (const auto &w : workers_)
        total += w->gstats;
    return total;
}

void
TfmRuntime::readGuardedMt(Worker &w, std::uint64_t addr, void *dst,
                          std::size_t len)
{
    auto *out = static_cast<std::byte *>(dst);
    const auto &table = rt.stateTable();
    std::size_t done = 0;
    while (done < len) {
        const std::uint64_t at = addr + done;
        const std::uint64_t offset = tfmOffsetOf(at);
        const std::uint64_t in_obj = table.offsetInObject(offset);
        const std::size_t piece = std::min<std::size_t>(
            len - done, table.objectSize() - in_obj);
        if (rt.tryCachedReadMt(*w.rt, w.cache, offset, out + done,
                               piece)) {
            w.rt->clock.advance(costs().guardCacheHitReadCycles);
            w.gstats.fastReads++;
            w.gstats.cacheHitReads++;
        } else if (rt.tryFastReadMt(*w.rt, offset, out + done, piece,
                                    &w.cache)) {
            w.rt->clock.advance(costs().fastPathReadCycles);
            w.gstats.fastReads++;
        } else {
            w.rt->clock.advance(costs().slowPathReadCycles);
            FarMemRuntime::Localized outcome;
            rt.localizeReadMt(*w.rt, offset, out + done, piece, &w.cache,
                              &outcome);
            if (outcome == FarMemRuntime::Localized::RemoteFetch)
                w.gstats.slowRemoteReads++;
            else
                w.gstats.slowLocalReads++;
        }
        done += piece;
    }
}

void
TfmRuntime::writeGuardedMt(Worker &w, std::uint64_t addr, const void *src,
                           std::size_t len)
{
    const auto *in = static_cast<const std::byte *>(src);
    const auto &table = rt.stateTable();
    std::size_t done = 0;
    while (done < len) {
        const std::uint64_t at = addr + done;
        const std::uint64_t offset = tfmOffsetOf(at);
        const std::uint64_t in_obj = table.offsetInObject(offset);
        const std::size_t piece = std::min<std::size_t>(
            len - done, table.objectSize() - in_obj);
        bool was_present = false;
        FarMemRuntime::Localized outcome;
        rt.localizeWriteMt(*w.rt, offset, in + done, piece, &was_present,
                           &outcome);
        if (was_present) {
            w.rt->clock.advance(costs().fastPathWriteCycles);
            w.gstats.fastWrites++;
        } else {
            w.rt->clock.advance(costs().slowPathWriteCycles);
            if (outcome == FarMemRuntime::Localized::RemoteFetch)
                w.gstats.slowRemoteWrites++;
            else
                w.gstats.slowLocalWrites++;
        }
        done += piece;
    }
}

void
TfmRuntime::readGuarded(std::uint64_t addr, void *dst, std::size_t len)
{
    if (Worker *w = boundWorker()) {
        if (!tfmIsTagged(addr)) {
            w->rt->clock.advance(costs().custodyRejectCycles);
            w->gstats.custodyRejects++;
            std::memcpy(dst, reinterpret_cast<const void *>(addr), len);
            return;
        }
        readGuardedMt(*w, addr, dst, len);
        return;
    }
    if (!tfmIsTagged(addr)) {
        rt.clock().advance(costs().custodyRejectCycles);
        gstats.custodyRejects++;
        recordGuard(addr, GuardPath::CustodyReject);
        std::memcpy(dst, reinterpret_cast<const void *>(addr), len);
        return;
    }
    auto *out = static_cast<std::byte *>(dst);
    const auto &table = rt.stateTable();
    std::size_t done = 0;
    while (done < len) {
        const std::uint64_t at = addr + done;
        const std::uint64_t in_obj = table.offsetInObject(tfmOffsetOf(at));
        const std::size_t piece = std::min<std::size_t>(
            len - done, table.objectSize() - in_obj);
        std::memcpy(out + done, guardRead(at), piece);
        done += piece;
    }
}

void
TfmRuntime::writeGuarded(std::uint64_t addr, const void *src,
                         std::size_t len)
{
    if (Worker *w = boundWorker()) {
        if (!tfmIsTagged(addr)) {
            w->rt->clock.advance(costs().custodyRejectCycles);
            w->gstats.custodyRejects++;
            std::memcpy(reinterpret_cast<void *>(addr), src, len);
            return;
        }
        writeGuardedMt(*w, addr, src, len);
        return;
    }
    if (!tfmIsTagged(addr)) {
        rt.clock().advance(costs().custodyRejectCycles);
        gstats.custodyRejects++;
        recordGuard(addr, GuardPath::CustodyReject);
        std::memcpy(reinterpret_cast<void *>(addr), src, len);
        return;
    }
    const auto *in = static_cast<const std::byte *>(src);
    const auto &table = rt.stateTable();
    std::size_t done = 0;
    while (done < len) {
        const std::uint64_t at = addr + done;
        const std::uint64_t in_obj = table.offsetInObject(tfmOffsetOf(at));
        const std::size_t piece = std::min<std::size_t>(
            len - done, table.objectSize() - in_obj);
        std::memcpy(guardWrite(at), in + done, piece);
        done += piece;
    }
}

std::byte *
TfmRuntime::localityGuard(std::uint64_t addr, std::uint64_t prev_obj,
                          bool for_write)
{
    const std::uint64_t offset = tfmOffsetOf(addr);
    rt.clock().advance(costs().localityGuardCycles);
    gstats.localityGuards++;
    FarMemRuntime::Localized outcome;
    std::byte *data = rt.localize(offset, for_write, &outcome);
    if (outcome == FarMemRuntime::Localized::RemoteFetch) {
        gstats.localityRemotes++;
        recordGuard(addr, GuardPath::LocalityRemote);
    } else {
        recordGuard(addr, GuardPath::LocalityLocal);
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

void
TfmRuntime::zeroFill(std::uint64_t addr, std::size_t bytes)
{
    const std::vector<std::byte> zeros(bytes, std::byte{0});
    rt.rawWrite(tfmOffsetOf(addr), zeros.data(), bytes);
    rt.clock().advance(bytes / 16 + 1);
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
