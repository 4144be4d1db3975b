/**
 * @file
 * The TrackFM runtime layer: the thin layer the compiler injects into
 * the application, bridging guarded loads/stores to the far-memory
 * runtime underneath (sections 3.1-3.3 of the paper).
 *
 * Responsibilities:
 *  - the custom malloc family returning tagged (non-canonical) pointers;
 *  - the guard state machine: custody check -> object-state-table lookup
 *    -> fast path or slow path (runtime call, possibly a remote fetch);
 *  - loop-chunk support calls (tfm_init / tfm_rw in Fig. 5);
 *  - compiler-directed prefetch;
 *  - guard statistics.
 */

#ifndef TRACKFM_TFM_TFM_RUNTIME_HH
#define TRACKFM_TFM_TFM_RUNTIME_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "guard_stats.hh"
#include "guard_trace.hh"
#include "runtime/far_mem_runtime.hh"
#include "tagged_ptr.hh"

namespace tfm
{

class SwapModel;

/**
 * TrackFM's injected runtime.
 *
 * Guard methods return a host pointer that is valid until the next
 * runtime call (the paper's evacuator cannot run while a thread is
 * inside a guard; here evacuation happens only inside runtime calls, so
 * the same invariant holds by construction).
 */
class TfmRuntime
{
  public:
    // Both out of line: SwapModel is incomplete here, and an inline
    // constructor/destructor would instantiate its unique_ptr deleter.
    TfmRuntime(const RuntimeConfig &config, const CostParams &cost_params);
    ~TfmRuntime();

    FarMemRuntime &runtime() { return rt; }
    const FarMemRuntime &runtime() const { return rt; }
    const CostParams &costs() const { return rt.costs(); }
    CycleClock &clock() { return rt.clock(); }
    /** The main thread's guard counters. */
    GuardStats &guardStats() { return main_.gstats; }
    const GuardStats &guardStats() const { return main_.gstats; }
    /** Optional section 3.3 debug instrumentation. */
    GuardTrace &guardTrace() { return gtrace; }
    const GuardTrace &guardTrace() const { return gtrace; }

    /** @name The TrackFM libc replacement (section 3.1)
     *  All return tagged pointers in the non-canonical range.
     * @{ */
    std::uint64_t
    tfmMalloc(std::size_t bytes)
    {
        return tfmEncode(rt.allocate(bytes));
    }

    /**
     * Zero-initialized array allocation. Returns 0 (the null TrackFM
     * pointer) when count * size overflows size_t, like calloc(3), so
     * the caller never receives a too-small region.
     */
    std::uint64_t
    tfmCalloc(std::size_t count, std::size_t size)
    {
        if (size != 0 &&
            count > std::numeric_limits<std::size_t>::max() / size) {
            return 0;
        }
        return tfmEncode(callocBlock(count * size));
    }

    std::uint64_t tfmRealloc(std::uint64_t addr, std::size_t bytes);

    void
    tfmFree(std::uint64_t addr)
    {
        rt.deallocate(tfmOffsetOf(addr));
    }
    /** @} */

    /** @name Paged data plane (hybrid arbiter; DESIGN.md §4l)
     *
     * The pg_malloc family backs allocation sites the PathArbiterPass
     * routed to the paging plane. Pointers carry the bit-61 tag (so
     * guards custody-reject them and the interpreter's memory choke
     * point resolves them here); accesses charge Fastswap's fault costs
     * through a lazily created SwapModel bound to this runtime's main
     * clock and link, while the data itself moves through the far
     * heap's raw read/write — results are plane-independent by
     * construction.
     * @{ */
    std::uint64_t pagedMalloc(std::size_t bytes);
    std::uint64_t pagedCalloc(std::size_t count, std::size_t size);
    void
    pagedFree(std::uint64_t addr)
    {
        rt.deallocate(tfmOffsetOf(addr));
    }
    /** Fault accounting + copy-out via rawRead. */
    void pagedRead(std::uint64_t addr, void *dst, std::size_t len);
    /** Fault accounting + write-through via rawWrite. */
    void pagedWrite(std::uint64_t addr, const void *src, std::size_t len);
    /** The plane, created on first use; nullptr when never used. */
    const SwapModel *pagedPlane() const { return paged_.get(); }
    /** Drop the plane's residency, unmetered (cold-start measurements). */
    void evacuatePaged();
    /** @} */

    /** @name Guards (section 3.3, Fig. 4)
     * @{ */
    /**
     * Guard a read of @p size bytes at @p addr.
     *
     * Tagged pointers go through the fast/slow paths with the Table 1
     * cycle charges; untagged pointers take the ~4-instruction custody
     * rejection and are returned unchanged as host pointers.
     */
    std::byte *
    guardRead(std::uint64_t addr)
    {
        return guard<false>(worker(), addr);
    }

    /** Guard a write; identical shape, write-path costs, sets dirty. */
    std::byte *
    guardWrite(std::uint64_t addr)
    {
        return guard<true>(worker(), addr);
    }

    /**
     * Inline-cache-only guard probe for dispatch loops that want to
     * resolve a guard without a full runtime call: on a last-object
     * cache hit this performs the complete fast-path guard — identical
     * cycle charges, GuardStats, and trace-ring record as
     * guardRead/guardWrite taking their cache-hit branch — and returns
     * the host pointer. Untagged pointers and cache misses return
     * nullptr with NO accounting; the caller must then fall back to
     * guardRead/guardWrite, which re-probes the (side-effect-free on
     * miss) cache.
     */
    std::byte *
    guardCacheFastPath(std::uint64_t addr, bool for_write)
    {
        if (!tfmIsTagged(addr))
            return nullptr;
        Worker &w = worker();
        return for_write ? cacheHit<true>(w, addr) : cacheHit<false>(w, addr);
    }

    /**
     * Epoch revalidation of a hoisted guard (guard.reval fast path):
     * compare @p armed_epoch against the runtime's eviction epoch, with
     * no state-table lookup. An unchanged epoch proves every
     * object->frame translation the arming guard produced is still
     * live — and, for writes, that the dirty bit it set has not been
     * consumed by a writeback (clearing dirty implies an unmap, which
     * bumps the epoch). On a miss the caller must re-run the full
     * guard.
     *
     * @return true when the armed host pointer may be reused.
     */
    bool
    revalidate(std::uint64_t addr, std::uint64_t armed_epoch)
    {
        Worker &w = worker();
        w.rt->clock.advance(costs().revalidateCycles);
        w.gstats.revalidations++;
        if (armed_epoch == rt.evictionEpoch()) {
            w.gstats.revalidationHits++;
            recordGuard(w, addr, GuardPath::Revalidate);
            return true;
        }
        w.gstats.revalidationMisses++;
        return false;
    }

    /**
     * Guarded multi-byte read. Accesses that straddle object boundaries
     * take one guard per object touched, since each constituent object
     * can independently be local or remote (the "superposition" the
     * paper calls out in section 3.2).
     */
    void readGuarded(std::uint64_t addr, void *dst, std::size_t len);

    /** Guarded multi-byte write; one guard per object touched. */
    void writeGuarded(std::uint64_t addr, const void *src, std::size_t len);

    /** @name Per-thread guard contexts (DESIGN.md §4k)
     *
     * Every guard runs on a Worker: the FarMemRuntime context it
     * charges, a private GuardStats set and a private last-object
     * inline cache. The main thread owns an implicit one; each serving
     * thread of a concurrent runtime registers and binds its own. On a
     * concurrent runtime readGuarded tries the lock-free epoch reader
     * first, and every other guard step runs under the object's shard
     * lock, copying through the runtime so no host pointer outlives it.
     * guardRead/guardWrite (pointer-returning) and the loop-chunk calls
     * stay single-thread-only.
     * @{ */
    struct Worker
    {
        FarMemRuntime::WorkerContext *rt = nullptr;
        GuardStats gstats; ///< single-writer, merged on report
        FarMemRuntime::LastObjectCache cache; ///< last-object inline cache
        TfmRuntime *owner = nullptr;
    };

    /** Create a worker (before starting threads; not thread-safe). */
    Worker *registerWorker();
    /** Bind @p w (and its runtime context) to the calling thread. */
    void bindWorker(Worker *w);
    void unbindWorker();
    /** The calling thread's worker: its bound one, else the main one. */
    Worker &
    worker()
    {
        Worker *w = tlsWorker_;
        return (w && w->owner == this) ? *w : main_;
    }
    const std::vector<std::unique_ptr<Worker>> &tfmWorkers() const
    {
        return workers_;
    }

    /** Main-thread guard counters plus every worker's. */
    GuardStats mergedGuardStats() const;
    /** @} */

    /** Typed guarded load. */
    template <typename T>
    T
    load(std::uint64_t addr)
    {
        T value;
        readGuarded(addr, &value, sizeof(T));
        return value;
    }

    /** Typed guarded store. */
    template <typename T>
    void
    store(std::uint64_t addr, const T &value)
    {
        writeGuarded(addr, &value, sizeof(T));
    }
    /** @} */

    /** @name Loop-chunking support (section 3.4, Fig. 5)
     * @{ */
    /**
     * The locality-invariant guard: localize and pin the object holding
     * @p addr, unpinning @p prev_obj (noObject on the first chunk).
     * Charges the locality-guard cost plus any remote-fetch time.
     *
     * @return host pointer to the byte at @p addr.
     */
    std::byte *localityGuard(std::uint64_t addr, std::uint64_t prev_obj,
                             bool for_write);

    /** Charge one object-boundary check (3 instructions). */
    void
    boundaryCheck()
    {
        Worker &w = worker();
        w.rt->clock.advance(costs().boundaryCheckCycles);
        w.gstats.boundaryChecks++;
    }

    /** Release the pin taken by the last locality guard of a loop. */
    void
    endChunk(std::uint64_t obj_id)
    {
        if (obj_id != noObject)
            rt.unpinObject(obj_id);
    }

    static constexpr std::uint64_t noObject = ~0ull;
    /** @} */

    /**
     * Compiler-directed prefetch: issue async fetches for @p count
     * objects after the one containing @p addr.
     */
    void
    prefetchAhead(std::uint64_t addr, std::int64_t stride,
                  std::uint32_t count)
    {
        const std::uint64_t obj_id =
            rt.stateTable().objectOf(tfmOffsetOf(addr));
        rt.prefetchObjects(obj_id, stride, count);
        main_.gstats.prefetchCalls++;
    }

    /** @name Initialization helpers (no cycle accounting)
     * @{ */
    void
    rawWrite(std::uint64_t addr, const void *src, std::size_t len)
    {
        rt.rawWrite(tfmOffsetOf(addr), src, len);
    }

    void
    rawRead(std::uint64_t addr, void *dst, std::size_t len)
    {
        rt.rawRead(tfmOffsetOf(addr), dst, len);
    }
    /** @} */

    void exportStats(StatSet &set) const;

  private:
    /** Label this stack's observability stream as TrackFM's. */
    static RuntimeConfig
    tagged(RuntimeConfig config)
    {
        config.obsKind = "trackfm";
        return config;
    }

    /**
     * The far block behind a calloc: FarMemRuntime::allocateZeroed(),
     * plus calloc's simulated zeroing charge, which stays the same
     * whether or not a zero is written.
     */
    std::uint64_t callocBlock(std::size_t bytes);

    /**
     * Record a guard outcome on the main worker: always into the
     * GuardTrace ring, and the slow paths additionally as instant
     * events on the observability app track (fast paths stay off the
     * trace to keep it bounded). Other workers record nothing: both
     * sinks are single-writer.
     */
    void
    recordGuard(Worker &w, std::uint64_t addr, GuardPath path)
    {
        if (&w == &main_)
            recordMainGuard(addr, path);
    }
    void recordMainGuard(std::uint64_t addr, GuardPath path);

    /** Charge a custody rejection (untagged pointer, ~4 instructions). */
    void custodyReject(Worker &w, std::uint64_t addr);

    /**
     * The guard body for a tagged @p addr: inline cache, fast path,
     * then the runtime's localize. On a concurrent runtime the caller
     * holds the object's shard lock.
     */
    template <bool ForWrite>
    std::byte *guardTagged(Worker &w, std::uint64_t addr);
    /** Public guard entry: custody check, then guardTagged. */
    template <bool ForWrite>
    std::byte *
    guard(Worker &w, std::uint64_t addr)
    {
        if (!tfmIsTagged(addr)) {
            custodyReject(w, addr);
            return reinterpret_cast<std::byte *>(addr);
        }
        return guardTagged<ForWrite>(w, addr);
    }

    /** Try @p w's inline cache; returns the host pointer or nullptr.
     *  Inline so guardCacheFastPath probes fully in-line from the
     *  bytecode dispatch loop. A miss has no side effects, so probing
     *  twice (probe, then the fallback guard's own lookup) is safe. */
    std::byte *
    cacheLookup(Worker &w, std::uint64_t offset, bool for_write)
    {
        if (!rt.config().guardCacheEnabled)
            return nullptr;
        // The epoch comparison invalidates on any eviction/evacuation
        // since the fill: a hit therefore proves the object->frame
        // translation (and thus frameBase) is still live, never a
        // stale host pointer.
        const FarMemRuntime::LastObjectCache &c = w.cache;
        if (rt.stateTable().objectOf(offset) != c.objId ||
            c.epoch != rt.evictionEpoch() || !c.meta->safeForFastPath()) {
            return nullptr;
        }
        c.frame->refbit = true;
        c.meta->setHot();
        if (for_write)
            c.meta->setDirty();
        return c.frameBase + rt.stateTable().offsetInObject(offset);
    }
    /** An inline-cache hit with its full fast-path accounting, or
     *  nullptr with none. */
    template <bool ForWrite>
    std::byte *
    cacheHit(Worker &w, std::uint64_t addr)
    {
        std::byte *cached = cacheLookup(w, tfmOffsetOf(addr), ForWrite);
        if (!cached)
            return nullptr;
        if constexpr (ForWrite) {
            w.rt->clock.advance(costs().guardCacheHitWriteCycles);
            w.gstats.fastWrites++;
            w.gstats.cacheHitWrites++;
            recordGuard(w, addr, GuardPath::FastWrite);
        } else {
            w.rt->clock.advance(costs().guardCacheHitReadCycles);
            w.gstats.fastReads++;
            w.gstats.cacheHitReads++;
            recordGuard(w, addr, GuardPath::FastRead);
        }
        return cached;
    }
    /** Refill @p w's inline cache after a successful guard translation. */
    void cacheFill(Worker &w, std::uint64_t offset, std::byte *ptr);

    /** The paged plane, or create it on first paged allocation. */
    SwapModel &ensurePaged();
    /** Fault accounting for one paged access, plus counter tracks. */
    void pagedTouch(std::uint64_t addr, std::size_t len, bool for_write);

    FarMemRuntime rt;
    Worker main_; ///< the main thread's implicit worker
    GuardTrace gtrace;
    std::unique_ptr<SwapModel> paged_;
    std::vector<std::unique_ptr<Worker>> workers_;
    static thread_local Worker *tlsWorker_;
};

} // namespace tfm

#endif // TRACKFM_TFM_TFM_RUNTIME_HH
