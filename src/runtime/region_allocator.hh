/**
 * @file
 * Region-based far-heap allocator (the unified ADS object pool).
 *
 * The paper's TrackFM attaches every remotable allocation to a single
 * runtime-managed object pool carved out of AIFM's region allocator
 * (section 3.2). This allocator hands out byte offsets in the far heap
 * with two invariants the guards rely on:
 *
 *  - allocations of at least one object span whole, object-aligned runs
 *    of objects ("a single memory allocation can span multiple objects");
 *  - smaller allocations are packed into objects but never straddle an
 *    object boundary ("smaller allocations are grouped into a single
 *    object"), so one allocation maps to a well-defined object set.
 */

#ifndef TRACKFM_RUNTIME_REGION_ALLOCATOR_HH
#define TRACKFM_RUNTIME_REGION_ALLOCATOR_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "sim/zeroed_array.hh"

namespace tfm
{

/** Allocation statistics. */
struct AllocStats
{
    std::uint64_t allocations = 0;
    std::uint64_t frees = 0;
    std::uint64_t bytesAllocated = 0;
    std::uint64_t bytesFreed = 0;
};

/**
 * Segregated free-list allocator over the far heap offset space.
 *
 * Offsets are never real host addresses; they become TrackFM pointers by
 * tagging (tfm/tagged_ptr.hh). Freed blocks are reused exactly by size
 * class, which is enough fragmentation behaviour for the paper's
 * workloads (memcached-style churn included).
 */
class RegionAllocator
{
  public:
    RegionAllocator(std::uint64_t heap_bytes, std::uint32_t object_size);

    /**
     * Allocate @p bytes; returns the far-heap byte offset.
     *
     * When @p fresh is given, it reports whether the block was carved
     * from the frontier (true) or reused from a free list (false). A
     * fresh block holds bytes no earlier block covered, so while no
     * write reaches past the frontier (the runtimes' raw writes check
     * it) they still hold the far heap's initial zeros.
     * @return offset, or badOffset when the far heap is exhausted.
     */
    std::uint64_t allocate(std::uint64_t bytes, bool *fresh = nullptr);

    /** Free an allocation previously returned by allocate(). */
    void deallocate(std::uint64_t offset);

    /** Size of a live allocation (0 when unknown). */
    std::uint64_t sizeOf(std::uint64_t offset) const;

    std::uint64_t heapBytes() const { return _heapBytes; }
    /// First never-allocated offset; the prefetcher and the raw-write
    /// check stop here. Safe to read beside a locked allocate().
    std::uint64_t
    frontier() const
    {
        return bump.load(std::memory_order_relaxed);
    }
    /**
     * Whether [@p offset, @p offset + @p len) lies below the frontier.
     * Every raw write must: bytes past it are the zeros fresh blocks
     * are promised.
     */
    bool
    belowFrontier(std::uint64_t offset, std::uint64_t len) const
    {
        const std::uint64_t end = frontier();
        return len <= end && offset <= end - len;
    }
    std::uint64_t bytesInUse() const
    {
        return _stats.bytesAllocated - _stats.bytesFreed;
    }
    const AllocStats &stats() const { return _stats; }

    static constexpr std::uint64_t badOffset = ~0ull;

  private:
    /// Every block starts on a 16-byte granule (the smallest class).
    static constexpr unsigned granuleShift = 4;

    /// log2 of the size class a request rounds up to (at least 4).
    static unsigned classLog2(std::uint64_t bytes);

    std::uint64_t _heapBytes;
    std::uint32_t objSize;
    /// Written only by allocate() (serialized by its caller); atomic so
    /// that a raw write on another thread may check against it.
    std::atomic<std::uint64_t> bump{0};
    AllocStats _stats;
    /// log2(size class) -> freed offsets of exactly that class (LIFO)
    std::array<std::vector<std::uint64_t>, 64> freeLists;
    /// One byte per granule of the heap: log2(size class) + 1 of the
    /// live block starting there, 0 where no live block starts. Zero
    /// pages, like ObjectStateTable: the host faults in only the pages
    /// below the frontier, and allocate() never resizes it.
    ZeroedArray<std::uint8_t> liveLog2;
};

} // namespace tfm

#endif // TRACKFM_RUNTIME_REGION_ALLOCATOR_HH
