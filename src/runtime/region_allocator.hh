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
     * @return offset, or badOffset when the far heap is exhausted.
     */
    std::uint64_t allocate(std::uint64_t bytes);

    /** Free an allocation previously returned by allocate(). */
    void deallocate(std::uint64_t offset);

    /** Size of a live allocation (0 when unknown). */
    std::uint64_t sizeOf(std::uint64_t offset) const;

    std::uint64_t heapBytes() const { return _heapBytes; }
    /// First never-allocated offset; the prefetcher stops here.
    std::uint64_t frontier() const { return bump; }
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
    std::uint64_t bump = 0;
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
