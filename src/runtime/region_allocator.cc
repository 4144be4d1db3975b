#include "region_allocator.hh"

#include <bit>

#include "sim/logging.hh"

namespace tfm
{

RegionAllocator::RegionAllocator(std::uint64_t heap_bytes,
                                 std::uint32_t object_size)
    : _heapBytes(heap_bytes), objSize(object_size),
      liveLog2(makeZeroedArray<std::uint8_t>(heap_bytes >> granuleShift))
{
    TFM_ASSERT((object_size & (object_size - 1)) == 0,
               "object size must be a power of two");
}

unsigned
RegionAllocator::classLog2(std::uint64_t bytes)
{
    // Size classes are powers of two starting at 16 bytes.
    return bytes <= (1ull << granuleShift)
               ? granuleShift
               : static_cast<unsigned>(std::bit_width(bytes - 1));
}

std::uint64_t
RegionAllocator::allocate(std::uint64_t bytes, bool *fresh)
{
    // No block of a class this large can exist or fit; checking first
    // also keeps the class shift below 64 bits.
    if (bytes > _heapBytes)
        return badOffset;
    const unsigned lg = classLog2(bytes);
    const std::uint64_t rounded = 1ull << lg;

    std::vector<std::uint64_t> &free_list = freeLists[lg];
    if (!free_list.empty()) {
        const std::uint64_t offset = free_list.back();
        free_list.pop_back();
        liveLog2[offset >> granuleShift] = static_cast<std::uint8_t>(lg + 1);
        _stats.allocations++;
        _stats.bytesAllocated += rounded;
        if (fresh)
            *fresh = false;
        return offset;
    }

    // Align every block to min(size class, object size). Large blocks
    // start on an object boundary and span whole objects; small blocks
    // are naturally aligned, which also guarantees they never straddle
    // an object boundary. Class sizes are multiples of 16, so the
    // frontier, and with it every block, stays granule-aligned.
    const std::uint64_t align =
        rounded < objSize ? rounded : static_cast<std::uint64_t>(objSize);
    const std::uint64_t offset = (frontier() + align - 1) & ~(align - 1);
    if (offset + rounded > _heapBytes)
        return badOffset;

    bump.store(offset + rounded, std::memory_order_relaxed);
    liveLog2[offset >> granuleShift] = static_cast<std::uint8_t>(lg + 1);
    _stats.allocations++;
    _stats.bytesAllocated += rounded;
    if (fresh)
        *fresh = true;
    return offset;
}

void
RegionAllocator::deallocate(std::uint64_t offset)
{
    const std::uint64_t rounded = sizeOf(offset);
    TFM_ASSERT(rounded != 0, "free of unknown far pointer");
    const unsigned lg = liveLog2[offset >> granuleShift] - 1u;
    liveLog2[offset >> granuleShift] = 0;
    freeLists[lg].push_back(offset);
    _stats.frees++;
    _stats.bytesFreed += rounded;
}

std::uint64_t
RegionAllocator::sizeOf(std::uint64_t offset) const
{
    const std::uint64_t granule = offset >> granuleShift;
    if ((offset & ((1ull << granuleShift) - 1)) != 0 ||
        offset >= frontier() || liveLog2[granule] == 0)
        return 0;
    return 1ull << (liveLog2[granule] - 1u);
}

} // namespace tfm
