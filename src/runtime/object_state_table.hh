/**
 * @file
 * TrackFM's object state table: a contiguous array of ObjectMeta entries
 * indexed by object ID (section 3.2 of the paper).
 *
 * Sized like a single-level page table over the far heap: heapBytes /
 * objectSize entries of 8 bytes each (e.g. a 32 GB heap of 4 KB objects
 * needs 2^23 entries = 64 MB).
 *
 * The entries are a ZeroedArray, like RemoteNode's store: every object
 * starts remote (the all-zero word), and the host faults in only the
 * table pages a run touches instead of zero-filling the whole table up
 * front.
 */

#ifndef TRACKFM_RUNTIME_OBJECT_STATE_TABLE_HH
#define TRACKFM_RUNTIME_OBJECT_STATE_TABLE_HH

#include <cstdint>

#include "object_meta.hh"
#include "sim/logging.hh"
#include "sim/zeroed_array.hh"

namespace tfm
{

/** Flat object-ID -> metadata lookup table. */
class ObjectStateTable
{
  public:
    ObjectStateTable(std::uint64_t heap_bytes, std::uint32_t object_size)
        : objSize(object_size),
          objShift(shiftFor(object_size)),
          count((heap_bytes + object_size - 1) / object_size),
          entries(makeZeroedArray<ObjectMeta>(count))
    {}

    std::uint64_t numObjects() const { return count; }
    std::uint32_t objectSize() const { return objSize; }
    std::uint32_t objectShift() const { return objShift; }

    /** Object ID covering a far-heap byte offset. */
    std::uint64_t
    objectOf(std::uint64_t offset) const
    {
        return offset >> objShift;
    }

    /** Byte offset of @p offset within its object. */
    std::uint64_t
    offsetInObject(std::uint64_t offset) const
    {
        return offset & (objSize - 1);
    }

    ObjectMeta &
    operator[](std::uint64_t obj_id)
    {
        TFM_ASSERT(obj_id < count, "object id out of table range");
        return entries[obj_id];
    }

    const ObjectMeta &
    operator[](std::uint64_t obj_id) const
    {
        TFM_ASSERT(obj_id < count, "object id out of table range");
        return entries[obj_id];
    }

    /** Metadata footprint in bytes (reported like a page-table cost). */
    std::uint64_t footprintBytes() const { return count * 8; }

  private:
    static std::uint32_t
    shiftFor(std::uint32_t object_size)
    {
        TFM_ASSERT(object_size >= 16 &&
                       (object_size & (object_size - 1)) == 0,
                   "object size must be a power of two >= 16");
        std::uint32_t shift = 0;
        while ((1u << shift) < object_size)
            shift++;
        return shift;
    }

    std::uint32_t objSize;
    std::uint32_t objShift;
    std::uint64_t count;
    ZeroedArray<ObjectMeta> entries;
};

} // namespace tfm

#endif // TRACKFM_RUNTIME_OBJECT_STATE_TABLE_HH
