/**
 * @file
 * A zero-initialized array in an anonymous mapping of its own.
 *
 * The host faults in a fresh mapping's zero pages on first touch, so a
 * table sized for a whole far heap costs zeroing and resident memory
 * only for the part a run touches, where a zero-filled std::vector
 * writes every byte up front. calloc would give that only above malloc's
 * mmap threshold, which glibc raises to the size of the last mapped
 * block freed (up to 32 MB): a process that builds one backend after
 * another then gets its tables from the heap, zero-filled and resident.
 * The far heap's stores, the object state table and the allocator's
 * block table all start as all-zero words and hold them this way.
 *
 * writeZeros() is the other half: it zeroes a far range through a
 * runtime's raw write from one static buffer, for the blocks that do
 * not already hold zeros (a reused block).
 */

#ifndef TRACKFM_SIM_ZEROED_ARRAY_HH
#define TRACKFM_SIM_ZEROED_ARRAY_HH

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>

namespace tfm
{

/** Unmaps a ZeroedArray's mapping. */
struct UnmapDeleter
{
    std::size_t bytes = 0;

    void operator()(void *p) const { munmap(p, bytes); }
};

template <typename T>
using ZeroedArray = std::unique_ptr<T[], UnmapDeleter>;

/**
 * @p count all-zero elements of T in a mapping of their own. T must be
 * an implicit-lifetime type whose all-zero bytes are a valid value.
 * Throws std::bad_alloc when the memory is not there.
 */
template <typename T>
ZeroedArray<T>
makeZeroedArray(std::size_t count)
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "zero pages hold only implicit-lifetime types");
    if (count > std::numeric_limits<std::size_t>::max() / sizeof(T))
        throw std::bad_alloc();
    // A zero-length mapping is an error; one element keeps it valid.
    const std::size_t bytes = (count ? count : 1) * sizeof(T);
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return ZeroedArray<T>(static_cast<T *>(p), UnmapDeleter{bytes});
}

/// The largest piece one writeZeros() call writes at once.
inline constexpr std::uint64_t zeroChunkBytes = 64 << 10;

/// writeZeros()'s source, never written. Not const, so it sits in .bss
/// and costs no resident page until read: a const array would be 64 KB
/// of the binary's read-only data, mapped in with whatever lies next to
/// it.
inline std::array<std::byte, zeroChunkBytes> zeroChunk{};

/**
 * Zero [@p offset, @p offset + @p bytes) through @p target.rawWrite()
 * calls of at most zeroChunkBytes each, all reading zeroChunk: no
 * temporary the size of the range.
 */
template <typename Target>
void
writeZeros(Target &target, std::uint64_t offset, std::uint64_t bytes)
{
    for (std::uint64_t done = 0; done < bytes; done += zeroChunkBytes) {
        target.rawWrite(offset + done, zeroChunk.data(),
                        static_cast<std::size_t>(
                            std::min(bytes - done, zeroChunkBytes)));
    }
}

} // namespace tfm

#endif // TRACKFM_SIM_ZEROED_ARRAY_HH
