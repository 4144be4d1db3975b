/**
 * @file
 * The pluggable memory-system interface the application benchmarks are
 * written against.
 *
 * Every workload in src/workloads runs unmodified on four backends:
 *
 *  - Local:    all memory local (the "local-only" normalization line);
 *  - TrackFM:  compiler-transformed program — every heap access goes
 *              through a guard, sequential loops may be chunked and
 *              prefetched per the compiler's cost model;
 *  - Fastswap: unmodified program on kernel swap — page faults;
 *  - AIFM:     programmer-ported program using remote data structures.
 *
 * This mirrors the paper's methodology: one source program, four memory
 * systems, identical access patterns.
 */

#ifndef TRACKFM_WORKLOADS_BACKEND_HH
#define TRACKFM_WORKLOADS_BACKEND_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>

#include "sim/stats.hh"

namespace tfm
{

/** Locality hint for the base (CPU-side) cost of one access. */
enum class AccessHint
{
    Sequential, ///< streaming, vectorizable access
    Random      ///< dependent or randomly addressed access
};

/** Direction of a sequential stream. */
enum class StreamMode
{
    Read,
    Write
};

/**
 * A sequential element stream: the backend-specific best implementation
 * of "for (i = 0; i < n; i++) use(a[i])".
 */
class SeqStream
{
  public:
    virtual ~SeqStream() = default;
    /** Read the current element into @p dst and advance. */
    virtual void read(void *dst) = 0;
    /** Write the current element from @p src and advance. */
    virtual void write(const void *src) = 0;
};

/** Abstract memory system. Addresses are backend-specific handles. */
class MemBackend
{
  public:
    virtual ~MemBackend() = default;

    virtual std::string name() const = 0;

    /** @name Allocation
     * @{ */
    virtual std::uint64_t alloc(std::uint64_t bytes) = 0;
    /**
     * alloc() whose @p bytes read back as zero (calloc), charged exactly
     * like alloc(); the zeroing is unmetered, like initWrite. A block
     * carved from the allocation frontier already holds zeros and is
     * not written (initWrite never reaches past the frontier); a block
     * reused from a free list, or one on a tier that cannot promise
     * zeros, is zeroed in bounded chunks.
     */
    virtual std::uint64_t allocZeroed(std::uint64_t bytes) = 0;
    virtual void dealloc(std::uint64_t addr) = 0;
    /** @} */

    /** @name Metered access
     * @{ */
    virtual void read(std::uint64_t addr, void *dst, std::size_t len,
                      AccessHint hint) = 0;
    virtual void write(std::uint64_t addr, const void *src, std::size_t len,
                       AccessHint hint) = 0;
    /**
     * Open a sequential stream of @p count elements of @p elem_size
     * bytes starting at @p addr.
     */
    virtual std::unique_ptr<SeqStream> stream(std::uint64_t addr,
                                              std::uint32_t elem_size,
                                              std::uint64_t count,
                                              StreamMode mode) = 0;
    /** Charge @p cycles of pure compute (no memory system involvement). */
    virtual void compute(std::uint64_t cycles) = 0;
    /** @} */

    /** @name Unmetered initialization / verification
     * @{ */
    /**
     * Store @p len bytes at @p addr without charging a cycle or touching
     * residency, prefetch or replacement state. The range must lie below
     * the allocation frontier; a write past it panics on every backend.
     *
     * Concurrency contract: several threads may call initWrite at once
     * on pairwise disjoint byte ranges, provided no other call on this
     * backend runs meanwhile and no shard failure has lost a stripe of
     * its remote tier.
     * Local copies into its fixed store; Fastswap and a single remote
     * node memcpy into theirs; TrackFM and AIFM read object metadata
     * through atomic_ref, copy into a resident frame byte-disjointly and
     * take the writeback buffer's lock for a parked copy; a sharded
     * tier writes its lost-stripe flags only for stripes a shard failure
     * lost.
     */
    virtual void initWrite(std::uint64_t addr, const void *src,
                           std::size_t len) = 0;
    virtual void initRead(std::uint64_t addr, void *dst,
                          std::size_t len) = 0;
    /** @} */

    /** Push all cached state remote so measurement starts cold. */
    virtual void dropCaches() = 0;

    /** @name Measurement
     * @{ */
    /** Simulated cycles elapsed on this backend's clock. */
    virtual std::uint64_t cycles() const = 0;
    /**
     * Far-memory events: TrackFM slow-path + locality guards, Fastswap
     * major faults, AIFM misses, 0 for local (Figs. 14b / 16b).
     */
    virtual std::uint64_t farEvents() const = 0;
    /** All guard events including fast paths (TrackFM; 0 elsewhere). */
    virtual std::uint64_t guardEvents() const = 0;
    /** Payload bytes fetched from the remote node. */
    virtual std::uint64_t bytesFetched() const = 0;
    /** Total payload bytes moved in either direction. */
    virtual std::uint64_t bytesTransferred() const = 0;
    /** Full statistics export. */
    virtual StatSet stats() const = 0;
    /** @} */

    /** @name Typed sugar
     * @{ */
    template <typename T>
    T
    readT(std::uint64_t addr, AccessHint hint)
    {
        T value;
        read(addr, &value, sizeof(T), hint);
        return value;
    }

    template <typename T>
    void
    writeT(std::uint64_t addr, const T &value, AccessHint hint)
    {
        write(addr, &value, sizeof(T), hint);
    }

    template <typename T>
    void
    initT(std::uint64_t addr, const T &value)
    {
        initWrite(addr, &value, sizeof(T));
    }

    template <typename T>
    T
    peekT(std::uint64_t addr)
    {
        T value;
        initRead(addr, &value, sizeof(T));
        return value;
    }
    /** @} */
};

/**
 * Sequential set-up writer: put<T>() appends values to a fixed host
 * buffer that reaches the backend through one unmetered initWrite per
 * chunkBytes, so a fill costs one initWrite per 64 KB instead of one per
 * element.
 *
 * initWrite charges nothing and stores bytes exactly, and a writer's
 * chunks cover the same disjoint range its elements would, so a chunked
 * fill leaves the far heap and the clock exactly as the per-element fill
 * did. The caller keeps the rest of that argument: every alloc stays
 * where it was, and flush() runs before any initRead/peekT of the range
 * (or before seek() moves the writer on). The destructor flushes the
 * tail.
 */
class InitWriter
{
  public:
    static constexpr std::size_t chunkBytes = 64 << 10;

    InitWriter(MemBackend &backend, std::uint64_t addr)
        : b(backend), base(addr),
          buf(std::make_unique_for_overwrite<std::byte[]>(chunkBytes))
    {}

    ~InitWriter() { flush(); }

    InitWriter(const InitWriter &) = delete;
    InitWriter &operator=(const InitWriter &) = delete;

    template <typename T>
    void
    put(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "set-up values are copied bytewise");
        if (used + sizeof(T) < chunkBytes) {
            std::memcpy(buf.get() + used, &value, sizeof(T));
            used += sizeof(T);
        } else {
            append(&value, sizeof(T));
        }
    }

    /** Write out the buffered bytes; the next put() continues after them. */
    void
    flush()
    {
        if (used == 0)
            return;
        b.initWrite(base, buf.get(), used);
        base += used;
        used = 0;
    }

    /** Flush, then continue writing at @p addr. */
    void
    seek(std::uint64_t addr)
    {
        flush();
        base = addr;
    }

  private:
    void
    append(const void *src, std::size_t len)
    {
        const auto *bytes = static_cast<const std::byte *>(src);
        while (len > 0) {
            const std::size_t n = std::min(len, chunkBytes - used);
            std::memcpy(buf.get() + used, bytes, n);
            used += n;
            bytes += n;
            len -= n;
            if (used == chunkBytes)
                flush();
        }
    }

    MemBackend &b;
    std::uint64_t base; ///< far address of buf[0]
    std::size_t used = 0;
    std::unique_ptr<std::byte[]> buf;
};

/** Point-in-time counters for windowed measurement. */
struct BackendSnapshot
{
    std::uint64_t cycles = 0;
    std::uint64_t farEvents = 0;
    std::uint64_t guardEvents = 0;
    std::uint64_t bytesFetched = 0;
    std::uint64_t bytesTransferred = 0;
};

/** Capture current counters. */
BackendSnapshot snapshot(const MemBackend &backend);

/** Counter deltas between two snapshots (b - a). */
BackendSnapshot deltaSince(const BackendSnapshot &a,
                           const BackendSnapshot &b);

} // namespace tfm

#endif // TRACKFM_WORKLOADS_BACKEND_HH
