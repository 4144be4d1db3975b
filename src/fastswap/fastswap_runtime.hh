/**
 * @file
 * Fastswap-style kernel-based far memory baseline.
 *
 * Models the paper's kernel-based comparison point (Amaro et al.,
 * EuroSys '20): the application is unmodified, every page of its heap
 * can be swapped to the remote node, and the only interposition point is
 * the hardware page fault. The fault, readahead and reclaim costs are
 * the SwapModel's (swap_model.hh); this runtime binds it to a private
 * clock and link, keeps the bytes in a RemoteNode and allocates from
 * the swappable heap.
 */

#ifndef TRACKFM_FASTSWAP_FASTSWAP_RUNTIME_HH
#define TRACKFM_FASTSWAP_FASTSWAP_RUNTIME_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "net/network_model.hh"
#include "remote/remote_node.hh"
#include "runtime/region_allocator.hh"
#include "sim/cost_params.hh"
#include "sim/cycle_clock.hh"
#include "sim/stats.hh"
#include "swap_model.hh"

namespace tfm
{

class Observability;

/** Configuration for the Fastswap baseline. */
struct FastswapConfig
{
    std::uint64_t farHeapBytes = 64ull << 20;
    std::uint64_t localMemBytes = 16ull << 20;
    /// Swap readahead window (pages fetched after a major fault); 0 = off.
    std::uint32_t readaheadPages = 8;
    /// Observability sink; null falls back to obs::defaultSink().
    Observability *obs = nullptr;
    /// Per-instance trace stream label; empty uses "fastswap".
    std::string obsLabel;
};

/** The kernel-swap simulator: a SwapModel over a private remote heap. */
class FastswapRuntime
{
  public:
    FastswapRuntime(const FastswapConfig &config,
                    const CostParams &cost_params);

    CycleClock &clock() { return _clock; }
    NetworkModel &net() { return _net; }
    const CostParams &costs() const { return _costs; }
    const FastswapConfig &config() const { return cfg; }

    /**
     * Allocate heap (ordinary malloc; any page may be swapped). @p
     * fresh, when given, reports whether the block came from the
     * frontier (RegionAllocator::allocate).
     */
    std::uint64_t allocate(std::uint64_t bytes, bool *fresh = nullptr);
    /**
     * allocate() whose @p bytes read back as zero (calloc), charged the
     * same: a block fresh from the frontier is not written, a reused
     * one is zeroed through rawWrite(), unmetered.
     */
    std::uint64_t allocateZeroed(std::uint64_t bytes);
    void deallocate(std::uint64_t offset);

    /** Read @p len bytes; one potential fault per page touched. */
    void readBytes(std::uint64_t offset, void *dst, std::size_t len);

    /** Write @p len bytes; one potential fault per page touched. */
    void writeBytes(std::uint64_t offset, const void *src, std::size_t len);

    /** Typed access helpers. */
    template <typename T>
    T
    load(std::uint64_t offset)
    {
        T value;
        readBytes(offset, &value, sizeof(T));
        return value;
    }

    template <typename T>
    void
    store(std::uint64_t offset, const T &value)
    {
        writeBytes(offset, &value, sizeof(T));
    }

    /** @name Initialization (no accounting)
     * @{ */
    /** Panics past the allocation frontier, whose bytes stay zero for
     *  allocateZeroed(). */
    void rawWrite(std::uint64_t offset, const void *src, std::size_t len);
    void rawRead(std::uint64_t offset, void *dst, std::size_t len);
    /** @} */

    /** Push every page remote so measurement starts cold. */
    void evacuateAll() { model_.evacuate(); }

    const SwapStats &stats() const { return model_.stats(); }
    const NetStats &netStats() const { return _net.stats(); }
    void exportStats(StatSet &set) const;

    Observability *obs() const { return obs_; }
    std::uint32_t obsStream() const { return obsStream_; }

  private:
    /** Epoch time-series snapshot (residency, wire bytes) when due. */
    void obsEpochSample();

    FastswapConfig cfg;
    CostParams _costs;
    CycleClock _clock;
    NetworkModel _net;
    RemoteNode _remote;
    RegionAllocator alloc_;
    SwapModel model_;
    Observability *obs_ = nullptr;
    std::uint32_t obsStream_ = 0;
};

} // namespace tfm

#endif // TRACKFM_FASTSWAP_FASTSWAP_RUNTIME_HH
