/**
 * @file
 * The kernel-swap residency and cost model (Fastswap, Amaro et al.,
 * EuroSys '20), shared by both of its bindings:
 *
 *  - FastswapRuntime, the paper's kernel-paging comparison point, which
 *    owns its clock, link and remote node;
 *  - TfmRuntime's paged plane (DESIGN.md §4l), which binds the model to
 *    the far-memory runtime's main clock and link.
 *
 * The model stores no data. It tracks which 4 KB pages are resident and
 * charges the clock and link it is given:
 *
 *  - a touch of a resident, mapped page costs nothing extra;
 *  - a touch of a page readahead has fetched but no fault has mapped yet
 *    is a minor fault: the Table 2 local fault price (1.3 K) plus any
 *    residual wait for the in-flight transfer;
 *  - a touch of a non-resident page is a major fault: fault handling
 *    plus a synchronous whole-page transfer (~34-35 K cycles), followed
 *    by Linux-style swap readahead of the next pages into free slots
 *    (speculation never reclaims);
 *  - when every slot is taken, a CLOCK sweep over the slot array picks
 *    a victim: reclaim charges per page and writes dirty pages back.
 *    Every allocated slot, readahead ones included, starts with its
 *    reference bit set; the sweep clears set bits and takes the first
 *    clear one, so it ends within two laps.
 */

#ifndef TRACKFM_FASTSWAP_SWAP_MODEL_HH
#define TRACKFM_FASTSWAP_SWAP_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/network_model.hh"
#include "sim/cost_params.hh"
#include "sim/cycle_clock.hh"
#include "sim/stats.hh"

namespace tfm
{

/** Fault/paging counters (Fig. 14b and 16b plot these). */
struct SwapStats
{
    std::uint64_t minorFaults = 0; ///< data local, PTE fixup only
    std::uint64_t majorFaults = 0; ///< remote fetch required
    std::uint64_t pageouts = 0;    ///< dirty pages written back
    std::uint64_t reclaims = 0;    ///< pages evicted
    std::uint64_t readaheads = 0;  ///< pages pulled in speculatively
};

/** Page table plus slot array over a far heap; see the file comment. */
class SwapModel
{
  public:
    /// Architected page size: fixed at 4 KB on the paper's testbed.
    static constexpr std::uint32_t kPageBytes = 4096;

    /**
     * @param far_heap_bytes  size of the swappable heap (page table).
     * @param local_bytes     resident budget (slot array, at least one).
     * @param readahead_pages pages fetched after a major fault; 0 = off.
     * @param prefix          stat prefix and trace category; a string
     *                        literal, as trace events keep the pointer.
     *
     * Fault spans, reclaim/readahead instants and the fault-latency
     * histogram go to @p net's observability stream, if attached.
     */
    SwapModel(CycleClock &clock, NetworkModel &net, const CostParams &costs,
              std::uint64_t far_heap_bytes, std::uint64_t local_bytes,
              std::uint32_t readahead_pages, const char *prefix);

    /**
     * Account one @p len byte access at heap @p offset: one minor or
     * major fault per non-mapped page touched. Moves no data.
     */
    void touch(std::uint64_t offset, std::size_t len, bool for_write);

    /**
     * Drop every resident page without metering, so a measurement can
     * start from a fully remote heap.
     */
    void evacuate();

    const SwapStats &stats() const { return _stats; }
    std::uint64_t residentPages() const
    {
        return slots_.size() - freeSlots_.size();
    }

    /** Counters under "<prefix>.*". */
    void exportStats(StatSet &set) const;

  private:
    /** One resident (or readahead in-flight) page. */
    struct Slot
    {
        std::uint64_t page = kNoPage;
        std::uint64_t arrival = 0; ///< readahead completion cycle
        bool dirty = false;
        bool inflight = false; ///< fetched by readahead, not yet mapped
        bool refbit = false;   ///< CLOCK reference bit
    };

    static constexpr std::uint64_t kNoPage = ~0ull;
    static constexpr std::uint32_t kNoSlot = ~0u;

    void majorFault(std::uint64_t page, bool for_write);
    void readahead(std::uint64_t page);
    /** Map @p page into a free slot (reference bit set). */
    Slot &place(std::uint32_t slot, std::uint64_t page);
    /** Evict the CLOCK victim, freeing its slot. */
    void reclaim();
    /** Unmap @p slot's page and push the slot on the free list. */
    void release(std::uint32_t slot);

    CycleClock &clock_;
    NetworkModel &net_;
    const CostParams &costs_;
    std::uint32_t readaheadPages_;
    const char *prefix_;
    std::vector<std::uint32_t> slotOf_; ///< page -> slot, kNoSlot if remote
    std::vector<Slot> slots_;
    /// Filled descending, so allocation hands out slots 0, 1, 2, ...
    std::vector<std::uint32_t> freeSlots_;
    std::uint32_t hand_ = 0;
    SwapStats _stats;
};

} // namespace tfm

#endif // TRACKFM_FASTSWAP_SWAP_MODEL_HH
