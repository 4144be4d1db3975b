#include "swap_model.hh"

#include <algorithm>
#include <string>

#include "obs/obs.hh"
#include "sim/logging.hh"

namespace tfm
{

namespace
{

/** The link's trace sink when it is recording, else nullptr. */
TraceSink *
tracing(const NetworkModel &net)
{
    Observability *obs = net.obs();
    return obs && obs->trace().enabled() ? &obs->trace() : nullptr;
}

} // anonymous namespace

SwapModel::SwapModel(CycleClock &clock, NetworkModel &net,
                     const CostParams &costs, std::uint64_t far_heap_bytes,
                     std::uint64_t local_bytes,
                     std::uint32_t readahead_pages, const char *prefix)
    : clock_(clock),
      net_(net),
      costs_(costs),
      readaheadPages_(readahead_pages),
      prefix_(prefix),
      slotOf_((far_heap_bytes + kPageBytes - 1) / kPageBytes, kNoSlot),
      slots_(std::max<std::uint64_t>(1, local_bytes / kPageBytes))
{
    freeSlots_.reserve(slots_.size());
    for (std::uint32_t s = static_cast<std::uint32_t>(slots_.size()); s-- > 0;)
        freeSlots_.push_back(s);
}

void
SwapModel::touch(std::uint64_t offset, std::size_t len, bool for_write)
{
    if (len == 0)
        return;
    const std::uint64_t first = offset / kPageBytes;
    const std::uint64_t last = (offset + len - 1) / kPageBytes;
    TFM_ASSERT(last < slotOf_.size(), "swap access beyond the far heap");
    for (std::uint64_t page = first; page <= last; page++) {
        const std::uint32_t slot = slotOf_[page];
        if (slot == kNoSlot) {
            majorFault(page, for_write);
            continue;
        }
        Slot &s = slots_[slot];
        s.refbit = true;
        if (s.inflight) {
            // Swap-cache hit: readahead landed the page but no fault has
            // mapped it yet -> minor fault (PTE fixup + residual wait).
            clock_.advance(costs_.pageFaultLocalCycles);
            net_.waitUntil(s.arrival);
            s.inflight = false;
            _stats.minorFaults++;
            if (TraceSink *t = tracing(net_)) {
                t->instant(net_.obsStream(), TrackApp, "minor-fault",
                           prefix_, clock_.now());
                t->arg("page", page);
            }
        }
        if (for_write)
            s.dirty = true;
    }
}

void
SwapModel::majorFault(std::uint64_t page, bool for_write)
{
    // The span covers reclaim, the page transfer and readahead issue;
    // the reclaim/readahead instants land inside it.
    const std::uint64_t faultStart = clock_.now();
    if (TraceSink *t = tracing(net_)) {
        t->begin(net_.obsStream(), TrackApp, "major-fault", prefix_,
                 faultStart);
        t->arg("page", page);
    }
    if (freeSlots_.empty())
        reclaim();
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    clock_.advance(costs_.pageFaultLocalCycles +
                   costs_.pageFaultRemoteSwCycles);
    net_.fetchSync(kPageBytes);
    place(slot, page).dirty = for_write;
    _stats.majorFaults++;

    readahead(page);

    if (Observability *obs = net_.obs()) {
        obs->faultLatency.record(clock_.now() - faultStart);
        if (TraceSink *t = tracing(net_)) {
            t->end(net_.obsStream(), TrackApp, "major-fault", prefix_,
                   clock_.now());
        }
    }
}

void
SwapModel::readahead(std::uint64_t page)
{
    for (std::uint32_t k = 1; k <= readaheadPages_; k++) {
        const std::uint64_t target = page + k;
        if (target >= slotOf_.size())
            break;
        if (slotOf_[target] != kNoSlot)
            continue;
        if (freeSlots_.empty())
            break; // never reclaim on behalf of speculation
        const std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        Slot &s = place(slot, target);
        s.inflight = true;
        s.arrival = net_.fetchAsync(kPageBytes);
        _stats.readaheads++;
        if (TraceSink *t = tracing(net_)) {
            t->instant(net_.obsStream(), TrackApp, "readahead",
                       prefix_, clock_.now());
            t->arg("page", target);
        }
    }
}

SwapModel::Slot &
SwapModel::place(std::uint32_t slot, std::uint64_t page)
{
    slotOf_[page] = slot;
    Slot &s = slots_[slot];
    s = Slot{};
    s.page = page;
    s.refbit = true;
    return s;
}

void
SwapModel::reclaim()
{
    // Every slot is in use here and none is pinned, so the first lap
    // clears reference bits and the second is sure to find a victim.
    std::uint32_t victim;
    for (;;) {
        victim = hand_;
        hand_ = hand_ + 1 == slots_.size() ? 0 : hand_ + 1;
        Slot &s = slots_[victim];
        if (!s.refbit)
            break;
        s.refbit = false;
    }
    const Slot &s = slots_[victim];
    clock_.advance(costs_.pageReclaimCycles);
    if (TraceSink *t = tracing(net_)) {
        t->instant(net_.obsStream(), TrackApp, "reclaim", prefix_,
                   clock_.now());
        t->arg("page", s.page);
        t->arg("dirty", s.dirty ? 1 : 0);
    }
    if (s.dirty) {
        net_.writebackAsync(kPageBytes);
        _stats.pageouts++;
    }
    _stats.reclaims++;
    release(victim);
}

void
SwapModel::release(std::uint32_t slot)
{
    slotOf_[slots_[slot].page] = kNoSlot;
    slots_[slot] = Slot{};
    freeSlots_.push_back(slot);
}

void
SwapModel::evacuate()
{
    for (std::uint32_t s = 0; s < slots_.size(); s++) {
        if (slots_[s].page != kNoPage)
            release(s);
    }
}

void
SwapModel::exportStats(StatSet &set) const
{
    const std::string p = prefix_;
    set.add(p + ".minor_faults", _stats.minorFaults);
    set.add(p + ".major_faults", _stats.majorFaults);
    set.add(p + ".pageouts", _stats.pageouts);
    set.add(p + ".reclaims", _stats.reclaims);
    set.add(p + ".readaheads", _stats.readaheads);
    set.add(p + ".resident_pages", residentPages());
}

} // namespace tfm
