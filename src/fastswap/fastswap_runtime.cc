#include "fastswap_runtime.hh"

#include "obs/obs.hh"
#include "sim/logging.hh"
#include "sim/zeroed_array.hh"

namespace tfm
{

FastswapRuntime::FastswapRuntime(const FastswapConfig &config,
                                 const CostParams &cost_params)
    : cfg(config),
      _costs(cost_params),
      _net(_clock, _costs),
      _remote(config.farHeapBytes),
      alloc_(config.farHeapBytes, SwapModel::kPageBytes),
      model_(_clock, _net, _costs, config.farHeapBytes, config.localMemBytes,
             config.readaheadPages, "fastswap")
{
    obs_ = cfg.obs ? cfg.obs : obs::defaultSink();
    if (obs_) {
        obsStream_ = obs_->registerStream(
            cfg.obsLabel.empty() ? "fastswap" : cfg.obsLabel.c_str());
        _net.attachObs(obs_, obsStream_);
    }
}

std::uint64_t
FastswapRuntime::allocate(std::uint64_t bytes, bool *fresh)
{
    _clock.advance(_costs.allocCycles);
    const std::uint64_t offset = alloc_.allocate(bytes, fresh);
    TFM_ASSERT(offset != RegionAllocator::badOffset,
               "fastswap heap exhausted");
    return offset;
}

std::uint64_t
FastswapRuntime::allocateZeroed(std::uint64_t bytes)
{
    bool fresh = false;
    const std::uint64_t offset = allocate(bytes, &fresh);
    if (!fresh)
        writeZeros(*this, offset, bytes);
    return offset;
}

void
FastswapRuntime::deallocate(std::uint64_t offset)
{
    _clock.advance(_costs.allocCycles);
    alloc_.deallocate(offset);
}

void
FastswapRuntime::readBytes(std::uint64_t offset, void *dst, std::size_t len)
{
    obsEpochSample();
    model_.touch(offset, len, /*for_write=*/false);
    rawRead(offset, dst, len);
}

void
FastswapRuntime::writeBytes(std::uint64_t offset, const void *src,
                            std::size_t len)
{
    obsEpochSample();
    model_.touch(offset, len, /*for_write=*/true);
    rawWrite(offset, src, len);
}

void
FastswapRuntime::rawWrite(std::uint64_t offset, const void *src,
                          std::size_t len)
{
    TFM_ASSERT(alloc_.belowFrontier(offset, len),
               "raw write past the allocation frontier");
    _remote.rawWrite(offset, static_cast<const std::byte *>(src), len);
}

void
FastswapRuntime::rawRead(std::uint64_t offset, void *dst, std::size_t len)
{
    _remote.rawRead(offset, static_cast<std::byte *>(dst), len);
}

void
FastswapRuntime::exportStats(StatSet &set) const
{
    model_.exportStats(set);
    set.add("net.bytes_fetched", _net.stats().bytesFetched);
    set.add("net.bytes_written_back", _net.stats().bytesWrittenBack);
    set.add("clock.cycles", _clock.now());
    if (obs_)
        obs_->exportStats(set);
}

void
FastswapRuntime::obsEpochSample()
{
    if (!obs_ || !obs_->seriesDue(obsStream_, _clock.now()))
        return;
    obs_->counterSample(obsStream_, _clock.now(),
                        {{"frames_used", model_.residentPages()},
                         {"net_bytes", _net.stats().totalBytes()}});
}

} // namespace tfm
