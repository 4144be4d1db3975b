#include "bench.hh"

#include <sys/resource.h>

namespace perfbench
{

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB on Linux
}

void
layerTrackFm(const tfm::StatSet &a, const tfm::StatSet &b, double ops,
             Outcome &out)
{
    const auto d = [&](const char *name) { return grown(a, b, name); };
    const double fast = d("guard.fast_reads") + d("guard.fast_writes");
    const double slow = d("guard.slow_local_reads") +
                        d("guard.slow_local_writes") +
                        d("guard.slow_remote_reads") +
                        d("guard.slow_remote_writes");
    const double locality = d("guard.locality_guards");
    out.layer["tfm.guards_per_op"] = ratio(fast + slow + locality, ops);
    out.layer["tfm.fast_frac"] = ratio(fast, fast + slow);
    out.layer["tfm.cache_hit_frac"] =
        ratio(d("guard.cache_hit_reads") + d("guard.cache_hit_writes"), fast);
    out.layer["tfm.slow_remote_per_op"] = ratio(
        d("guard.slow_remote_reads") + d("guard.slow_remote_writes"), ops);
    out.layer["tfm.locality_guards_per_op"] = ratio(locality, ops);
    out.layer["tfm.reval_hit_frac"] =
        ratio(d("guard.revalidation_hits"), d("guard.revalidations"));

    out.layer["runtime.demand_fetches_per_op"] =
        ratio(d("runtime.demand_fetches"), ops);
    out.layer["runtime.evictions_per_op"] = ratio(d("runtime.evictions"), ops);
    out.layer["runtime.dirty_writebacks_per_op"] =
        ratio(d("runtime.dirty_writebacks"), ops);
    out.layer["runtime.prefetch_hit_frac"] =
        ratio(d("runtime.prefetch_hits"), d("runtime.prefetch_issued"));
    out.layer["runtime.prefetch_late_frac"] =
        ratio(d("runtime.prefetch_late_hits"), d("runtime.prefetch_hits"));

    out.layer["net.fetch_msgs_per_op"] = ratio(d("net.fetch_messages"), ops);
    out.layer["net.payloads_per_fetch_msg"] =
        ratio(d("net.fetch_payloads"), d("net.fetch_messages"));
    out.layer["net.bytes_fetched_per_op"] = ratio(d("net.bytes_fetched"), ops);
    out.layer["net.bytes_written_back_per_op"] =
        ratio(d("net.bytes_written_back"), ops);
}

void
layerFastswap(const tfm::StatSet &a, const tfm::StatSet &b, double ops,
              Outcome &out)
{
    const auto d = [&](const char *name) { return grown(a, b, name); };
    out.layer["fastswap.major_faults_per_op"] =
        ratio(d("fastswap.major_faults"), ops);
    out.layer["fastswap.minor_faults_per_op"] =
        ratio(d("fastswap.minor_faults"), ops);
    out.layer["fastswap.readaheads_per_op"] =
        ratio(d("fastswap.readaheads"), ops);
    out.layer["fastswap.reclaims_per_op"] = ratio(d("fastswap.reclaims"), ops);
    out.layer["fastswap.bytes_per_op"] =
        ratio(d("net.bytes_fetched") + d("net.bytes_written_back"), ops);
}

std::vector<std::uint64_t>
statValues(const tfm::StatSet &set)
{
    std::vector<std::uint64_t> values;
    for (const auto &entry : set.all())
        values.push_back(entry.second);
    return values;
}

} // namespace perfbench
