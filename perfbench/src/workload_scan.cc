/**
 * @file
 * scan_analytics: STREAM sum, copy and triad over three int64 arrays,
 * then the four-query dataframe suite, on TrackFM with 4 KB objects,
 * cost-model chunking and stride prefetch at local memory 1/4 of the
 * working set; then the same requests on Fastswap.
 */

#include <memory>

#include "bench.hh"
#include "workloads/backend_config.hh"
#include "workloads/dataframe.hh"
#include "workloads/stream.hh"

namespace perfbench
{

namespace
{

/// STREAM elements per array and dataframe rows: these maxima less a
/// seed-chosen trim of up to 1.6%, so that each seed has its own sizes.
constexpr std::uint64_t kMaxElements = 1u << 20;
constexpr std::uint64_t kMaxRows = 1u << 18;
constexpr int kStreamRounds = 2; ///< sum/copy/triad repetitions per round
constexpr int kQueryRounds = 2;  ///< dataframe suite runs per round
constexpr std::uint32_t kObjectBytes = 4096;
constexpr std::uint64_t kLocalDivisor = 4;
/// Per-request latency SLO for goodput, in simulated cycles.
constexpr std::uint64_t kSloCycles = 200'000'000;

/** The inputs generated from the seed. */
struct Inputs
{
    std::uint64_t elements = 0;
    std::uint64_t rows = 0;
    std::uint64_t tableSeed = 0;
};

Inputs
makeInputs(std::uint64_t seed)
{
    tfm::Rng rng(subSeed(seed, 12));
    Inputs in;
    in.elements = kMaxElements - 64 * rng.below(256);
    in.rows = kMaxRows - 16 * rng.below(256);
    in.tableSeed = subSeed(seed, 11);
    return in;
}

/** Dataframe working set: six 4/8-byte columns plus 8 B group values. */
std::uint64_t
dataframeBytes(std::uint64_t rows)
{
    const tfm::DataframeParams p;
    const std::uint64_t groups = (rows + p.rowGroupSize - 1) / p.rowGroupSize;
    return rows * 36 + groups * p.rowGroupSize * 8;
}

std::unique_ptr<tfm::MemBackend>
backendFor(tfm::SystemKind kind, std::uint64_t workingSet)
{
    tfm::BackendConfig cfg;
    cfg.kind = kind;
    cfg.farHeapBytes = workingSet * 2 + (16ull << 20);
    cfg.localMemBytes = workingSet / kLocalDivisor;
    cfg.objectSizeBytes = kObjectBytes;
    cfg.prefetchEnabled = true;
    cfg.chunkPolicy = tfm::ChunkPolicy::CostModel;
    return tfm::makeBackend(cfg, tfm::CostParams{});
}

/** One system's pass over the request sequence. */
struct Pass
{
    std::uint64_t cycles = 0;
    std::uint64_t elements = 0;
    std::uint64_t goodElements = 0; ///< in requests within the SLO
    std::vector<std::uint64_t> latency; ///< per request, simulated cycles
    tfm::StatSet before, after;
    double fillSeconds = 0.0;
    std::vector<double> rates; ///< host elements/s of each request
};

Pass
runOn(tfm::SystemKind kind, const Inputs &in, SpanTrace &trace,
      std::uint64_t group, Outcome &out)
{
    Pass pass;
    const std::string sys = tfm::systemName(kind);
    double t0 = hostNow();
    std::unique_ptr<tfm::MemBackend> streamMem, tableMem;
    std::unique_ptr<tfm::StreamWorkload> stream;
    std::unique_ptr<tfm::DataframeWorkload> table;
    {
        SpanTrace::Scope span(trace, "workloads", "fill", group);
        streamMem = backendFor(kind, 3 * in.elements * 8);
        stream = std::make_unique<tfm::StreamWorkload>(*streamMem,
                                                       in.elements, 3, 8);
        tableMem = backendFor(kind, dataframeBytes(in.rows));
        tfm::DataframeParams params;
        params.numRows = in.rows;
        params.seed = in.tableSeed;
        table = std::make_unique<tfm::DataframeWorkload>(*tableMem, params);
    }
    pass.fillSeconds = hostNow() - t0;

    pass.before = streamMem->stats();
    pass.before.merge(tableMem->stats());
    double started = 0.0;
    const auto request = [&](std::uint64_t cycles, std::uint64_t elements) {
        pass.rates.push_back(static_cast<double>(elements) /
                             (hostNow() - started));
        pass.latency.push_back(cycles);
        pass.cycles += cycles;
        pass.elements += elements;
        pass.goodElements += cycles <= kSloCycles ? elements : 0;
        out.attempted++;
    };
    const std::int64_t lastA =
        static_cast<std::int64_t>((in.elements - 1) % 1000) - 500;
    for (int p = 0; p < kStreamRounds; p++) {
        SpanTrace::Scope span(trace, "workloads", "stream", group);
        started = hostNow();
        const tfm::StreamResult sum = stream->runSum();
        request(sum.delta.cycles, in.elements);
        if (sum.checksum != stream->expectedSum())
            out.fail(sys + ": STREAM sum checksum mismatch");
        started = hostNow();
        const tfm::StreamResult copy = stream->runCopy();
        request(copy.delta.cycles, in.elements);
        // c = a + 3 * b with b == a after the copy.
        started = hostNow();
        const tfm::StreamResult triad = stream->runTriad();
        request(triad.delta.cycles, in.elements);
        if (triad.checksum != 4 * lastA)
            out.fail(sys + ": STREAM triad result mismatch");
    }
    for (int q = 0; q < kQueryRounds; q++) {
        SpanTrace::Scope span(trace, "workloads", "dataframe", group);
        started = hostNow();
        const tfm::DataframeResult result = table->run();
        request(result.delta.cycles, 4 * in.rows);
        const tfm::DataframeAnswers &got = result.answers;
        const tfm::DataframeAnswers &want = table->expected();
        bool ok = got.tripsWithManyPassengers ==
                      want.tripsWithManyPassengers &&
                  got.longTrips == want.longTrips &&
                  got.groupAggregate == want.groupAggregate;
        for (int h = 0; h < 24; h++)
            ok = ok && got.totalFareByHour[h] == want.totalFareByHour[h];
        if (!ok)
            out.fail(sys + ": dataframe answers differ from expected()");
    }
    pass.after = streamMem->stats();
    pass.after.merge(tableMem->stats());

    SpanTrace::Scope span(trace, "workloads", "verify_copy", group);
    if (!stream->verifyCopy())
        out.fail(sys + ": STREAM copy destination differs from source");
    return pass;
}

} // anonymous namespace

Outcome
runScanAnalytics(const Options &opt, SpanTrace &trace)
{
    Outcome out;
    Rounds rounds(opt.seconds);
    Fingerprint fingerprint;
    std::vector<double> setup, fill;
    HostRate host;
    const Inputs in = makeInputs(opt.seed);
    while (rounds.another()) {
        const int r = rounds.next();
        trace.setEnabled(opt.trace && r % 2 == 1);
        const std::uint64_t group = static_cast<std::uint64_t>(r) * 4;
        SpanTrace::Scope round(trace, "bench", "round", group);

        Pass tfmPass =
            runOn(tfm::SystemKind::TrackFm, in, trace, group + 1, out);
        Pass fswPass =
            runOn(tfm::SystemKind::Fastswap, in, trace, group + 2, out);

        setup.push_back(tfmPass.fillSeconds + fswPass.fillSeconds);
        fill.push_back(tfmPass.fillSeconds);
        const double elements = static_cast<double>(tfmPass.elements);
        host.addRound(tfmPass.rates, trace.enabled());

        const std::uint64_t p50 = percentile(tfmPass.latency, 50);
        const std::uint64_t p99 = percentile(tfmPass.latency, 99);
        std::vector<std::uint64_t> sim = statValues(tfmPass.after);
        const std::vector<std::uint64_t> fswSim = statValues(fswPass.after);
        sim.insert(sim.end(), fswSim.begin(), fswSim.end());
        sim.insert(sim.end(), tfmPass.latency.begin(), tfmPass.latency.end());
        sim.insert(sim.end(), fswPass.latency.begin(), fswPass.latency.end());
        fingerprint.check(r, sim, out, "scan_analytics");

        if (r == 0) {
            out.e2e["sim_cycles_per_op"] =
                static_cast<double>(tfmPass.cycles) / elements;
            out.e2e["fastswap_sim_cycles_per_op"] =
                static_cast<double>(fswPass.cycles) / elements;
            out.e2e["p50_cycles"] = static_cast<double>(p50);
            out.e2e["p99_cycles"] = static_cast<double>(p99);
            out.e2e["goodput_per_mcycle"] =
                1e6 * static_cast<double>(tfmPass.goodElements) /
                static_cast<double>(tfmPass.cycles);
            layerTrackFm(tfmPass.before, tfmPass.after, elements, out);
            layerFastswap(fswPass.before, fswPass.after, elements, out);
        }
    }
    trace.setEnabled(false);
    out.e2e["setup_s"] = median(setup);
    host.report(out);
    out.layer["workloads.fill_s"] = median(fill);
    return out;
}

} // namespace perfbench
