/**
 * @file
 * Shared plumbing of the repository benchmark: options, the per-run
 * outcome every workload fills, round pacing, and small statistics.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/stats.hh"
#include "span_trace.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/**
 * What one run reports. Workloads set metric values by name; the
 * names and units are listed once, in main.cc, which also checks that
 * every end-to-end metric was set.
 */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> e2e;
    std::map<std::string, double> layer;
    std::vector<std::string> errors;
    /// The untraced host-throughput samples behind host.ops_per_s
    /// (printed with their quartiles as the noise band).
    std::vector<double> hostSamples;

    /** Count @p n failed operations and keep the first messages. */
    void
    fail(const std::string &message, std::uint64_t n = 1)
    {
        failed += n;
        if (errors.size() < 8)
            errors.push_back(message);
    }
};

/** Host seconds on the steady clock. */
inline double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p p (0..100) of @p v; reorders @p v. */
inline std::uint64_t
percentile(std::vector<std::uint64_t> &v, double p)
{
    if (v.empty())
        return 0;
    std::size_t rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(v.size()) + 0.999999);
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

/** Peak resident set of this process in MB. */
double peakRssMb();

/** Independent sub-seed @p tag of the run seed. */
inline std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t tag)
{
    std::uint64_t state = seed * 0x100000001b3ull + tag;
    return tfm::splitmix64(state);
}

/** A counter's growth between two stat exports. */
inline double
grown(const tfm::StatSet &before, const tfm::StatSet &after,
      const std::string &name)
{
    return static_cast<double>(after.get(name) - before.get(name));
}

inline double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/**
 * Round pacing: a run repeats identical rounds until the next one
 * would overrun the measurement budget, and runs at least
 * kMinRounds so that the determinism guard and the set-up median
 * always have repeats to work with.
 */
class Rounds
{
  public:
    static constexpr int kMinRounds = 3;

    explicit Rounds(double seconds) : budget(seconds), t0(hostNow()) {}

    bool
    another() const
    {
        if (done < kMinRounds)
            return true;
        const double elapsed = hostNow() - t0;
        return elapsed + elapsed / done <= budget;
    }

    int next() { return done++; }

  private:
    double budget;
    double t0;
    int done = 0;
};

/**
 * Host throughput of a run: its fastest sample (ops per wall second of
 * one kv batch, scan request or generated-program call, or of one
 * round's scheduler runs). On a shared host, interference only ever
 * slows a sample down, and the fastest of many short samples is the
 * steadiest estimate of the simulator's own speed; the quartiles of
 * all samples are printed beside it as the noise band. Samples from
 * traced rounds are kept apart to price tracing.
 */
class HostRate
{
  public:
    void
    addRound(const std::vector<double> &samples, bool traced)
    {
        std::vector<double> &into = traced ? traced_ : untraced;
        into.insert(into.end(), samples.begin(), samples.end());
    }

    /** Report the estimate, the noise band and, if traced, the overhead. */
    void
    report(Outcome &out) const
    {
        const double best = fastest(untraced);
        out.layer["host.ops_per_s"] = best;
        out.hostSamples = untraced;
        if (!traced_.empty())
            out.layer["obs.trace_overhead_frac"] =
                1.0 - fastest(traced_) / best;
    }

  private:
    static double
    fastest(const std::vector<double> &v)
    {
        return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    }

    std::vector<double> untraced, traced_;
};

/**
 * Determinism guard: the simulated results of every round must equal
 * those of the first round bit for bit.
 */
class Fingerprint
{
  public:
    /** Compare round @p round's values with round 0's. */
    void
    check(int round, const std::vector<std::uint64_t> &values,
          Outcome &out, const char *what)
    {
        if (round == 0) {
            first = values;
            return;
        }
        if (values != first) {
            out.fail(std::string(what) + ": simulated results of round " +
                     std::to_string(round) + " differ from round 0");
        }
    }

  private:
    std::vector<std::uint64_t> first;
};

/**
 * Per-op TrackFM layer metrics (tfm.*, runtime.*, net.*) from the
 * counter growth between two stat exports of one runtime.
 */
void layerTrackFm(const tfm::StatSet &a, const tfm::StatSet &b, double ops,
                  Outcome &out);

/** Per-op Fastswap layer metrics (fastswap.*) likewise. */
void layerFastswap(const tfm::StatSet &a, const tfm::StatSet &b,
                   double ops, Outcome &out);

/** Every value of a stat export, in order (determinism fingerprints). */
std::vector<std::uint64_t> statValues(const tfm::StatSet &set);

Outcome runKvZipf(const Options &opt, SpanTrace &trace);
Outcome runScanAnalytics(const Options &opt, SpanTrace &trace);
Outcome runCompileRun(const Options &opt, SpanTrace &trace);
Outcome runServeMt(const Options &opt, SpanTrace &trace);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
