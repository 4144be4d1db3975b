/**
 * @file
 * Zipfian key sampler used by the hashmap and memcached workloads.
 */

#ifndef TRACKFM_SIM_ZIPF_HH
#define TRACKFM_SIM_ZIPF_HH

#include <cstdint>
#include <vector>

#include "rng.hh"

namespace tfm
{

/**
 * Samples integers in [0, n) with P(k) proportional to 1 / (k+1)^skew.
 *
 * Uses the classic precomputed-CDF + binary search approach for exact
 * sampling; n in this reproduction is at most a few million so the table
 * is cheap. The paper uses skews between 1.0 and 1.3 (Fig. 16) and 1.02
 * (Fig. 9/13).
 *
 * A guide table narrows each search to the CDF entries that share the
 * draw's bucket (see next()), so a draw costs O(1) expected time instead
 * of a binary search over the whole table, and returns exactly the index
 * the full search would: the random stream is unchanged.
 */
class ZipfGenerator
{
  public:
    ZipfGenerator(std::uint64_t n, double skew, std::uint64_t seed = 42);

    /** Draw one sample (a rank in [0, n)). */
    std::uint64_t next();

    /**
     * Exact sampling probability of rank @p k, straight from the CDF
     * table the sampler draws against — the ground truth the
     * statistical tests compare observed frequencies to.
     */
    double pmf(std::uint64_t k) const;

    std::uint64_t n() const { return _n; }
    double skew() const { return _skew; }

  private:
    std::uint64_t _n;
    double _skew;
    Rng rng;
    /// cdf[k] = P(X <= k); monotone in [0, 1].
    std::vector<double> cdf;
    /// guide[j] = #{k : bucket(cdf[k]) < j} for j in [0, n + 1], where
    /// bucket(x) = min(trunc(x * n), n).
    std::vector<std::uint32_t> guide;
};

} // namespace tfm

#endif // TRACKFM_SIM_ZIPF_HH
