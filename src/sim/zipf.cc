#include "zipf.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace tfm
{

namespace
{

/// Guide-table bucket of a probability: min(trunc(x * n), n). Monotone
/// in x, which is all the exactness of the guided search rests on.
std::uint64_t
bucket(double x, std::uint64_t n)
{
    const double scaled = x * static_cast<double>(n);
    return scaled >= static_cast<double>(n)
               ? n
               : static_cast<std::uint64_t>(scaled);
}

} // anonymous namespace

ZipfGenerator::ZipfGenerator(std::uint64_t n, double skew, std::uint64_t seed)
    : _n(n), _skew(skew), rng(seed)
{
    TFM_ASSERT(n > 0, "zipf over empty domain");
    cdf.resize(n);
    double sum = 0.0;
    for (std::uint64_t k = 0; k < n; k++) {
        sum += 1.0 / std::pow(static_cast<double>(k + 1), skew);
        cdf[k] = sum;
    }
    const double inv = 1.0 / sum;
    for (auto &p : cdf)
        p *= inv;

    TFM_ASSERT(n < (1ull << 32), "zipf domain too large for guide table");
    guide.resize(n + 2);
    std::uint64_t k = 0;
    for (std::uint64_t j = 0; j <= n + 1; j++) {
        while (k < n && bucket(cdf[k], n) < j)
            k++;
        guide[j] = static_cast<std::uint32_t>(k);
    }
}

double
ZipfGenerator::pmf(std::uint64_t k) const
{
    TFM_ASSERT(k < _n, "zipf pmf rank out of range");
    return k == 0 ? cdf[0] : cdf[k] - cdf[k - 1];
}

std::uint64_t
ZipfGenerator::next()
{
    // bucket() is monotone, so every k below guide[j] has
    // cdf[k] < u and every k from guide[j + 1] on has cdf[k] > u, where
    // j = bucket(u). The first k with cdf[k] >= u — what lower_bound
    // over the whole table returns — therefore lies in
    // [guide[j], guide[j + 1]], and lower_bound over that range finds it.
    const double u = rng.uniform();
    const std::uint64_t j = bucket(u, _n);
    const auto it = std::lower_bound(cdf.begin() + guide[j],
                                     cdf.begin() + guide[j + 1], u);
    if (it == cdf.end())
        return _n - 1;
    return static_cast<std::uint64_t>(it - cdf.begin());
}

} // namespace tfm
