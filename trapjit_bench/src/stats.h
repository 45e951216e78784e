#ifndef TRAPJIT_BENCH_STATS_H_
#define TRAPJIT_BENCH_STATS_H_

/** @file Order statistics the benchmark reports. */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace trapjit::bench
{

/** Median of @p v (mean of the middle two for even sizes); 0 if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    double hi = v[mid];
    if (v.size() % 2 == 1)
        return hi;
    double lo = *std::max_element(v.begin(), v.begin() + mid);
    return (lo + hi) / 2.0;
}

/** Geometric mean of positive @p v; 0 if empty. */
inline double
gmean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : v)
        logSum += std::log(x);
    return std::exp(logSum / static_cast<double>(v.size()));
}

/** Nearest-rank percentile @p q (0..1) and the number of samples above
 *  it. */
inline std::pair<double, size_t>
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return {0.0, 0};
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return {v[rank - 1], v.size() - rank};
}

} // namespace trapjit::bench

#endif // TRAPJIT_BENCH_STATS_H_
