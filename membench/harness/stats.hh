/**
 * @file
 * Order statistics the benchmark reports: nearest-rank percentiles
 * over raw samples, with no interpolation.
 */

#ifndef MEMBENCH_STATS_HH
#define MEMBENCH_STATS_HH

#include <vector>

namespace membench
{

/**
 * Nearest-rank percentile: for n samples and p in [0, 1], the sample
 * of rank ceil(p * n) in ascending order, clamped to [1, n]. NaN when
 * there are no samples. @p samples need not be sorted.
 */
double percentile(std::vector<double> samples, double p);

/** Nearest-rank median (the lower middle sample for even n). */
double median(std::vector<double> samples);

/** @p num / @p den, or 0 when @p den is not positive. */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * The median, over consecutive windows of @p window samples, of each
 * window's nearest-rank @p p percentile. A trailing window shorter than
 * half of @p window is dropped unless it is the only one. NaN when there
 * are no samples. A host that slows down for a few seconds moves a few
 * windows, not the result.
 */
double windowedPercentile(const std::vector<double> &samples,
                          std::size_t window, double p);

} // namespace membench

#endif // MEMBENCH_STATS_HH
