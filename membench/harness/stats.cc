#include "harness/stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace membench
{

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return std::numeric_limits<double>::quiet_NaN();
    const double n = static_cast<double>(samples.size());
    const double rank = std::clamp(std::ceil(p * n), 1.0, n);
    const auto idx = static_cast<std::size_t>(rank) - 1;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(idx),
                     samples.end());
    return samples[idx];
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

double
windowedPercentile(const std::vector<double> &samples, std::size_t window,
                   double p)
{
    std::vector<double> per_window;
    for (std::size_t first = 0; first < samples.size(); first += window) {
        const std::size_t last = std::min(samples.size(), first + window);
        if (2 * (last - first) < window && !per_window.empty())
            break;
        per_window.push_back(percentile(
            std::vector<double>(
                samples.begin() + static_cast<std::ptrdiff_t>(first),
                samples.begin() + static_cast<std::ptrdiff_t>(last)),
            p));
    }
    return median(std::move(per_window));
}

} // namespace membench
