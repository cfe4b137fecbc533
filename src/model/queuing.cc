#include "model/queuing.hh"

#include <algorithm>

#include "util/contract.hh"
#include "util/error.hh"
#include "util/trace.hh"

namespace memsense::model
{

QueuingModel::QueuingModel(stats::PiecewiseCurve curve,
                           double max_stable_util, bool from_measurement)
    : pw(std::move(curve)), maxUtil(max_stable_util),
      measured(from_measurement)
{
    requireConfig(maxUtil > 0.0 && maxUtil < 1.0,
                  "max stable utilization must be in (0, 1)");
    requireConfig(!pw.empty(), "queuing curve must have knots");
    requireConfig(pw.isMonotoneNonDecreasing(),
                  "queuing delay must be non-decreasing in utilization; "
                  "apply monotoneEnvelope() to measured curves first");
}

QueuingModel
QueuingModel::analyticDefault(double linear_ns, double service_ns,
                              double max_stable_util)
{
    requireConfig(linear_ns >= 0.0, "linear delay must be non-negative");
    requireConfig(service_ns > 0.0, "service time must be positive");
    // Sample the curve densely; the piecewise representation keeps the
    // solver independent of the curve's origin (analytic or measured).
    std::vector<stats::CurvePoint> knots;
    const int n = 96;
    for (int i = 0; i <= n; ++i) {
        double u = max_stable_util * static_cast<double>(i) /
                   static_cast<double>(n);
        double d = linear_ns * u + service_ns * u / (2.0 * (1.0 - u));
        knots.push_back({u, d});
    }
    return QueuingModel(stats::PiecewiseCurve(std::move(knots)),
                        max_stable_util, false);
}

QueuingModel
QueuingModel::fromCurve(stats::PiecewiseCurve curve, double max_stable_util)
{
    requireConfig(max_stable_util > 0.0 && max_stable_util < 1.0,
                  "max stable utilization must be in (0, 1)");
    return QueuingModel(std::move(curve), max_stable_util, true);
}

double
QueuingModel::delayNs(double utilization) const
{
    MS_METRIC_COUNT("queuing.delay_lookups");
    double u = std::clamp(utilization, 0.0, maxUtil);
    double delay_ns = std::max(0.0, pw.at(u));
    MS_ENSURE(delay_ns >= 0.0,
              "queuing delay ", delay_ns, " ns is negative");
    return delay_ns;
}

double
QueuingModel::maxStableDelayNs() const
{
    return delayNs(maxUtil);
}

} // namespace memsense::model
