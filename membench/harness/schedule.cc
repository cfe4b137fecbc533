#include "harness/schedule.hh"

#include <algorithm>
#include <cmath>

namespace membench
{

std::size_t
BurstSchedule::bursts() const
{
    if (ratePerSec <= 0.0 || seconds <= 0.0 || burstSize == 0)
        return 0;
    return static_cast<std::size_t>(
        std::floor(seconds * ratePerSec / static_cast<double>(burstSize)));
}

double
BurstSchedule::periodNs() const
{
    return static_cast<double>(burstSize) / ratePerSec * 1e9;
}

std::int64_t
BurstSchedule::burstDueNs(std::size_t k) const
{
    return static_cast<std::int64_t>(
        std::llround(static_cast<double>(k) * periodNs()));
}

double
lateMs(std::int64_t due_ns, std::int64_t sent_ns)
{
    return static_cast<double>(std::max<std::int64_t>(0, sent_ns - due_ns)) /
           1e6;
}

double
latencyMs(std::int64_t due_ns, std::int64_t reply_ns)
{
    return static_cast<double>(reply_ns - due_ns) / 1e6;
}

} // namespace membench
