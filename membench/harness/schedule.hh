/**
 * @file
 * Open-loop arrival schedule for the serve workloads.
 *
 * Requests arrive in bursts of a fixed size at a fixed period, so the
 * average rate is burst / period. Each request is due when its burst
 * is due, whether or not earlier replies have come back; its latency
 * is measured from that due time, so a stall in the server or in the
 * sender shows up in every later request it delays.
 */

#ifndef MEMBENCH_SCHEDULE_HH
#define MEMBENCH_SCHEDULE_HH

#include <cstddef>
#include <cstdint>

namespace membench
{

/** Fixed-period bursts over a measured phase. */
struct BurstSchedule
{
    double ratePerSec = 10'000.0; ///< average requests per second
    std::size_t burstSize = 32;   ///< requests due together
    double seconds = 1.0;         ///< length of the measured phase

    /** Bursts that fit the phase: floor(seconds * rate / burst). */
    std::size_t bursts() const;

    /** Requests in the phase: bursts() * burstSize. */
    std::size_t requests() const { return bursts() * burstSize; }

    /** Time between burst due times, ns. */
    double periodNs() const;

    /** Due time of burst @p k, ns after the phase start. */
    std::int64_t burstDueNs(std::size_t k) const;

    /** Due time of request @p i (the due time of its burst). */
    std::int64_t requestDueNs(std::size_t i) const
    {
        return burstDueNs(i / burstSize);
    }
};

/** How late a burst was sent: send time minus due time, ms (>= 0). */
double lateMs(std::int64_t due_ns, std::int64_t sent_ns);

/** Latency of one request: reply time minus due time, ms. */
double latencyMs(std::int64_t due_ns, std::int64_t reply_ns);

} // namespace membench

#endif // MEMBENCH_SCHEDULE_HH
