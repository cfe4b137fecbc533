/**
 * @file
 * Seeded request traffic for the serve workloads.
 *
 * Each burst is one client submitting a design-space sweep, shaped
 * like tests/serve/requests_50.jsonl: a workload class preset (the
 * paper's class means, no workload field overridden) on the paper's
 * Sec. VI baseline platform, with two platform fields stepped on a
 * 16 x 8 grid. The first field is latency_ns, speed_mts or ghz; the
 * second is another of those, channels or cores. Unlike the fixture,
 * each request spells out all five platform fields, so that two
 * requests differ as text exactly when they differ as points. The
 * class, the two fields and where the steps start are drawn from the
 * seed with the benchmark's own mixer, so the inputs do not move when
 * the program's random number generator changes. A sweep that would
 * repeat a point already generated is drawn again, so no point repeats
 * within one Traffic.
 */

#ifndef MEMBENCH_REQUESTS_HH
#define MEMBENCH_REQUESTS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace membench
{

/** Points in one design-space sweep: one burst of requests. */
constexpr std::size_t kSweepPoints = 16 * 8;

/** splitmix64 finalizer: a bijective 64-bit mix. */
std::uint64_t mix64(std::uint64_t x);

/** Every request line (no newlines) of one serve run. */
struct Traffic
{
    std::vector<std::string> warmup;   ///< set-up pass, ids "w<j>"
    std::vector<std::string> measured; ///< measured phase, ids "m<i>"
};

/**
 * The traffic of one serve run under @p seed: @p warmup_sweeps sweeps
 * for the set-up pass, then @p measured_sweeps bursts. Cold traffic
 * sends every point once, warm-up included. Hot traffic re-sends, in
 * each measured burst, one whole warm-up sweep chosen by the seed.
 */
Traffic makeTraffic(bool hot, std::uint64_t seed, std::size_t warmup_sweeps,
                    std::size_t measured_sweeps);

} // namespace membench

#endif // MEMBENCH_REQUESTS_HH
