/**
 * @file
 * Loaded-latency sweep (paper Sec. VI.C.1, Fig. 7).
 *
 * Reproduces the Intel MLC methodology on the simulator: one core runs
 * a dependent pointer-chase latency probe while the remaining cores
 * inject independent traffic at a swept injection rate and read/write
 * mix. Each sweep yields (bandwidth, loaded latency) points; after
 * normalizing bandwidth to the configuration's achievable maximum and
 * subtracting the unloaded latency, the curves from different DDR
 * speeds and mixes collapse below ~95% utilization and are averaged
 * into the composite queuing model the solver uses.
 */

#ifndef MEMSENSE_MEASURE_LOADED_LATENCY_HH
#define MEMSENSE_MEASURE_LOADED_LATENCY_HH

#include <cstdint>
#include <vector>

#include "measure/resilience.hh"
#include "model/queuing.hh"
#include "stats/curve.hh"
#include "util/units.hh"

namespace memsense::measure
{

/** One measured point of a loaded-latency sweep. */
struct LoadedLatencyPoint
{
    std::uint32_t delayCycles = 0; ///< injected inter-access delay
    double bandwidthGBps = 0.0;    ///< total DRAM traffic observed
    double latencyNs = 0.0;        ///< probe-observed loaded latency
};

/** Configuration of one sweep (one curve of Fig. 7). */
struct LoadedLatencySetup
{
    double memMtPerSec = 1866.7; ///< DDR speed under test
    double readFraction = 1.0;   ///< generator read/write mix
    int cores = 8;               ///< 1 probe + (cores-1) generators
    int channels = 4;
    double ghz = 2.7;
    std::uint64_t seed = 1;
    /** Injection delays, swept high-to-low traffic. */
    std::vector<std::uint32_t> delayCycles =
        {0,  2,  4,  8,  16, 20,  24,  28,  32,  40,
         48, 64, 96, 128, 192, 256, 384, 512, 1024, 2048};
    Picos warmup = nsToPicos(150'000.0);
    Picos measure = nsToPicos(400'000.0);
    /** Worker threads for the delay points; 1 = serial reference
     *  path, <= 0 = one per hardware thread. Each point owns its
     *  machine and seed, so results are identical for any value. */
    int jobs = 1;
    /** Fault tolerance for the delay points; with no knob set the
     *  sweep is strict (the first failing point's exception aborts
     *  it once every point has settled). */
    ResilienceConfig resilience;
};

/** One measured curve. */
struct LoadedLatencyCurve
{
    LoadedLatencySetup setup;
    std::vector<LoadedLatencyPoint> points; ///< by descending traffic
    double unloadedNs = 0.0;        ///< minimum observed latency
    double maxBandwidthGBps = 0.0;  ///< achievable bandwidth

    /**
     * Normalize into (utilization, queuing delay ns) samples, the
     * paper's Fig. 7 axes.
     */
    std::vector<stats::CurvePoint> toQueuingSamples() const;
};

/**
 * Run one sweep.
 *
 * With setup.resilience set, failing delay points are retried, then
 * dropped from the curve and quarantined into @p manifest (when
 * non-null); completed points stream to
 * setup.resilience.checkpointPath (when set) for resume. Throws
 * ConfigError when fewer than two points survive (no curve).
 */
LoadedLatencyCurve sweepLoadedLatency(const LoadedLatencySetup &setup,
                                      FailureManifest *manifest = nullptr);

/**
 * Sweep a family of setups in order, one curve each. Setup i journals
 * to `<checkpointPath>.mlc<i>`, so one --checkpoint path covers the
 * family. With resilience set, a setup whose curve cannot be built is
 * skipped and recorded as "CurveSkipped" instead of aborting the
 * family, so the result can be shorter than @p setups.
 */
std::vector<LoadedLatencyCurve>
sweepLoadedLatencyFamily(const std::vector<LoadedLatencySetup> &setups,
                         FailureManifest *manifest = nullptr);

/** The paper's four Fig. 7 test cases: {1333, 1867} x {100%R, 2:1}. */
std::vector<LoadedLatencySetup> paperFig7Setups();

/**
 * Sweep a family of setups (sweepLoadedLatencyFamily) and build the
 * composite queuing model (average of the normalized curves, monotone
 * envelope applied).
 *
 * @param setups           sweep configurations
 * @param bins             knots in the composite curve
 * @param max_stable_util  stability cap (paper: ~0.95)
 * @param manifest         collects quarantined points and skipped
 *                         curves; may be null
 */
model::QueuingModel
measureQueuingModel(const std::vector<LoadedLatencySetup> &setups,
                    std::size_t bins = 24, double max_stable_util = 0.95,
                    FailureManifest *manifest = nullptr);

} // namespace memsense::measure

#endif // MEMSENSE_MEASURE_LOADED_LATENCY_HH
