/**
 * @file
 * Frequency-scaling characterization experiment (paper Sec. V.A/B,
 * Fig. 3, Tables 2-5).
 *
 * Runs a workload at several core frequencies and memory speeds to
 * spread the MPI*MP product, measures (CPI_eff, MPI, MP) with the
 * simulator's counters at each point, and fits Eq. 1 to estimate
 * CPI_cache and the blocking factor.
 *
 * Every grid point is an independent, seed-deterministic simulation,
 * so the sweep runs on the parallel experiment engine: the workload x
 * GHz x MT/s x run grid is flattened into one job list and mapped over
 * `jobs` workers, with results collected in input order — bit-identical
 * to the serial path (see measure/parallel.hh).
 */

#ifndef MEMSENSE_MEASURE_FREQ_SCALING_HH
#define MEMSENSE_MEASURE_FREQ_SCALING_HH

#include <string>
#include <vector>

#include "measure/resilience.hh"
#include "measure/runner.hh"
#include "model/fitter.hh"

namespace memsense::measure
{

/** Grid and window settings for a characterization sweep. */
struct FreqScalingConfig
{
    /** Core frequencies; the paper's grid was 2.1/2.4/2.7/3.1 GHz. */
    std::vector<double> coreGhz = {2.1, 2.4, 2.7, 3.1};
    /** Memory speeds; reducing speed raises MP in core cycles. */
    std::vector<double> memMtPerSec = {1333.3, 1866.7};
    /** Repeat runs per grid point (run-to-run variation; Table 3
     *  measured two per point). */
    int runsPerPoint = 1;
    int channels = 4;
    std::uint64_t seed = 1;
    Picos warmup = nsToPicos(8'000'000.0);
    Picos measure = nsToPicos(1'000'000.0);
    bool prefetcherEnabled = true;
    std::uint32_t mshrs = 10;
    bool adaptiveWarmup = true;
    /** Override the catalog's characterization core count; <= 0 keeps
     *  the catalog value. */
    int coresOverride = 0;
    /** Worker threads for the grid; 1 = serial reference path, <= 0 =
     *  one per hardware thread. Results are identical for any value. */
    int jobs = 1;
    /** Fault tolerance: retry budget, per-job deadline, checkpoint
     *  journal (see docs/robustness.md). With no knob set the sweep
     *  is strict: the first failing grid point's exception aborts
     *  it once every point has settled. */
    ResilienceConfig resilience;
};

/** Result of characterizing one workload. */
struct Characterization
{
    std::string workloadId;
    std::vector<model::FitObservation> observations;
    model::FittedModel model;
};

/**
 * The flattened (GHz x MT/s x run) job list of one workload's sweep,
 * in the canonical (serial) execution order.
 */
std::vector<RunConfig>
characterizationGrid(const std::string &workload_id,
                     const FreqScalingConfig &cfg);

/**
 * Run the sweep for one workload and fit the model.
 *
 * @param workload_id catalog id
 * @param cfg         sweep configuration
 * @param manifest    with cfg.resilience set, collects the quarantined
 *                    grid points; may be null. Throws ConfigError when
 *                    too few points survive to fit.
 */
Characterization characterize(const std::string &workload_id,
                              const FreqScalingConfig &cfg = {},
                              FailureManifest *manifest = nullptr);

/**
 * Characterize several workloads, pooling every grid point of every
 * workload into one job list so cfg.jobs workers stay busy across
 * workload boundaries.
 *
 * With cfg.resilience set, grid points that fail are retried and then
 * quarantined into @p manifest (when non-null) instead of aborting
 * the sweep, completed points stream to cfg.resilience.checkpointPath
 * (when set) for resume, and each fit uses the surviving observations;
 * a workload left with fewer than two is skipped and recorded as
 * "FitSkipped". Identical results to the strict sweep when nothing
 * fails — for any worker count, interrupted or not.
 */
std::vector<Characterization>
characterizeMany(const std::vector<std::string> &ids,
                 const FreqScalingConfig &cfg = {},
                 FailureManifest *manifest = nullptr);

/** Characterize every catalog workload (Tables 2 + 4 + 5 pipeline). */
std::vector<Characterization>
characterizeAll(const FreqScalingConfig &cfg = {});

} // namespace memsense::measure

#endif // MEMSENSE_MEASURE_FREQ_SCALING_HH
