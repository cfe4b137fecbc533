/**
 * @file
 * Model fitting from measured observations (paper Sec. V.A, Fig. 3).
 *
 * The methodology: run the workload at several core and memory speeds,
 * measure (CPI_eff, MPI, MP) with performance counters at each point,
 * and fit the line CPI_eff = CPI_cache + BF * (MPI * MP). The intercept
 * estimates CPI_cache, the slope estimates the blocking factor, and R^2
 * reports fit quality (the paper reports R^2 = 0.95 for the column
 * store and accepts a poor R^2 for the core-bound Proximity workload
 * because its CPI barely varies).
 */

#ifndef MEMSENSE_MODEL_FITTER_HH
#define MEMSENSE_MODEL_FITTER_HH

#include <cmath>
#include <string>
#include <vector>

#include "model/params.hh"
#include "stats/regression.hh"
#include "util/contract.hh"

namespace memsense::model
{

/** One counter measurement at a given core/memory speed setting. */
struct FitObservation
{
    double coreGhz = 0.0;     ///< core frequency during the run
    double memMtPerSec = 0.0; ///< DDR transfer rate during the run
    double cpiEff = 0.0;      ///< measured effective CPI
    double mpi = 0.0;         ///< measured LLC misses per instruction
    double mpCycles = 0.0;    ///< measured avg miss penalty, core cycles
    double mpki = 0.0;        ///< misses per kilo-instruction
    double wbr = 0.0;         ///< writebacks per miss
    double instructions = 0.0;///< instructions in the sample (weight)

    /** The regression abscissa: latency-per-instruction MPI * MP. */
    double latencyPerInstruction() const { return mpi * mpCycles; }
};

/** Fitted model with quality metrics. */
struct FittedModel
{
    WorkloadParams params;    ///< cpiCache/bf from the fit, mpki/wbr
                              ///< averaged over observations
    stats::LinearFit fit;     ///< raw regression result
    bool coreBound = false;   ///< BF below threshold: latency-insensitive

    /** Eq. 1 prediction at a given MPI*MP product. */
    double predictCpi(double mpi_times_mp) const
    {
        MS_REQUIRE(std::isfinite(mpi_times_mp) && mpi_times_mp >= 0.0,
                   "MPI * MP ", mpi_times_mp,
                   " must be finite and non-negative");
        return fit.at(mpi_times_mp);
    }
};

/** Fitting configuration. */
struct FitOptions
{
    /** BF below this marks the workload core bound (Proximity-like). */
    double coreBoundBfThreshold = 0.05;
    /** Weight observations by instruction count when available. */
    bool weightByInstructions = false;
    /** Clamp negative fitted slopes to zero (physical BF >= 0). */
    bool clampNegativeSlope = true;
};

/**
 * Fit the Eq. 1 line to a set of observations.
 *
 * Requires at least two observations with distinct MPI*MP (vary core
 * or memory speed to obtain the spread, per Sec. V.A).
 *
 * @param name   workload name for the resulting parameter bundle
 * @param cls    class label to attach
 * @param obs    counter observations
 * @param opts   fitting options
 */
FittedModel fitModel(const std::string &name, WorkloadClass cls,
                     const std::vector<FitObservation> &obs,
                     const FitOptions &opts = {});

/**
 * Per-observation relative error of the fitted model, in the order of
 * @p obs (the paper's Table 3 bottom row).
 */
std::vector<double> validationErrors(const FittedModel &model,
                                     const std::vector<FitObservation> &obs);

} // namespace memsense::model

#endif // MEMSENSE_MODEL_FITTER_HH
