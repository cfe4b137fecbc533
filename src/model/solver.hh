/**
 * @file
 * Fixed-point performance solver (paper Sec. VI.C).
 *
 * Couples Eq. 1 (CPI from miss penalty) and Eq. 4 (bandwidth demand
 * from CPI) through the queuing model: the miss penalty is the
 * compulsory latency plus a queuing delay that depends on bandwidth
 * utilization, which depends on CPI, which depends on the miss penalty.
 * The paper uses "an iterative calculation to find a stable solution
 * for queuing delay vs. bandwidth demand"; this is that calculation.
 *
 * When no stable solution exists below the maximum stable utilization,
 * the workload is bandwidth bound and the CPI is the bandwidth-limited
 * CPI (Eq. 4 inverted with BW set to the system-available bandwidth),
 * with the loaded latency pinned at compulsory + maximum stable
 * queuing delay.
 */

#ifndef MEMSENSE_MODEL_SOLVER_HH
#define MEMSENSE_MODEL_SOLVER_HH

#include <functional>
#include <string>

#include "model/params.hh"
#include "model/platform.hh"
#include "model/queuing.hh"
#include "util/error.hh"

namespace memsense::model
{

/**
 * Cooperative cancellation hook for long-running solves. The solver
 * polls it between fixed-point iterations (never mid-iteration, so no
 * partial state escapes) and abandons the solve with SolveCancelled
 * when it returns true. An empty function means "never cancel". The
 * serving layer binds per-request deadlines to this: the hook compares
 * an injectable clock against the request's deadline, mirroring the
 * cooperative job deadlines of measure/resilience.hh.
 */
using CancelCheck = std::function<bool()>;

/**
 * Raised when a CancelCheck asked the solver to abandon its work
 * between iterations. Retryable by taxonomy (the inputs are fine; a
 * later attempt with a fresh budget may finish), though the serving
 * layer maps it to a `deadline_exceeded` reply instead of retrying.
 */
class SolveCancelled : public TransientError
{
  public:
    explicit SolveCancelled(int iterations_done)
        : TransientError("solve cancelled cooperatively after " +
                         std::to_string(iterations_done) +
                         " iterations"),
          iterations(iterations_done)
    {}

    const char *kind() const override { return "SolveCancelled"; }

    int iterations; ///< iterations completed before the hook fired
};

/**
 * Raised when the fixed-point iteration exhausts its budget before the
 * bracket narrows to tolerance.
 *
 * This is a *retryable* error (TransientError): the sweep layer's
 * quarantine/retry machinery handles it like any other transient job
 * failure, and the carried diagnostics (iterations spent, residual
 * bracket width, configured tolerance) tell the operator whether to
 * raise the iteration cap or loosen the tolerance.
 */
class SolverConvergenceError : public TransientError
{
  public:
    SolverConvergenceError(int iterations_used, double residual_width,
                           double tolerance_cfg)
        : TransientError(
              "fixed-point solver failed to converge: " +
              std::to_string(iterations_used) +
              " iterations left residual " +
              std::to_string(residual_width) + " above tolerance " +
              std::to_string(tolerance_cfg)),
          iterations(iterations_used), residual(residual_width),
          tolerance(tolerance_cfg)
    {}

    const char *kind() const override
    {
        return "SolverConvergenceError";
    }

    int iterations;   ///< iterations spent before giving up
    double residual;  ///< bracket width at the iteration cap
    double tolerance; ///< the tolerance that was not reached
};

/** Converged operating point of a workload on a platform. */
struct OperatingPoint
{
    double cpiEff = 0.0;        ///< effective CPI (Eq. 1 or BW-limited)
    double missPenaltyNs = 0.0; ///< loaded latency (compulsory + queuing)
    double queuingDelayNs = 0.0;///< queuing component of the above
    double bandwidthPerCoreBps = 0.0; ///< consumed bytes/s per core
    double bandwidthTotalBps = 0.0;///< consumed bytes/s, all cores
    double utilization = 0.0;   ///< consumed / effective available
    bool bandwidthBound = false;///< true when demand hit the supply cap
    int iterations = 0;         ///< fixed-point iterations used

    /** Instruction throughput per core, instructions/second. */
    double ipsPerCore(double cps) const { return cps / cpiEff; }
};

/** Tuning knobs for the fixed-point iteration. */
struct SolverOptions
{
    int maxIterations = 200;   ///< iteration cap before declaring failure
    double tolerance = 1e-9;   ///< |delta CPI| convergence threshold
};

/**
 * Anything that can map a (workload, platform) pair to its operating
 * point. The analytic Solver is the reference implementation; the
 * serving layer's memoizing serve::Evaluator is a drop-in — the
 * sensitivity/equivalence analyzers and report builder accept either,
 * so sweeps that revisit operating points get caching for free.
 *
 * Implementations must be safe for concurrent read-only use and
 * deterministic: the same inputs always yield the bit-identical point.
 */
class SolveEngine
{
  public:
    virtual ~SolveEngine() = default;

    /** Solve for the stable operating point (Eq. 1 + Eq. 4). */
    virtual OperatingPoint solve(const WorkloadParams &p,
                                 const Platform &plat) const = 0;
};

/**
 * Performance solver for (workload, platform) pairs.
 *
 * Stateless apart from the queuing model; safe to share across threads
 * for read-only use.
 */
class Solver : public SolveEngine
{
  public:
    /** Use the analytic default queuing model. */
    Solver();

    /** Use a caller-supplied (typically measured) queuing model. */
    explicit Solver(QueuingModel queuing, SolverOptions opts = {});

    /** Solve for the stable operating point. */
    OperatingPoint solve(const WorkloadParams &p,
                         const Platform &plat) const override;

    /**
     * Solve with a cooperative cancellation hook: @p cancel is polled
     * between fixed-point iterations and, when it returns true, the
     * solve is abandoned with SolveCancelled. An empty @p cancel is
     * exactly solve(p, plat).
     */
    OperatingPoint solve(const WorkloadParams &p, const Platform &plat,
                         const CancelCheck &cancel) const;

    /**
     * CPI relative to a reference operating point:
     * solve(p, plat).cpiEff / reference. Convenience for sweeps.
     */
    double relativeCpi(const WorkloadParams &p, const Platform &plat,
                       double reference_cpi) const;

    /** The queuing model in use. */
    const QueuingModel &queuing() const { return queuingModel; }

    /** The fixed-point tuning knobs in use (for fingerprinting). */
    const SolverOptions &options() const { return opts; }

  private:
    QueuingModel queuingModel;
    SolverOptions opts;
};

} // namespace memsense::model

#endif // MEMSENSE_MODEL_SOLVER_HH
