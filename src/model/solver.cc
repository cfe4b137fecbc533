#include "model/solver.hh"

#include <algorithm>
#include <cmath>

#include "model/bandwidth_model.hh"
#include "model/cpi_model.hh"
#include "util/contract.hh"
#include "util/error.hh"
#include "util/fault_injection.hh"
#include "util/trace.hh"

namespace memsense::model
{

Solver::Solver()
    : queuingModel(QueuingModel::analyticDefault())
{
}

Solver::Solver(QueuingModel queuing_model, SolverOptions options)
    : queuingModel(std::move(queuing_model)), opts(options)
{
    requireConfig(opts.maxIterations >= 1, "need at least one iteration");
    requireConfig(opts.tolerance > 0.0, "tolerance must be positive");
}

OperatingPoint
Solver::solve(const WorkloadParams &p, const Platform &plat) const
{
    return solve(p, plat, CancelCheck{});
}

OperatingPoint
Solver::solve(const WorkloadParams &p, const Platform &plat,
              const CancelCheck &cancel) const
{
    MS_FAULT_POINT("solver.solve");
    MS_TRACE_SPAN("solver.solve");
    MS_METRIC_COUNT("solver.solves");
    p.validate();
    plat.validate();

    const double cps = plat.cyclesPerSecond();
    const double avail = plat.memory.effectiveBandwidth();
    const double max_util = queuingModel.maxStableUtilization();
    const int threads = plat.hardwareThreads();

    OperatingPoint op;

    // A workload with no memory traffic never touches the queue. Every
    // field is set explicitly: the operating point of this path is part
    // of the serving contract (it gets cached and journaled), so it must
    // not depend on what the struct defaults happen to be.
    // memsense-lint: allow(float-equal): exact-zero traffic short-circuit
    if (p.bytesPerInstruction() == 0.0) {
        op.cpiEff = p.cpiCache;
        op.missPenaltyNs = plat.memory.compulsoryNs;
        op.queuingDelayNs = 0.0;
        op.bandwidthPerCoreBps = 0.0;
        op.bandwidthTotalBps = 0.0;
        op.utilization = 0.0;
        op.bandwidthBound = false;
        op.iterations = 0;
        return op;
    }

    // Latency regime: the utilization implied by running at
    // utilization u is
    //   g(u) = demand(Eq1(compulsory + qdelay(u))) / available,
    // which is non-increasing in u (more queuing -> higher CPI ->
    // less demand), so it crosses the identity at most once below the
    // stable cap. Bisect for that point — the paper's "iterative
    // calculation to find a stable solution for queuing delay vs.
    // bandwidth demand" made robust near saturation. When g stays
    // above the identity everywhere (demand exceeds supply even at
    // the saturated queue), the bisection converges to the cap and
    // the latency-regime CPI becomes the saturated-queue Eq. 1 value.
    auto implied_util = [&](double u) {
        double mp = plat.memory.compulsoryNs + queuingModel.delayNs(u);
        double c = effectiveCpi(p, plat.nsToCycles(mp));
        return bandwidthDemandTotal(p, c, cps, threads) / avail;
    };

    double lo = 0.0;
    double hi = max_util;
    int iter = 0;
    while (hi - lo > opts.tolerance && iter < opts.maxIterations) {
        // Cooperative cancellation: polled between iterations only, so
        // an abandoned solve leaves no partially-updated bracket state
        // behind (the serving layer's per-request deadlines hang off
        // this hook).
        if (cancel && cancel()) {
            MS_METRIC_COUNT("solver.cancelled");
            throw SolveCancelled(iter);
        }
        double mid = 0.5 * (lo + hi);
        if (implied_util(mid) > mid)
            lo = mid;
        else
            hi = mid;
        ++iter;
    }
    // Report exhaustion as a structured, retryable error instead of
    // silently using the widest bracket midpoint: the resilience layer
    // quarantines the job with the diagnostics attached, and nothing
    // downstream ever consumes a spuriously "converged" point.
    MS_METRIC_COUNT_N("solver.iterations", iter);
    MS_METRIC_OBSERVE("solver.iterations_per_solve", iter);
    if (hi - lo > opts.tolerance) {
        MS_METRIC_COUNT("solver.convergence_failures");
        throw SolverConvergenceError(iter, hi - lo, opts.tolerance);
    }
    const double util = 0.5 * (lo + hi);
    op.iterations = iter;

    const double qdelay_ns = queuingModel.delayNs(util);
    const double mp_ns = plat.memory.compulsoryNs + qdelay_ns;
    const double lat_cpi = effectiveCpi(p, plat.nsToCycles(mp_ns));

    // Bandwidth regime (paper Sec. VI.C.2): Eq. 4 inverted with the
    // denominator pinned to the available supply gives the CPI floor
    // the memory system can sustain. The effective CPI is whichever
    // limiter binds; when Eq. 4 wins, the compulsory latency drops
    // out entirely ("no amount of latency reduction can compensate
    // for bandwidth constraints"). Both limiters are monotone in
    // latency and in supply, so the combined CPI is too, and the two
    // curves meet continuously at the regime boundary.
    const double bw_cpi = bandwidthLimitedCpi(
        p, avail / static_cast<double>(threads), cps);
    op.bandwidthBound = bw_cpi >= lat_cpi;
    op.cpiEff = std::max(lat_cpi, bw_cpi);
    if (op.bandwidthBound) {
        // Bandwidth regime: the reported delay must be the saturated
        // queue consistent with the Eq. 4 CPI, not the bisection's
        // near-cap midpoint. The bisection converges to the stable cap
        // from below, so its delay undershoots maxStableDelayNs() by
        // O(tolerance * curve slope) — invisible at the default 1e-9
        // tolerance, nanoseconds at looser ones, and always bitwise
        // wrong for the cached/journaled point the serving layer
        // replays (paper Sec. VI.C: "no amount of latency reduction
        // can compensate for bandwidth constraints").
        op.queuingDelayNs = queuingModel.maxStableDelayNs();
        op.missPenaltyNs = plat.memory.compulsoryNs + op.queuingDelayNs;
    } else {
        op.queuingDelayNs = qdelay_ns;
        op.missPenaltyNs = mp_ns;
    }

    const double demand =
        bandwidthDemandTotal(p, op.cpiEff, cps, threads);
    op.bandwidthTotalBps = std::min(demand, avail);
    op.bandwidthPerCoreBps =
        op.bandwidthTotalBps / static_cast<double>(plat.cores);
    op.utilization = op.bandwidthTotalBps / avail;

    MS_ENSURE(op.cpiEff >= p.cpiCache,
              "solved CPI ", op.cpiEff, " below CPI_cache ", p.cpiCache);
    MS_ENSURE(op.iterations <= opts.maxIterations,
              "bisection ran ", op.iterations, " iterations, cap ",
              opts.maxIterations);
    MS_ENSURE(op.missPenaltyNs >= plat.memory.compulsoryNs,
              "miss penalty ", op.missPenaltyNs,
              " ns below compulsory latency ", plat.memory.compulsoryNs);
    // The reported point must be internally consistent: in the latency
    // regime the CPI is exactly Eq. 1 of the reported miss penalty; in
    // the bandwidth regime the penalty is pinned at the saturated queue.
    MS_ENSURE(op.bandwidthBound ||
                  std::abs(effectiveCpi(p, plat.nsToCycles(
                               op.missPenaltyNs)) -
                           op.cpiEff) <= 1e-12 * op.cpiEff,
              "latency-regime CPI ", op.cpiEff,
              " inconsistent with reported miss penalty ",
              op.missPenaltyNs, " ns");
    MS_ENSURE(!op.bandwidthBound ||
                  op.missPenaltyNs ==
                      plat.memory.compulsoryNs +
                          queuingModel.maxStableDelayNs(),
              "bandwidth-regime miss penalty ", op.missPenaltyNs,
              " ns not pinned at compulsory + saturated queuing delay");
    MS_ENSURE(op.bandwidthTotalBps >= 0.0 &&
                  op.bandwidthTotalBps <= avail,
              "consumed bandwidth ", op.bandwidthTotalBps,
              " outside [0, ", avail, "]");
    MS_ENSURE(op.utilization >= 0.0 && op.utilization <= 1.0,
              "utilization ", op.utilization, " outside [0, 1]");
    return op;
}

double
Solver::relativeCpi(const WorkloadParams &p, const Platform &plat,
                    double reference_cpi) const
{
    requireConfig(reference_cpi > 0.0, "reference CPI must be positive");
    return solve(p, plat).cpiEff / reference_cpi;
}

} // namespace memsense::model
