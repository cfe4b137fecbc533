#include "model/solver.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "model/bandwidth_model.hh"
#include "model/cpi_model.hh"
#include "util/contract.hh"
#include "util/error.hh"
#include "util/fault_injection.hh"
#include "util/trace.hh"

namespace memsense::model
{

namespace
{

/** Bracket width at which the bisection stops. */
constexpr double kTolerance = 1e-9;

/** Steps that close the bracket [0, cap) for any cap below 1. */
constexpr int kMaxSteps = 30;
static_assert(kTolerance * static_cast<double>(1L << kMaxSteps) > 1.0,
              "kMaxSteps halvings must close a unit bracket");

/**
 * Half-width of the confirmation around the closed-form root. Hundreds
 * of times the relative rounding error of one implied-utilization
 * evaluation, and far below kTolerance.
 */
constexpr double kMargin = 1e-12;

/**
 * Closed-form estimate of the fixed point u * CPI(u) = r, where Eq. 1
 * on the curve reads CPI(u) = cpi0 + k * delay(u). u * CPI(u) grows
 * with u, so x * CPI(x) < r (no division) says the root lies above
 * knot x, and a binary search finds the first knot at or past the
 * root or @p cap. On the segment that leads to it CPI(u) = a + b * u,
 * and the root solves b u^2 + a u - r = 0. Returns +inf when that
 * segment never reaches r. The clamp of the delay at zero is ignored,
 * so the result is an estimate the caller confirms.
 */
double
segmentRoot(const stats::PiecewiseCurve &curve, double cap, double cpi0,
            double k, double r)
{
    std::size_t lo = 0;
    std::size_t hi = curve.size();
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        const stats::CurvePoint &kn = curve.knot(mid);
        if (kn.x < cap && kn.x * (cpi0 + k * std::max(0.0, kn.y)) < r)
            lo = mid + 1;
        else
            hi = mid;
    }
    // The delay is the first knot's up to it and the last segment's
    // extension past the last knot, as PiecewiseCurve::at reads it.
    double intercept = curve.knot(0).y;
    double slope = 0.0;
    if (lo > 0 && curve.size() > 1) {
        const std::size_t right = std::min(lo, curve.size() - 1);
        const stats::CurvePoint &l = curve.knot(right - 1);
        const stats::CurvePoint &h = curve.knot(right);
        slope = (h.y - l.y) / (h.x - l.x);
        intercept = l.y - slope * l.x;
    }
    const double a = cpi0 + k * intercept;
    const double b = k * slope;
    const double root = std::sqrt(a * a + 4.0 * b * r);
    // Each branch avoids cancelling two terms of equal size.
    if (a > 0.0)
        return 2.0 * r / (a + root);
    if (b > 0.0)
        return (root - a) / (2.0 * b);
    return std::numeric_limits<double>::infinity();
}

} // anonymous namespace

Solver::Solver()
    : queuingModel(QueuingModel::analyticDefault())
{
}

Solver::Solver(QueuingModel queuing_model)
    : queuingModel(std::move(queuing_model))
{
}

OperatingPoint
Solver::solve(const WorkloadParams &p, const Platform &plat) const
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

    // The bisection's decisions come from the curve segment that holds
    // the fixed point: its closed-form root u*, once two evaluations at
    // u* -/+ kMargin confirm it, decides every step whose midpoint lies
    // more than 2 * kMargin from u*. g is non-increasing in exact
    // arithmetic and its rounding error is far below kMargin, so each
    // decided step goes the way evaluating g would, and the bracket,
    // the step count and the returned point are the full bisection's.
    // A root at or past the cap is confirmed by g(cap) > cap alone: then
    // every step moves up. Midpoints in the band are evaluated, and a
    // failed confirmation (a curve bent by the clamp at zero delay, for
    // one) leaves every step evaluated.
    const double k = p.mpi() * p.bf * plat.ghz;
    const double root = segmentRoot(
        queuingModel.curve(), max_util,
        p.cpiCache + k * plat.memory.compulsoryNs, k,
        p.bytesPerInstruction() * cps * static_cast<double>(threads) /
            avail);
    const bool at_cap = root >= max_util;
    const double below = at_cap ? max_util : root - kMargin;
    double moves_up_below = -std::numeric_limits<double>::infinity();
    double moves_down_above = std::numeric_limits<double>::infinity();
    if (implied_util(below) > below &&
        (at_cap || implied_util(root + kMargin) <= root + kMargin)) {
        moves_up_below = below - kMargin;
        if (!at_cap)
            moves_down_above = root + 2.0 * kMargin;
    } else {
        MS_METRIC_COUNT("solver.root_fallbacks");
    }

    double lo = 0.0;
    double hi = max_util;
    int iter = 0;
    for (; iter < kMaxSteps && hi - lo > kTolerance; ++iter) {
        const double mid = 0.5 * (lo + hi);
        bool up = mid < moves_up_below;
        if ((mid >= moves_up_below) & (mid <= moves_down_above))
            up = implied_util(mid) > mid;
        lo = up ? mid : lo;
        hi = up ? hi : mid;
    }
    MS_METRIC_COUNT_N("solver.iterations", iter);
    MS_METRIC_OBSERVE("solver.iterations_per_solve", iter);
    MS_INVARIANT(hi - lo <= kTolerance, "bisection bracket ", hi - lo,
                 " still open after ", iter, " steps");
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
