/**
 * @file
 * Property-based tests of the paper's model invariants (Eq. 1, Eq. 4,
 * the queuing curve, and the solver fixed point) over randomly
 * generated workloads and platforms. Each property encodes a claim
 * the paper's methodology depends on; see docs/observability.md for
 * how these pair with the golden-regression suite.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "model/bandwidth_model.hh"
#include "model/cpi_model.hh"
#include "model/queuing.hh"
#include "model/solver.hh"
#include "property_test_support.hh"

namespace
{

using namespace memsense;
using namespace memsense::proptest;

constexpr std::uint64_t kSeed = 20150614; // IISWC'15 submission era

/**
 * Eq. 1: CPI_eff = CPI_cache + MPI * MP * BF must be non-decreasing
 * in the miss penalty — more memory latency can never speed a
 * workload up.
 */
TEST(ModelProperty, EffectiveCpiMonotoneInLatency)
{
    forAll(kSeed, 300, [](Rng &rng) {
        model::WorkloadParams p = genWorkloadParams(rng);
        double a = uniform(rng, 0.0, 2000.0);
        double b = uniform(rng, 0.0, 2000.0);
        double mp_lo = std::min(a, b);
        double mp_hi = std::max(a, b);
        EXPECT_LE(model::effectiveCpi(p, mp_lo),
                  model::effectiveCpi(p, mp_hi) + 1e-12)
            << "mp_lo=" << mp_lo << " mp_hi=" << mp_hi;
    });
}

/**
 * Eq. 1: CPI_eff is non-decreasing in the miss rate at a fixed miss
 * penalty — a workload that misses more can never run faster.
 */
TEST(ModelProperty, EffectiveCpiMonotoneInMpi)
{
    forAll(kSeed + 1, 300, [](Rng &rng) {
        model::WorkloadParams p = genWorkloadParams(rng);
        model::WorkloadParams denser = p;
        denser.mpki = p.mpki + uniform(rng, 0.0, 50.0);
        double mp = uniform(rng, 0.0, 2000.0);
        EXPECT_LE(model::effectiveCpi(p, mp),
                  model::effectiveCpi(denser, mp) + 1e-12)
            << "mpki " << p.mpki << " -> " << denser.mpki;
    });
}

/**
 * Eq. 4: bandwidth demand = traffic * CPS / CPI_eff is inverse-
 * monotone in CPI_eff — a slower-running workload demands less
 * bandwidth per unit time, which is what makes the Eq. 1 / Eq. 4
 * fixed point well-behaved.
 */
TEST(ModelProperty, BandwidthDemandInverseMonotoneInCpi)
{
    forAll(kSeed + 2, 300, [](Rng &rng) {
        model::WorkloadParams p = genWorkloadParams(rng);
        double cps = uniform(rng, 1.0e9, 4.0e9);
        double a = uniform(rng, 0.3, 50.0);
        double b = uniform(rng, 0.3, 50.0);
        double cpi_lo = std::min(a, b);
        double cpi_hi = std::max(a, b);
        EXPECT_GE(model::bandwidthDemandPerCore(p, cpi_lo, cps),
                  model::bandwidthDemandPerCore(p, cpi_hi, cps) - 1e-12)
            << "cpi_lo=" << cpi_lo << " cpi_hi=" << cpi_hi;
    });
}

/**
 * The queuing curve the solver consumes must be non-decreasing in
 * utilization, including at and beyond the stable cap (where delayNs
 * clamps), for any analytic parameterization.
 */
TEST(ModelProperty, QueuingDelayMonotoneInUtilization)
{
    forAll(kSeed + 3, 200, [](Rng &rng) {
        model::QueuingModel qm = model::QueuingModel::analyticDefault(
            uniform(rng, 0.0, 200.0), uniform(rng, 1.0, 20.0),
            uniform(rng, 0.80, 0.98));
        double a = uniform(rng, 0.0, 1.2);
        double b = uniform(rng, 0.0, 1.2);
        double u_lo = std::min(a, b);
        double u_hi = std::max(a, b);
        EXPECT_LE(qm.delayNs(u_lo), qm.delayNs(u_hi) + 1e-12)
            << "u_lo=" << u_lo << " u_hi=" << u_hi;
    });
}

/**
 * Solver postconditions over the whole generated input space: CPI is
 * bounded below by CPI_cache, utilization lands in [0, 1], and the
 * miss penalty never undercuts the compulsory latency.
 */
TEST(ModelProperty, SolverOperatingPointSatisfiesInvariants)
{
    forAll(kSeed + 4, 150, [](Rng &rng) {
        model::WorkloadParams p = genWorkloadParams(rng);
        model::Platform plat = genPlatform(rng);
        model::Solver solver;
        model::OperatingPoint op = solver.solve(p, plat);
        EXPECT_GE(op.cpiEff, p.cpiCache);
        EXPECT_GE(op.utilization, 0.0);
        EXPECT_LE(op.utilization, 1.0);
        EXPECT_GE(op.missPenaltyNs, plat.memory.compulsoryNs);
    });
}

/**
 * The Eq. 1 / Eq. 4 fixed point is stable: perturbing an input by a
 * single ulp moves the solved operating point by a commensurately
 * tiny amount, never to a different solution branch. Guards against
 * bisection bracket logic that would make the solver chaotic at
 * bracket boundaries.
 */
TEST(ModelProperty, SolverFixedPointStableUnderUlpPerturbation)
{
    forAll(kSeed + 5, 100, [](Rng &rng) {
        model::WorkloadParams p = genWorkloadParams(rng);
        model::Platform plat = genPlatform(rng);
        model::Solver solver;

        model::WorkloadParams p2 = p;
        p2.cpiCache = std::nextafter(
            p.cpiCache, rng.chance(0.5) ? 0.0 : 10.0);
        model::Platform plat2 = plat;
        plat2.memory.compulsoryNs = std::nextafter(
            plat.memory.compulsoryNs, rng.chance(0.5) ? 0.0 : 1000.0);

        const model::OperatingPoint base = solver.solve(p, plat);
        const model::OperatingPoint perturbed = solver.solve(p2, plat2);
        const double rel =
            std::fabs(perturbed.cpiEff - base.cpiEff) / base.cpiEff;
        EXPECT_LT(rel, 1e-5)
            << "cpiEff " << base.cpiEff << " -> " << perturbed.cpiEff;
        EXPECT_NEAR(perturbed.utilization, base.utilization, 1e-5);
        EXPECT_NEAR(perturbed.missPenaltyNs, base.missPenaltyNs,
                    1e-5 * base.missPenaltyNs + 1e-9);
    });
}

/**
 * The zero-traffic short-circuit: any workload with zero bytes per
 * instruction solves to exactly CPI_cache on every platform, with the
 * full operating point pinned (no queuing, no bandwidth, no
 * iterations) — the limiting case of Eq. 1/Eq. 4 as traffic -> 0.
 */
TEST(ModelProperty, ZeroTrafficSolvesToExactCacheCpiEverywhere)
{
    forAll(kSeed + 6, 200, [](Rng &rng) {
        model::WorkloadParams p = genWorkloadParams(rng);
        p.mpki = 0.0;
        p.iopi = 0.0;
        p.ioBytes = 0.0;
        model::Platform plat = genPlatform(rng);
        model::Solver solver;
        model::OperatingPoint op = solver.solve(p, plat);
        EXPECT_DOUBLE_EQ(op.cpiEff, p.cpiCache);
        EXPECT_DOUBLE_EQ(op.missPenaltyNs, plat.memory.compulsoryNs);
        EXPECT_DOUBLE_EQ(op.queuingDelayNs, 0.0);
        EXPECT_DOUBLE_EQ(op.bandwidthPerCoreBps, 0.0);
        EXPECT_DOUBLE_EQ(op.bandwidthTotalBps, 0.0);
        EXPECT_DOUBLE_EQ(op.utilization, 0.0);
        EXPECT_FALSE(op.bandwidthBound);
        EXPECT_EQ(op.iterations, 0);
    });
}

} // anonymous namespace
