/**
 * @file
 * Tests for the fixed-point performance solver, including
 * parameterized property sweeps (monotonicity of CPI in latency and
 * bandwidth across the model's parameter space).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "model/cpi_model.hh"
#include "model/paper_data.hh"
#include "model/solver.hh"
#include "util/error.hh"

namespace memsense::model
{
namespace
{

TEST(Solver, ConvergesOnBaseline)
{
    Solver solver;
    Platform base = Platform::paperBaseline();
    for (const auto &p : paper::classParams()) {
        OperatingPoint op = solver.solve(p, base);
        EXPECT_GT(op.cpiEff, 0.0) << p.name;
        EXPECT_GE(op.missPenaltyNs, base.memory.compulsoryNs) << p.name;
        EXPECT_LT(op.iterations, 200) << p.name;
    }
}

TEST(Solver, EnterpriseAndBigDataAreLatencyLimitedOnBaseline)
{
    // Paper Sec. VI.C.3: baseline utilization is low for these
    // classes; the loaded latency stays near compulsory.
    Solver solver;
    Platform base = Platform::paperBaseline();
    for (WorkloadClass cls :
         {WorkloadClass::Enterprise, WorkloadClass::BigData}) {
        OperatingPoint op = solver.solve(paper::classParams(cls), base);
        EXPECT_FALSE(op.bandwidthBound) << className(cls);
        EXPECT_LT(op.utilization, 0.75) << className(cls);
        EXPECT_LT(op.queuingDelayNs, 60.0) << className(cls);
    }
}

TEST(Solver, HpcIsBandwidthBoundOnBaseline)
{
    // Paper Sec. VI.C.3: "the workload class model for HPC is
    // bandwidth bound even with four DDR3-1867 channels."
    Solver solver;
    OperatingPoint op = solver.solve(paper::classParams(WorkloadClass::Hpc),
                                     Platform::paperBaseline());
    EXPECT_TRUE(op.bandwidthBound);
    EXPECT_NEAR(op.utilization, 1.0, 1e-9);
}

TEST(Solver, BandwidthBoundCpiMatchesEq4)
{
    Solver solver;
    Platform base = Platform::paperBaseline();
    WorkloadParams hpc = paper::classParams(WorkloadClass::Hpc);
    OperatingPoint op = solver.solve(hpc, base);
    double bw_per_thread =
        base.memory.effectiveBandwidth() / base.hardwareThreads();
    double expected = hpc.bytesPerInstruction() *
                      base.cyclesPerSecond() / bw_per_thread;
    EXPECT_NEAR(op.cpiEff, expected, expected * 0.02);
}

TEST(Solver, ZeroTrafficWorkloadIsPureCpiCache)
{
    WorkloadParams p;
    p.name = "pure-compute";
    p.cpiCache = 0.8;
    p.bf = 0.0;
    p.mpki = 0.0;
    p.wbr = 0.0;
    Solver solver;
    OperatingPoint op = solver.solve(p, Platform::paperBaseline());
    EXPECT_DOUBLE_EQ(op.cpiEff, 0.8);
    EXPECT_DOUBLE_EQ(op.bandwidthTotalBps, 0.0);
    EXPECT_FALSE(op.bandwidthBound);
}

TEST(Solver, ZeroTrafficSetsEveryOperatingPointField)
{
    // Regression: the zero-traffic short-circuit must define the full
    // OperatingPoint — it is cached and journaled by the serving
    // layer, so no field may be left at a struct default by accident.
    WorkloadParams p;
    p.name = "pure-compute";
    p.cpiCache = 1.7;
    p.bf = 0.5; // irrelevant without misses
    p.mpki = 0.0;
    p.wbr = 0.0;
    Solver solver;
    Platform base = Platform::paperBaseline();
    OperatingPoint op = solver.solve(p, base);
    EXPECT_DOUBLE_EQ(op.cpiEff, 1.7);
    EXPECT_DOUBLE_EQ(op.missPenaltyNs, base.memory.compulsoryNs);
    EXPECT_DOUBLE_EQ(op.queuingDelayNs, 0.0);
    EXPECT_DOUBLE_EQ(op.bandwidthPerCoreBps, 0.0);
    EXPECT_DOUBLE_EQ(op.bandwidthTotalBps, 0.0);
    EXPECT_DOUBLE_EQ(op.utilization, 0.0);
    EXPECT_FALSE(op.bandwidthBound);
    EXPECT_EQ(op.iterations, 0);
}

TEST(Solver, BandwidthRegimeReportsSaturatedQueuingState)
{
    // Regression: in the bandwidth-limited regime the reported
    // queuing delay / miss penalty used to be the raw bisection
    // iterate — off from the saturation point by O(tolerance), and
    // inconsistent with the Eq. 4 CPI actually reported. They must be
    // pinned at compulsory + saturated queuing delay exactly.
    Solver solver;
    Platform base = Platform::paperBaseline();
    WorkloadParams hpc = paper::classParams(WorkloadClass::Hpc);
    OperatingPoint op = solver.solve(hpc, base);
    ASSERT_TRUE(op.bandwidthBound);
    double sat_delay_ns = solver.queuing().maxStableDelayNs();
    EXPECT_DOUBLE_EQ(op.queuingDelayNs, sat_delay_ns);
    EXPECT_DOUBLE_EQ(op.missPenaltyNs,
                     base.memory.compulsoryNs + sat_delay_ns);
}

TEST(Solver, LatencyRegimePenaltyReproducesReportedCpi)
{
    // The latency-regime contract: plugging the reported miss penalty
    // back into Eq. 1 must reproduce the reported CPI (loose
    // tolerance — pre-fix the two disagreed by the bisection width).
    Solver solver;
    Platform base = Platform::paperBaseline();
    for (WorkloadClass cls :
         {WorkloadClass::Enterprise, WorkloadClass::BigData}) {
        WorkloadParams p = paper::classParams(cls);
        OperatingPoint op = solver.solve(p, base);
        ASSERT_FALSE(op.bandwidthBound) << p.name;
        double cpi_from_penalty =
            effectiveCpi(p, base.nsToCycles(op.missPenaltyNs));
        EXPECT_NEAR(cpi_from_penalty, op.cpiEff, 1e-3 * op.cpiEff)
            << p.name;
        EXPECT_NEAR(cpi_from_penalty, op.cpiEff, 1e-12 * op.cpiEff)
            << p.name << ": reported penalty must match exactly";
    }
}

TEST(Solver, RelativeCpiHelper)
{
    Solver solver;
    Platform base = Platform::paperBaseline();
    WorkloadParams bd = paper::classParams(WorkloadClass::BigData);
    double cpi = solver.solve(bd, base).cpiEff;
    EXPECT_NEAR(solver.relativeCpi(bd, base, cpi), 1.0, 1e-12);
    EXPECT_THROW(solver.relativeCpi(bd, base, 0.0), ConfigError);
}

TEST(Solver, IpsScalesWithCpi)
{
    OperatingPoint op;
    op.cpiEff = 2.0;
    EXPECT_DOUBLE_EQ(op.ipsPerCore(2.7e9), 1.35e9);
}

TEST(Solver, MeasuredQueuingModelAccepted)
{
    stats::PiecewiseCurve curve({{0.0, 0.0}, {0.95, 200.0}});
    Solver solver(QueuingModel::fromCurve(curve, 0.95));
    OperatingPoint op = solver.solve(
        paper::classParams(WorkloadClass::BigData),
        Platform::paperBaseline());
    EXPECT_GT(op.cpiEff, 0.9);
}

/**
 * Property sweep: across a grid of workload parameters, increasing
 * compulsory latency must never decrease CPI, and adding bandwidth
 * must never increase it.
 */
class SolverMonotonicity
    : public ::testing::TestWithParam<std::tuple<double, double, double>>
{
};

TEST_P(SolverMonotonicity, CpiNonDecreasingInLatency)
{
    auto [cpi_cache, bf, mpki] = GetParam();
    WorkloadParams p;
    p.name = "sweep";
    p.cpiCache = cpi_cache;
    p.bf = bf;
    p.mpki = mpki;
    p.wbr = 0.3;

    Solver solver;
    Platform plat = Platform::paperBaseline();
    double prev = 0.0;
    for (double ns : {55.0, 75.0, 95.0, 115.0, 135.0}) {
        plat.memory = plat.memory.withCompulsoryNs(ns);
        double cpi = solver.solve(p, plat).cpiEff;
        ASSERT_GE(cpi, prev - 1e-9)
            << "CPI decreased with latency at " << ns << " ns";
        prev = cpi;
    }
}

TEST_P(SolverMonotonicity, CpiNonIncreasingInBandwidth)
{
    auto [cpi_cache, bf, mpki] = GetParam();
    WorkloadParams p;
    p.name = "sweep";
    p.cpiCache = cpi_cache;
    p.bf = bf;
    p.mpki = mpki;
    p.wbr = 0.3;

    Solver solver;
    Platform plat = Platform::paperBaseline();
    double prev = 1e300;
    for (int channels : {1, 2, 3, 4, 6, 8}) {
        plat.memory = plat.memory.withChannels(channels);
        double cpi = solver.solve(p, plat).cpiEff;
        ASSERT_LE(cpi, prev + 1e-9)
            << "CPI increased with bandwidth at " << channels
            << " channels";
        prev = cpi;
    }
}

TEST_P(SolverMonotonicity, CpiNeverBelowCpiCache)
{
    auto [cpi_cache, bf, mpki] = GetParam();
    WorkloadParams p;
    p.name = "sweep";
    p.cpiCache = cpi_cache;
    p.bf = bf;
    p.mpki = mpki;
    p.wbr = 0.3;
    Solver solver;
    OperatingPoint op = solver.solve(p, Platform::paperBaseline());
    EXPECT_GE(op.cpiEff, cpi_cache - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, SolverMonotonicity,
    ::testing::Combine(::testing::Values(0.6, 1.0, 1.5),   // CPI_cache
                       ::testing::Values(0.05, 0.2, 0.45), // BF
                       ::testing::Values(0.5, 6.0, 27.0)));// MPKI

} // anonymous namespace
} // namespace memsense::model
