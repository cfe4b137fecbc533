/**
 * @file
 * Differential test of Solver::solve against the plain bisection.
 *
 * The solver takes its bisection decisions from the closed-form root of
 * the curve segment that holds the fixed point, and evaluates the
 * implied utilization only near that root or when the root fails its
 * confirmation (docs/model.md, "The solver"). referenceSolve() is the
 * bisection that evaluates every step. Every field of every operating
 * point, `iterations` included, must match it bit for bit.
 *
 * Inputs: the property suite's generators and membench-shaped design-
 * space sweeps (a class preset on the baseline platform with two of the
 * five request fields stepped on a 16 x 8 grid), over the analytic
 * curve, the Fig. 7 measured composite, random measured-shape curves,
 * and curves that bend, end or break where the closed form cannot
 * follow.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "model/bandwidth_model.hh"
#include "model/cpi_model.hh"
#include "model/paper_data.hh"
#include "model/queuing.hh"
#include "model/solver.hh"
#include "property_test_support.hh"
#include "stats/curve.hh"
#include "util/trace.hh"

namespace
{

using namespace memsense;
using namespace memsense::proptest;

constexpr std::uint64_t kSeed = 20151004;

/**
 * The bisection as it stood before the closed-form root: every step
 * evaluates the implied utilization. Kept verbatim in its arithmetic;
 * only the telemetry and the postcondition checks are left out.
 */
model::OperatingPoint
referenceSolve(const model::QueuingModel &queuing,
               const model::WorkloadParams &p, const model::Platform &plat)
{
    constexpr double kTolerance = 1e-9;
    constexpr int kMaxIterations = 200;
    const double cps = plat.cyclesPerSecond();
    const double avail = plat.memory.effectiveBandwidth();
    const double max_util = queuing.maxStableUtilization();
    const int threads = plat.hardwareThreads();

    model::OperatingPoint op;
    // memsense-lint: allow(float-equal): exact-zero traffic short-circuit
    if (p.bytesPerInstruction() == 0.0) {
        op.cpiEff = p.cpiCache;
        op.missPenaltyNs = plat.memory.compulsoryNs;
        return op;
    }
    auto implied_util = [&](double u) {
        double mp = plat.memory.compulsoryNs + queuing.delayNs(u);
        double c = model::effectiveCpi(p, plat.nsToCycles(mp));
        return model::bandwidthDemandTotal(p, c, cps, threads) / avail;
    };
    double lo = 0.0;
    double hi = max_util;
    int iter = 0;
    while (hi - lo > kTolerance && iter < kMaxIterations) {
        double mid = 0.5 * (lo + hi);
        if (implied_util(mid) > mid)
            lo = mid;
        else
            hi = mid;
        ++iter;
    }
    if (hi - lo > kTolerance)
        throw std::runtime_error("reference bisection did not converge");
    const double util = 0.5 * (lo + hi);
    op.iterations = iter;

    const double qdelay_ns = queuing.delayNs(util);
    const double mp_ns = plat.memory.compulsoryNs + qdelay_ns;
    const double lat_cpi = model::effectiveCpi(p, plat.nsToCycles(mp_ns));
    const double bw_cpi = model::bandwidthLimitedCpi(
        p, avail / static_cast<double>(threads), cps);
    op.bandwidthBound = bw_cpi >= lat_cpi;
    op.cpiEff = std::max(lat_cpi, bw_cpi);
    if (op.bandwidthBound) {
        op.queuingDelayNs = queuing.maxStableDelayNs();
        op.missPenaltyNs = plat.memory.compulsoryNs + op.queuingDelayNs;
    } else {
        op.queuingDelayNs = qdelay_ns;
        op.missPenaltyNs = mp_ns;
    }
    const double demand =
        model::bandwidthDemandTotal(p, op.cpiEff, cps, threads);
    op.bandwidthTotalBps = std::min(demand, avail);
    op.bandwidthPerCoreBps =
        op.bandwidthTotalBps / static_cast<double>(plat.cores);
    op.utilization = op.bandwidthTotalBps / avail;
    return op;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** The fields in which @p got differs from @p want, bit for bit. */
std::string
describeDifference(const model::OperatingPoint &got,
                const model::OperatingPoint &want)
{
    const std::pair<const char *, std::pair<double, double>> fields[] = {
        {"cpiEff", {got.cpiEff, want.cpiEff}},
        {"missPenaltyNs", {got.missPenaltyNs, want.missPenaltyNs}},
        {"queuingDelayNs", {got.queuingDelayNs, want.queuingDelayNs}},
        {"bandwidthPerCoreBps",
         {got.bandwidthPerCoreBps, want.bandwidthPerCoreBps}},
        {"bandwidthTotalBps",
         {got.bandwidthTotalBps, want.bandwidthTotalBps}},
        {"utilization", {got.utilization, want.utilization}},
    };
    std::ostringstream os;
    os.precision(17);
    for (const auto &[name, v] : fields)
        if (!sameBits(v.first, v.second))
            os << name << " " << v.first << " != " << v.second << "; ";
    if (got.bandwidthBound != want.bandwidthBound)
        os << "bandwidthBound " << got.bandwidthBound << " != "
           << want.bandwidthBound << "; ";
    if (got.iterations != want.iterations)
        os << "iterations " << got.iterations << " != " << want.iterations;
    return os.str();
}

/** What the solver's armed counters saw over one family of inputs. */
struct Tally
{
    std::uint64_t solves = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t lookups = 0;
    std::uint64_t iterations = 0;
};

/**
 * Compares the solver with the reference on every input a generator
 * yields. Only the solver's own calls run with the counters armed, so
 * the tally counts what it did and nothing of the reference.
 */
class Differential
{
  public:
    Differential() { trace::resetForTest(); }
    ~Differential() { trace::resetForTest(); }

    /** Solve one input both ways; false (and a failure) on a mismatch. */
    bool check(const model::Solver &solver, const model::WorkloadParams &p,
               const model::Platform &plat)
    {
        trace::setStatsEnabled(true);
        const model::OperatingPoint got = solver.solve(p, plat);
        trace::setStatsEnabled(false);
        const model::OperatingPoint want =
            referenceSolve(solver.queuing(), p, plat);
        if (sameBits(got.cpiEff, want.cpiEff) &&
            sameBits(got.missPenaltyNs, want.missPenaltyNs) &&
            sameBits(got.queuingDelayNs, want.queuingDelayNs) &&
            sameBits(got.bandwidthPerCoreBps, want.bandwidthPerCoreBps) &&
            sameBits(got.bandwidthTotalBps, want.bandwidthTotalBps) &&
            sameBits(got.utilization, want.utilization) &&
            got.bandwidthBound == want.bandwidthBound &&
            got.iterations == want.iterations)
            return true;
        ADD_FAILURE() << describeDifference(got, want)
                      << "\n  workload cpi_cache=" << p.cpiCache
                      << " bf=" << p.bf << " mpki=" << p.mpki
                      << " wbr=" << p.wbr << " iopi=" << p.iopi
                      << " io_bytes=" << p.ioBytes
                      << "\n  platform " << plat.describe();
        return false;
    }

    /** Counter totals since the last take(), then cleared. */
    Tally take()
    {
        const auto counters = trace::counterTotals();
        auto read = [&](const char *name) {
            auto it = counters.find(name);
            return it == counters.end() ? std::uint64_t{0} : it->second;
        };
        Tally t{read("solver.solves"), read("solver.root_fallbacks"),
                read("queuing.delay_lookups"), read("solver.iterations")};
        trace::resetForTest();
        return t;
    }
};

/** One platform field a membench sweep steps. */
struct Axis
{
    int field;     ///< 0 cores, 1 ghz, 2 channels, 3 speed_mts, 4 latency_ns
    double lo;     ///< lowest start
    double hi;     ///< highest value a step may take
    double step;   ///< distance between grid points
    double quantum;///< resolution of the drawn start
};

constexpr Axis kFine[] = {
    {4, 50.0, 125.0, 2.5, 0.01},
    {3, 1066.0, 2400.0, 40.0, 1.0},
    {1, 1.6, 3.8, 0.1, 0.001},
};
constexpr Axis kCoarse[] = {
    {2, 1.0, 8.0, 1.0, 1.0},
    {0, 2.0, 16.0, 2.0, 1.0},
};

double
drawStart(Rng &rng, const Axis &a, int steps)
{
    const double room = a.hi - a.lo - (steps - 1) * a.step;
    const auto starts =
        static_cast<std::uint64_t>(std::lround(std::floor(room / a.quantum))) +
        1;
    return a.lo + static_cast<double>(rng.nextBounded(starts)) * a.quantum;
}

void
setField(model::Platform &plat, int field, double v)
{
    switch (field) {
    case 0: plat.cores = static_cast<int>(std::lround(v)); break;
    case 1: plat.ghz = v; break;
    case 2: plat.memory.channels = static_cast<int>(std::lround(v)); break;
    case 3: plat.memory.megaTransfers = v; break;
    default: plat.memory.compulsoryNs = v; break;
    }
}

/**
 * One membench-shaped design-space sweep: a class preset on the
 * baseline platform, a fine field stepped 16 times from a drawn start,
 * and a second field (another fine one, channels or cores) stepped 8
 * times; the shape of membench's serve traffic.
 */
template <typename Visit>
void
forSweep(Rng &rng, Visit visit)
{
    const auto classes = model::paper::classParams();
    const model::WorkloadParams &p = classes[rng.nextBounded(classes.size())];
    const std::size_t fine = rng.nextBounded(std::size(kFine));
    const std::size_t second =
        rng.nextBounded(std::size(kFine) - 1 + std::size(kCoarse));
    Axis b = kCoarse[0];
    double b_start = 0.0;
    if (second < std::size(kFine) - 1) {
        b = kFine[second >= fine ? second + 1 : second];
        b_start = drawStart(rng, b, 8);
    } else {
        b = kCoarse[second - (std::size(kFine) - 1)];
        b_start = b.lo;
    }
    const Axis &a = kFine[fine];
    const double a_start = drawStart(rng, a, 16);
    for (int i = 0; i < 16; ++i) {
        for (int j = 0; j < 8; ++j) {
            model::Platform plat = model::Platform::paperBaseline();
            setField(plat, a.field, a_start + i * a.step);
            setField(plat, b.field, b_start + j * b.step);
            visit(p, plat);
        }
    }
}

/** The (util, queuing_ns) columns of tests/golden/fig07_*.csv. */
const std::vector<std::vector<stats::CurvePoint>> kFig07Samples = {
    {{0.999753, 361.119}, {0.999981, 359.014}, {1, 334.754},
     {0.749578, 109.762}, {0.388833, 34.6742}, {0.164241, 1.30692},
     {0.0597811, 0.15875}, {0.0422983, 0}},
    {{0.999482, 533.408}, {1, 531.169}, {0.999548, 530.36},
     {0.744831, 114.771}, {0.386584, 33.4123}, {0.163183, 1.27495},
     {0.059389, 0.177403}, {0.0420303, 0}},
    {{1, 239.986}, {0.999375, 235.736}, {0.997349, 213.631},
     {0.538851, 74.8996}, {0.279274, 30.61}, {0.118149, 1.0228},
     {0.0432413, 0.167797}, {0.0307215, 0}},
    {{0.999804, 373.939}, {1, 378.172}, {0.999501, 302.784},
     {0.53517, 73.5775}, {0.27714, 31.3758}, {0.117295, 0.78348},
     {0.042887, 0.183095}, {0.0304688, 0}},
};

/** The 24-bin composite measureQueuingModel builds from those curves. */
model::QueuingModel
fig07Composite()
{
    std::vector<stats::PiecewiseCurve> curves;
    for (const auto &samples : kFig07Samples)
        curves.push_back(
            stats::PiecewiseCurve::fromSamples(samples, 24).monotoneEnvelope());
    return model::QueuingModel::fromCurve(
        stats::PiecewiseCurve::composite(curves, 24).monotoneEnvelope(),
        0.95);
}

/**
 * A random curve of a measured composite's shape: 4 to 24 knots over
 * [0.02, 1], a contention ramp plus a saturation knee plus noise, made
 * monotone; one in four starts below zero, as an envelope over noisy
 * low-load samples can.
 */
model::QueuingModel
randomMeasuredCurve(Rng &rng)
{
    const int n = uniformInt(rng, 4, 24);
    const double ramp = uniform(rng, 10.0, 150.0);
    const double knee = uniform(rng, 1.0, 40.0);
    const double shift = rng.chance(0.25) ? uniform(rng, 1.0, 30.0) : 0.0;
    std::vector<stats::CurvePoint> knots;
    for (int i = 0; i < n; ++i) {
        const double x = uniform(rng, 0.02, 1.0);
        const double y = ramp * x + knee * x / (1.05 - x) +
                         uniform(rng, -3.0, 3.0) - shift;
        knots.push_back({x, y});
    }
    return model::QueuingModel::fromCurve(
        stats::PiecewiseCurve(std::move(knots)).monotoneEnvelope(),
        uniform(rng, 0.8, 0.98));
}

/**
 * A curve whose knot at @p u holds the fixed point of (p, plat)
 * exactly in real arithmetic, or none when that needs a delay outside
 * [0, 400] ns.
 */
std::optional<model::QueuingModel>
curveWithRootOnKnot(const model::WorkloadParams &p,
                    const model::Platform &plat, double u)
{
    const double r = p.bytesPerInstruction() * plat.cyclesPerSecond() *
                     plat.hardwareThreads() /
                     plat.memory.effectiveBandwidth();
    const double k = p.mpi() * p.bf * plat.ghz;
    const double cpi0 = p.cpiCache + k * plat.memory.compulsoryNs;
    if (k <= 0.0)
        return std::nullopt;
    const double delay_ns = (r / u - cpi0) / k;
    if (!(delay_ns >= 0.0 && delay_ns <= 400.0))
        return std::nullopt;
    return model::QueuingModel::fromCurve(
        stats::PiecewiseCurve({{0.0, 0.0},
                               {u, delay_ns},
                               {0.5 * (u + 0.95), delay_ns + 50.0},
                               {0.95, delay_ns + 300.0}}),
        0.95);
}

TEST(SolverDifferential, AnalyticCurveMatchesBisectionAndNeverFallsBack)
{
    Differential diff;
    const model::Solver solver;
    int failures = 0;
    forAll(kSeed, 150000, [&](Rng &rng) {
        if (failures < 5 &&
            !diff.check(solver, genWorkloadParams(rng), genPlatform(rng)))
            ++failures;
    });
    Rng rng(kSeed + 1);
    for (int s = 0; s < 1000 && failures < 5; ++s)
        forSweep(rng, [&](const auto &p, const auto &plat) {
            if (!diff.check(solver, p, plat))
                ++failures;
        });
    const Tally t = diff.take();
    EXPECT_EQ(t.solves, 150000u + 1000u * 128u);
    EXPECT_EQ(t.fallbacks, 0u);
}

TEST(SolverDifferential, RandomAnalyticCapsMatchBisection)
{
    Differential diff;
    int failures = 0;
    forAll(kSeed + 2, 200, [&](Rng &rng) {
        const model::Solver solver(model::QueuingModel::analyticDefault(
            uniform(rng, 0.0, 200.0), uniform(rng, 1.0, 20.0),
            uniform(rng, 0.5, 0.99)));
        for (int i = 0; i < 250 && failures < 5; ++i)
            if (!diff.check(solver, genWorkloadParams(rng), genPlatform(rng)))
                ++failures;
    });
    EXPECT_EQ(diff.take().fallbacks, 0u);
}

/**
 * Counted, not timed: on membench-shaped traffic over the analytic
 * curve, a solve looks the curve up a handful of times instead of once
 * per step, and the bisection still takes its 30 steps.
 */
TEST(SolverDifferential, MembenchTrafficLooksUpTheCurveAFewTimesPerSolve)
{
    Differential diff;
    const model::Solver solver;
    Rng rng(kSeed + 3);
    for (int s = 0; s < 100; ++s)
        forSweep(rng, [&](const auto &p, const auto &plat) {
            diff.check(solver, p, plat);
        });
    const Tally t = diff.take();
    ASSERT_EQ(t.solves, 100u * 128u);
    EXPECT_EQ(t.iterations, 30u * t.solves);
    EXPECT_LE(static_cast<double>(t.lookups),
              6.0 * static_cast<double>(t.solves));
}

TEST(SolverDifferential, MeasuredCompositeMatchesBisection)
{
    Differential diff;
    const model::Solver solver(fig07Composite());
    ASSERT_EQ(solver.queuing().curve().size(), 24u);
    int failures = 0;
    forAll(kSeed + 4, 40000, [&](Rng &rng) {
        if (failures < 5 &&
            !diff.check(solver, genWorkloadParams(rng), genPlatform(rng)))
            ++failures;
    });
    Rng rng(kSeed + 5);
    for (int s = 0; s < 300 && failures < 5; ++s)
        forSweep(rng, [&](const auto &p, const auto &plat) {
            if (!diff.check(solver, p, plat))
                ++failures;
        });
    EXPECT_EQ(diff.take().fallbacks, 0u);
}

TEST(SolverDifferential, RandomMeasuredShapeCurvesMatchBisection)
{
    Differential diff;
    int failures = 0;
    forAll(kSeed + 6, 400, [&](Rng &rng) {
        const model::Solver solver(randomMeasuredCurve(rng));
        for (int i = 0; i < 200 && failures < 5; ++i)
            if (!diff.check(solver, genWorkloadParams(rng), genPlatform(rng)))
                ++failures;
        for (int s = 0; s < 1 && failures < 5; ++s)
            forSweep(rng, [&](const auto &p, const auto &plat) {
                if (!diff.check(solver, p, plat))
                    ++failures;
            });
    });
    // Curves that start below zero bend at the clamp, so some roots
    // fail their confirmation; the answers match all the same.
    EXPECT_GT(diff.take().fallbacks, 0u);
}

/**
 * Curves the closed form cannot follow, or that sit on its edges: the
 * clamp at zero bends a negative first segment (the fallback must run),
 * while a last knot below the cap (the delay extends the last segment),
 * a single knot, knots outside [0, cap] and a root on a knot are solved
 * in closed form (the fallback must not run).
 */
TEST(SolverDifferential, EdgeCurvesMatchBisectionAndBentOnesFallBack)
{
    Differential diff;
    int failures = 0;
    auto run = [&](const model::Solver &solver, std::uint64_t seed,
                   int cases) {
        forAll(seed, cases, [&](Rng &rng) {
            if (failures < 5 && !diff.check(solver, genWorkloadParams(rng),
                                            genPlatform(rng)))
                ++failures;
        });
        return diff.take();
    };

    const model::Solver bent(model::QueuingModel::fromCurve(
        stats::PiecewiseCurve(
            {{0.0, -60.0}, {0.4, 20.0}, {0.7, 60.0}, {0.95, 200.0}}),
        0.95));
    const Tally bent_tally = run(bent, kSeed + 7, 10000);
    EXPECT_GT(bent_tally.fallbacks, 0u);
    EXPECT_LT(bent_tally.fallbacks, bent_tally.solves);

    const model::Solver short_curve(model::QueuingModel::fromCurve(
        stats::PiecewiseCurve(
            {{0.05, 0.0}, {0.3, 15.0}, {0.5, 40.0}, {0.7, 90.0}}),
        0.95));
    EXPECT_EQ(run(short_curve, kSeed + 8, 5000).fallbacks, 0u);

    const model::Solver one_knot(model::QueuingModel::fromCurve(
        stats::PiecewiseCurve({{0.5, 30.0}}), 0.9));
    EXPECT_EQ(run(one_knot, kSeed + 9, 2000).fallbacks, 0u);

    const model::Solver outside(model::QueuingModel::fromCurve(
        stats::PiecewiseCurve({{-0.2, 0.0}, {0.5, 40.0}, {1.3, 500.0}}),
        0.9));
    EXPECT_EQ(run(outside, kSeed + 10, 3000).fallbacks, 0u);

    int on_knot = 0;
    forAll(kSeed + 11, 20000, [&](Rng &rng) {
        const model::WorkloadParams p = genWorkloadParams(rng);
        const model::Platform plat = genPlatform(rng);
        const auto queuing = curveWithRootOnKnot(p, plat, uniform(rng, 0.1, 0.9));
        if (!queuing || failures >= 5)
            return;
        ++on_knot;
        if (!diff.check(model::Solver(*queuing), p, plat))
            ++failures;
    });
    EXPECT_GT(on_knot, 2000);
    EXPECT_EQ(diff.take().fallbacks, 0u);
}

} // anonymous namespace
