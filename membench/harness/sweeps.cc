#include "harness/sweeps.hh"

#include <unistd.h>

#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "harness/checks.hh"
#include "harness/host.hh"
#include "harness/stats.hh"
#include "measure/freq_scaling.hh"
#include "measure/loaded_latency.hh"
#include "measure/runner.hh"
#include "model/fitter.hh"
#include "sim/machine.hh"
#include "stats/curve.hh"
#include "util/trace.hh"
#include "workloads/factory.hh"
#include "workloads/latency_checker.hh"

namespace membench
{

namespace
{

using namespace memsense;

constexpr int kJobs = 2;           ///< the figures' --jobs 2 setting
constexpr int kSetupProbes = 25;   ///< fresh processes timed per run
constexpr std::size_t kSpotChecks = 2; ///< points replayed per untraced run
const char *const kSetupMarker = "membench-setup-reached";

// ---------------------------------------------------------------- plans

/** What a sweep run prepares before its sweep call. */
struct Plan
{
    bool fig07 = false;
    /** sweep_fig03: the --fast grid over the four big data workloads. */
    std::vector<std::string> ids;
    measure::FreqScalingConfig freq;
    std::vector<measure::RunConfig> grid; ///< flattened, sweep order
    /** sweep_fig07: the four paper setups at --fast. */
    std::vector<measure::LoadedLatencySetup> setups;

    std::size_t points() const
    {
        if (!fig07)
            return grid.size();
        std::size_t n = 0;
        for (const auto &s : setups)
            n += s.delayCycles.size();
        return n;
    }
};

Plan
makePlan(const std::string &workload, std::uint64_t seed)
{
    Plan p;
    p.fig07 = workload == "sweep_fig07";
    if (!p.fig07) {
        // bench/fig03_cpi_fits.cc at --fast --jobs 2.
        p.ids = {"column_store", "nits", "proximity", "spark"};
        p.freq.coreGhz = {2.1, 2.7, 3.1};
        p.freq.measure = nsToPicos(600'000.0);
        p.freq.warmup = nsToPicos(4'000'000.0);
        p.freq.adaptiveWarmup = false;
        p.freq.seed = seed;
        p.freq.jobs = kJobs;
        for (const std::string &id : p.ids) {
            std::vector<measure::RunConfig> g =
                measure::characterizationGrid(id, p.freq);
            p.grid.insert(p.grid.end(), g.begin(), g.end());
        }
        return p;
    }
    // bench/fig07_queuing_delay.cc at --fast --jobs 2.
    p.setups = measure::paperFig7Setups();
    for (auto &s : p.setups) {
        s.delayCycles = {0, 8, 24, 48, 96, 256, 1024, 2048};
        s.measure = nsToPicos(200'000.0);
        s.seed = seed;
        s.jobs = kJobs;
    }
    return p;
}

// -------------------------------------------------------------- outputs

/** What one sweep produces. */
struct Output
{
    std::vector<measure::Characterization> chars;  ///< sweep_fig03
    std::vector<measure::LoadedLatencyCurve> curves; ///< sweep_fig07
    stats::PiecewiseCurve composite;                 ///< sweep_fig07
};

/** The fig. 7 composite: each curve normalized, enveloped, averaged. */
stats::PiecewiseCurve
compositeOf(const std::vector<measure::LoadedLatencyCurve> &curves)
{
    std::vector<stats::PiecewiseCurve> normalized;
    for (const auto &c : curves)
        normalized.push_back(
            stats::PiecewiseCurve::fromSamples(c.toQueuingSamples(), 16)
                .monotoneEnvelope());
    return stats::PiecewiseCurve::composite(normalized, 16)
        .monotoneEnvelope();
}

/** The timed call: the public sweep entry points. */
Output
runSweep(const Plan &plan)
{
    Output out;
    if (!plan.fig07) {
        out.chars = measure::characterizeMany(plan.ids, plan.freq);
        return out;
    }
    for (const auto &setup : plan.setups)
        out.curves.push_back(measure::sweepLoadedLatency(setup));
    out.composite = compositeOf(out.curves);
    return out;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameObservation(const model::FitObservation &a,
                const model::FitObservation &b)
{
    return sameBits(a.coreGhz, b.coreGhz) &&
           sameBits(a.memMtPerSec, b.memMtPerSec) &&
           sameBits(a.cpiEff, b.cpiEff) && sameBits(a.mpi, b.mpi) &&
           sameBits(a.mpCycles, b.mpCycles) && sameBits(a.mpki, b.mpki) &&
           sameBits(a.wbr, b.wbr) && sameBits(a.instructions, b.instructions);
}

bool
sameFit(const model::FittedModel &a, const model::FittedModel &b)
{
    return sameBits(a.params.cpiCache, b.params.cpiCache) &&
           sameBits(a.params.bf, b.params.bf) &&
           sameBits(a.params.mpki, b.params.mpki) &&
           sameBits(a.params.wbr, b.params.wbr) &&
           sameBits(a.fit.intercept, b.fit.intercept) &&
           sameBits(a.fit.slope, b.fit.slope) &&
           sameBits(a.fit.r2, b.fit.r2) && a.coreBound == b.coreBound;
}

bool
samePoint(const measure::LoadedLatencyPoint &a,
          const measure::LoadedLatencyPoint &b)
{
    return a.delayCycles == b.delayCycles &&
           sameBits(a.bandwidthGBps, b.bandwidthGBps) &&
           sameBits(a.latencyNs, b.latencyNs);
}

bool
sameCurve(const stats::PiecewiseCurve &a, const stats::PiecewiseCurve &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!sameBits(a.knot(i).x, b.knot(i).x) ||
            !sameBits(a.knot(i).y, b.knot(i).y))
            return false;
    return true;
}

/**
 * Grid points of @p got that differ bit for bit from @p want. A
 * differing fit (or composite) fails every point it was built from.
 */
std::size_t
differingPoints(const Plan &plan, const Output &want, const Output &got)
{
    if (!plan.fig07) {
        if (got.chars.size() != want.chars.size())
            return plan.points();
        std::size_t bad = 0;
        for (std::size_t w = 0; w < want.chars.size(); ++w) {
            const auto &a = want.chars[w];
            const auto &b = got.chars[w];
            if (a.observations.size() != b.observations.size() ||
                !sameFit(a.model, b.model)) {
                bad += a.observations.size();
                continue;
            }
            for (std::size_t i = 0; i < a.observations.size(); ++i)
                bad += sameObservation(a.observations[i],
                                       b.observations[i])
                           ? 0u
                           : 1u;
        }
        return bad;
    }
    if (got.curves.size() != want.curves.size() ||
        !sameCurve(got.composite, want.composite))
        return plan.points();
    std::size_t bad = 0;
    for (std::size_t c = 0; c < want.curves.size(); ++c) {
        const auto &a = want.curves[c].points;
        const auto &b = got.curves[c].points;
        if (a.size() != b.size()) {
            bad += a.size();
            continue;
        }
        for (std::size_t i = 0; i < a.size(); ++i)
            bad += samePoint(a[i], b[i]) ? 0u : 1u;
    }
    return bad;
}

// --------------------------------------------------------------- golden

/** The figure benches' CSV rows for one sweep output, by file name. */
std::vector<std::pair<std::string, Csv>>
goldenTables(const Plan &plan, const Output &out)
{
    std::vector<std::pair<std::string, Csv>> tables;
    if (!plan.fig07) {
        for (const auto &c : out.chars) {
            Csv t;
            t.columns = {"ghz", "mt", "mpi_mp", "cpi_measured", "cpi_fitted"};
            for (const auto &o : c.observations)
                t.rows.push_back({o.coreGhz, o.memMtPerSec,
                                  o.latencyPerInstruction(), o.cpiEff,
                                  c.model.predictCpi(
                                      o.latencyPerInstruction())});
            tables.emplace_back("fig03_" + c.workloadId + ".csv", t);
        }
        return tables;
    }
    for (const auto &c : out.curves) {
        Csv t;
        t.columns = {"delay_cyc", "bw_gbps", "util", "latency_ns",
                     "queuing_ns"};
        for (const auto &p : c.points)
            t.rows.push_back({static_cast<double>(p.delayCycles),
                              p.bandwidthGBps,
                              p.bandwidthGBps / c.maxBandwidthGBps,
                              p.latencyNs, p.latencyNs - c.unloadedNs});
        char name[64];
        std::snprintf(name, sizeof name, "fig07_ddr%.0f_r%.0f.csv",
                      c.setup.memMtPerSec, c.setup.readFraction * 100.0);
        tables.emplace_back(name, t);
    }
    return tables;
}

/**
 * Compare an output with tests/golden at the golden tests'
 * tolerances; returns the grid points outside them.
 */
std::size_t
goldenMismatches(const Plan &plan, const Output &out, Result &r)
{
    const std::vector<std::string> exact =
        plan.fig07 ? std::vector<std::string>{"delay_cyc"}
                   : std::vector<std::string>{"ghz", "mt"};
    const Tolerance tol = plan.fig07 ? Tolerance{1e-4, 1e-3}
                                     : Tolerance{1e-4, 1e-6};
    std::size_t bad = 0;
    for (const auto &[file, table] : goldenTables(plan, out)) {
        std::optional<Csv> golden = readCsv("tests/golden/" + file);
        if (!golden) {
            r.notes.push_back("cannot read tests/golden/" + file);
            bad += table.rows.size();
            continue;
        }
        CsvMatch m = compareCsv(*golden, table, exact, tol);
        if (!m.ok()) {
            r.notes.push_back(file + ": " + m.firstDiff);
            bad += m.shapeOk ? m.badRows.size() : table.rows.size();
        }
    }
    return bad;
}

// --------------------------------------------------------------- replay

/** Generator handouts seen by the counting streams of one machine. */
struct GenTally
{
    std::int64_t ns = 0;
    std::uint64_t ops = 0;
};

/**
 * Pass-through OpStream that counts the ops a generator hands out
 * and, when timed, the host time spent producing them (one clock read
 * pair per acquireRun call — the cost the traced run reports as its
 * overhead).
 */
class CountingStream final : public sim::OpStream
{
  public:
    CountingStream(sim::OpStream &inner_in, GenTally &tally_in, bool timed_in)
        : inner(inner_in), tally(tally_in), timed(timed_in)
    {}

    bool
    next(sim::MicroOp &op) override
    {
        const bool more = inner.next(op);
        tally.ops += more ? 1 : 0;
        return more;
    }

    std::size_t
    acquireRun(const sim::MicroOp **run) override
    {
        if (!timed) {
            const std::size_t n = inner.acquireRun(run);
            tally.ops += n;
            return n;
        }
        const std::int64_t t0 = nowNs();
        const std::size_t n = inner.acquireRun(run);
        tally.ns += nowNs() - t0;
        tally.ops += n;
        return n;
    }

  private:
    sim::OpStream &inner;
    GenTally &tally;
    bool timed;
};

/** Exact simulator counts summed over a sweep's machines. */
struct SimCounts
{
    std::uint64_t genOps = 0;
    std::uint64_t instructions = 0;
    std::uint64_t l1Accesses = 0, l1Misses = 0;
    std::uint64_t l2Accesses = 0, l2Misses = 0;
    std::uint64_t llcAccesses = 0, llcMisses = 0, llcDirtyEvictions = 0;
    std::uint64_t prefetchIssued = 0;
    std::uint64_t dramReads = 0, dramWrites = 0;
    std::uint64_t rowHits = 0, rowMisses = 0, channelAccesses = 0;
    Picos busy = 0, mshrStall = 0, depStall = 0, queueDelay = 0;

    bool operator==(const SimCounts &) const = default;

    /** Add a machine's totals since construction (warm-up + window). */
    void
    add(const sim::Machine &m, const GenTally &tally)
    {
        genOps += tally.ops;
        for (int c = 0; c < m.coreCount(); ++c) {
            const sim::SimCore &core = m.core(c);
            const sim::CoreCounters &k = core.counters();
            instructions += k.instructions;
            busy += k.busyTime;
            mshrStall += k.mshrStall;
            depStall += k.depStall;
            l1Accesses += core.l1().stats().accesses();
            l1Misses += core.l1().stats().misses;
            l2Accesses += core.l2().stats().accesses();
            l2Misses += core.l2().stats().misses;
            prefetchIssued += core.prefetcher().stats().issued;
        }
        llcAccesses += m.llc().stats().accesses();
        llcMisses += m.llc().stats().misses;
        llcDirtyEvictions += m.llc().stats().dirtyEvictions;
        dramReads += m.memctrl().stats().reads;
        dramWrites += m.memctrl().stats().writes;
        for (std::uint32_t ch = 0; ch < m.memctrl().channels(); ++ch) {
            const sim::ChannelStats &cs = m.memctrl().channelStats(ch);
            rowHits += cs.rowHits;
            rowMisses += cs.rowMisses;
            queueDelay += cs.queueDelay;
            channelAccesses += cs.reads + cs.writes;
        }
    }
};

/** Generator host time inside the warm-up and window spans, ns. */
struct GenTime
{
    std::int64_t warmupNs = 0;
    std::int64_t windowNs = 0;
};

/** A machine with its generators behind counting streams. */
struct ReplayMachine
{
    GenTally tally;
    std::vector<std::unique_ptr<workloads::Workload>> gens;
    std::vector<std::unique_ptr<CountingStream>> streams;
    std::unique_ptr<sim::Machine> machine;

    void
    bind(std::unique_ptr<workloads::Workload> gen, bool timed)
    {
        gens.push_back(std::move(gen));
        streams.push_back(
            std::make_unique<CountingStream>(*gens.back(), tally, timed));
        machine->bind(static_cast<int>(streams.size() - 1),
                      *streams.back());
    }

    /** Machine::runFor under span @p site; returns generator time, ns. */
    std::int64_t
    runFor(const char *site, Picos duration)
    {
        const std::int64_t gen0 = tally.ns;
        {
            trace::Span span(site);
            machine->runFor(duration);
        }
        return tally.ns - gen0;
    }
};

/** One fig. 3 grid point from public pieces (measure::runObservation). */
model::FitObservation
replayFig03Point(const measure::RunConfig &rc, bool timed, SimCounts &counts,
                 GenTime &gen)
{
    if (rc.adaptiveWarmup)
        throw std::logic_error("replay covers fixed warm-up grids only");
    ReplayMachine rm;
    {
        trace::Span build("sim.build");
        const workloads::WorkloadInfo &info =
            workloads::workloadInfo(rc.workloadId);
        rm.machine = std::make_unique<sim::Machine>(rc.machineConfig());
        for (int c = 0; c < rc.cores; ++c)
            rm.bind(workloads::makeWorkload(rc.workloadId, c, rc.seed),
                    timed);
        if (info.io.bytesPerSecond > 0.0) {
            sim::IoConfig io = info.io;
            io.seed = rc.seed * 17 + 5;
            rm.machine->setIo(io);
        }
    }
    gen.warmupNs += rm.runFor("sim.warmup", rc.warmup);
    const sim::MachineSnapshot before = rm.machine->snapshot();
    gen.windowNs += rm.runFor("sim.window", rc.measure);
    const sim::MachineSnapshot d = rm.machine->snapshot() - before;
    if (d.instructions == 0)
        throw std::runtime_error(rc.workloadId +
                                 ": no instructions in the window");
    counts.add(*rm.machine, rm.tally);

    model::FitObservation o;
    o.coreGhz = rc.ghz;
    o.memMtPerSec = rc.memMtPerSec;
    o.cpiEff = d.cpi(rc.ghz);
    o.mpki = d.mpki();
    o.mpi = o.mpki / 1000.0;
    o.mpCycles = d.avgMissPenaltyCycles(rc.ghz);
    o.wbr = d.wbr();
    o.instructions = static_cast<double>(d.instructions);
    return o;
}

/** One fig. 7 delay point from public pieces (an MLC machine). */
measure::LoadedLatencyPoint
replayFig07Point(const measure::LoadedLatencySetup &setup,
                 std::uint32_t delay, bool timed, SimCounts &counts,
                 GenTime &gen)
{
    ReplayMachine rm;
    {
        trace::Span build("sim.build");
        sim::MachineConfig mc;
        mc.cores = setup.cores;
        mc.core.ghz = setup.ghz;
        mc.core.mshrs = 28; // the MLC clone's deeper MSHRs
        mc.dram.channels = setup.channels;
        mc.dram.megaTransfers = setup.memMtPerSec;
        mc.seed = setup.seed;
        rm.machine = std::make_unique<sim::Machine>(mc);
        for (int c = 0; c < setup.cores; ++c) {
            workloads::LatencyCheckerConfig lc;
            lc.role = c == 0 ? workloads::MlcRole::LatencyProbe
                             : workloads::MlcRole::BandwidthGen;
            lc.seed = setup.seed * 131 + static_cast<std::uint64_t>(c);
            lc.readFraction = setup.readFraction;
            lc.delayCycles = delay;
            lc.arenaBase = (sim::Addr{1} << 44) +
                           static_cast<sim::Addr>(c) * (sim::Addr{1} << 42);
            rm.bind(std::make_unique<workloads::LatencyCheckerWorkload>(lc),
                    timed);
        }
    }
    gen.warmupNs += rm.runFor("sim.warmup", setup.warmup);
    const sim::CoreCounters probe0 = rm.machine->core(0).counters();
    const sim::MachineSnapshot snap0 = rm.machine->snapshot();
    gen.windowNs += rm.runFor("sim.window", setup.measure);
    const sim::CoreCounters probe1 = rm.machine->core(0).counters();
    const sim::MachineSnapshot d = rm.machine->snapshot() - snap0;
    counts.add(*rm.machine, rm.tally);

    const std::uint64_t fetches =
        probe1.memoryFetches() - probe0.memoryFetches();
    if (fetches == 0)
        throw std::runtime_error("latency probe made no fetches");
    measure::LoadedLatencyPoint pt;
    pt.delayCycles = delay;
    pt.latencyNs =
        picosToNs(probe1.dramLatencyTotal - probe0.dramLatencyTotal) /
        static_cast<double>(fetches);
    pt.bandwidthGBps = d.dramBandwidth() / 1e9;
    return pt;
}

/** Unloaded latency and achievable bandwidth of a finished curve. */
void
finishCurve(measure::LoadedLatencyCurve &c)
{
    c.unloadedNs = c.points.front().latencyNs;
    c.maxBandwidthGBps = 0.0;
    for (const auto &p : c.points) {
        c.unloadedNs = std::min(c.unloadedNs, p.latencyNs);
        c.maxBandwidthGBps = std::max(c.maxBandwidthGBps, p.bandwidthGBps);
    }
}

/** One replayed grid point of either sweep. */
struct PointResult
{
    model::FitObservation obs;       ///< sweep_fig03
    measure::LoadedLatencyPoint pt;  ///< sweep_fig07
};

/** Replay grid point @p idx (in sweep order). */
PointResult
replayPoint(const Plan &plan, std::size_t idx, bool timed, SimCounts &counts,
            GenTime &gen)
{
    PointResult r;
    if (!plan.fig07) {
        r.obs = replayFig03Point(plan.grid[idx], timed, counts, gen);
        return r;
    }
    const std::size_t per = plan.setups.front().delayCycles.size();
    const auto &setup = plan.setups[idx / per];
    r.pt = replayFig07Point(setup, setup.delayCycles[idx % per], timed,
                            counts, gen);
    return r;
}

/** The sweep's own value for grid point @p idx. */
PointResult
sweptPoint(const Plan &plan, const Output &out, std::size_t idx)
{
    PointResult r;
    if (!plan.fig07) {
        const std::size_t per = plan.grid.size() / plan.ids.size();
        r.obs = out.chars[idx / per].observations[idx % per];
        return r;
    }
    const std::size_t per = plan.setups.front().delayCycles.size();
    r.pt = out.curves[idx / per].points[idx % per];
    return r;
}

bool
samePointResult(const Plan &plan, const PointResult &a, const PointResult &b)
{
    return plan.fig07 ? samePoint(a.pt, b.pt) : sameObservation(a.obs, b.obs);
}

/** What one traced replay measured besides its output. */
struct ReplayTimes
{
    double plainS = 0.0;  ///< host time of the untraced points
    double tracedS = 0.0; ///< host time of the traced points
    GenTime gen;          ///< generator time inside the traced points
    std::size_t disagreements = 0; ///< points where the two differ
};

/**
 * The whole sweep, serially, from public pieces. Every grid point
 * runs twice back to back (in alternating order, so host noise and
 * warm caches favour neither): untraced, and traced with the program's
 * span statistics armed (util/trace.hh). @p trace_path, when not
 * empty, receives the trace file of the first traced point. Returns the
 * traced output, fits and composite included.
 */
Output
replaySweep(const Plan &plan, const std::string &trace_path,
            SimCounts &counts, ReplayTimes &times)
{
    std::vector<PointResult> points;
    for (std::size_t i = 0; i < plan.points(); ++i) {
        SimCounts plain_counts;
        GenTime plain_gen;
        PointResult plain, traced;
        auto run_plain = [&] {
            const std::int64_t t0 = nowNs();
            plain = replayPoint(plan, i, false, plain_counts, plain_gen);
            times.plainS += static_cast<double>(nowNs() - t0) / 1e9;
        };
        auto run_traced = [&] {
            const bool record = i == 0 && !trace_path.empty();
            if (record)
                trace::startTracing(trace_path);
            trace::setStatsEnabled(true);
            const std::int64_t t0 = nowNs();
            traced = replayPoint(plan, i, true, counts, times.gen);
            times.tracedS += static_cast<double>(nowNs() - t0) / 1e9;
            trace::setStatsEnabled(false);
            if (record)
                trace::stopTracing();
        };
        if (i % 2 == 0) {
            run_plain();
            run_traced();
        } else {
            run_traced();
            run_plain();
        }
        times.disagreements += samePointResult(plan, plain, traced) ? 0u : 1u;
        points.push_back(traced);
    }

    // The fits under armed statistics: fitModel's own fitter.fit span,
    // and the benchmark's span around the fig. 7 composite.
    trace::setStatsEnabled(true);
    Output out;
    if (!plan.fig07) {
        const std::size_t per = plan.grid.size() / plan.ids.size();
        for (std::size_t w = 0; w < plan.ids.size(); ++w) {
            measure::Characterization c;
            c.workloadId = plan.ids[w];
            for (std::size_t j = 0; j < per; ++j)
                c.observations.push_back(points[w * per + j].obs);
            const workloads::WorkloadInfo &info =
                workloads::workloadInfo(c.workloadId);
            c.model = model::fitModel(info.display, info.cls,
                                      c.observations);
            out.chars.push_back(std::move(c));
        }
    } else {
        const std::size_t per = plan.setups.front().delayCycles.size();
        for (std::size_t s = 0; s < plan.setups.size(); ++s) {
            measure::LoadedLatencyCurve c;
            c.setup = plan.setups[s];
            for (std::size_t j = 0; j < per; ++j)
                c.points.push_back(points[s * per + j].pt);
            finishCurve(c);
            out.curves.push_back(std::move(c));
        }
        trace::Span composite("stats.composite");
        out.composite = compositeOf(out.curves);
    }
    trace::setStatsEnabled(false);
    return out;
}

/**
 * Untraced spot check: replay @p k seed-chosen grid points serially
 * and compare them with the sweep's. Returns the points that differ.
 */
std::size_t
spotCheck(const Plan &plan, const Output &out, std::uint64_t seed,
          std::size_t k, Result &r)
{
    std::size_t bad = 0;
    const std::size_t n = plan.points();
    for (std::size_t s = 0; s < k; ++s) {
        const std::size_t idx = (seed * 7919 + s * (n / k + 1)) % n;
        SimCounts counts;
        GenTime gen;
        if (!samePointResult(plan, replayPoint(plan, idx, false, counts, gen),
                             sweptPoint(plan, out, idx))) {
            ++bad;
            r.notes.push_back("serial replay of grid point " +
                              std::to_string(idx) + " differs");
        }
    }
    return bad;
}

// ------------------------------------------------------------ set-up

/** Median spawn-to-sweep-call time over fresh probe processes, s. */
std::vector<double>
setupSamples(const RunInfo &run)
{
    std::vector<double> samples;
    const std::string exe = selfExe();
    for (int k = 0; k < kSetupProbes; ++k) {
        const std::int64_t t0 = nowNs();
        Child c = spawnChild({exe, "--setup-probe", run.workload, "--seed",
                              std::to_string(run.seed)});
        const std::string line = readUntil(c.outFd, kSetupMarker, 30'000);
        close(c.outFd);
        const int rc = waitChild(c.pid, 30'000);
        if (line.empty() || rc != 0)
            throw std::runtime_error("set-up probe failed");
        const std::int64_t reached =
            std::stoll(line.substr(line.find(' ') + 1));
        samples.push_back(static_cast<double>(reached - t0) / 1e9);
    }
    return samples;
}

// ------------------------------------------------------------- layers

void
setSimCounts(Result &r, const SimCounts &c, std::size_t runs)
{
    auto d = [](auto v) { return static_cast<double>(v); };
    r.set("workloads.ops", d(c.genOps), runs);
    r.set("sim.instructions", d(c.instructions), runs);
    r.set("sim.l1.accesses", d(c.l1Accesses), runs);
    r.set("sim.l1.miss_ratio", ratio(d(c.l1Misses), d(c.l1Accesses)), runs);
    r.set("sim.l2.miss_ratio", ratio(d(c.l2Misses), d(c.l2Accesses)), runs);
    r.set("sim.llc.accesses", d(c.llcAccesses), runs);
    r.set("sim.llc.miss_ratio", ratio(d(c.llcMisses), d(c.llcAccesses)),
          runs);
    r.set("sim.llc.dirty_evictions", d(c.llcDirtyEvictions), runs);
    r.set("sim.prefetch.issued", d(c.prefetchIssued), runs);
    r.set("sim.core.mshr_stall_frac", ratio(d(c.mshrStall), d(c.busy)),
          runs);
    r.set("sim.core.dep_stall_frac", ratio(d(c.depStall), d(c.busy)), runs);
    r.set("sim.dram.reads", d(c.dramReads), runs);
    r.set("sim.dram.writes", d(c.dramWrites), runs);
    r.set("sim.dram.row_hit_ratio",
          ratio(d(c.rowHits), d(c.rowHits + c.rowMisses)), runs);
    r.set("sim.dram.queue_ns",
          ratio(picosToNs(c.queueDelay), d(c.channelAccesses)), runs);
}

// --------------------------------------------------------------- runs

/** Output checks shared by both run kinds: goldens and spot replays. */
void
checkOutput(const RunInfo &run, const Plan &plan, const Output &first,
            std::size_t sweeps, Result &r)
{
    if (run.seed == 1) {
        const std::size_t bad = goldenMismatches(plan, first, r);
        if (bad > 0)
            r.fail(bad * sweeps, "sweep output outside the golden "
                                 "tolerances");
    }
    if (!run.trace) {
        const std::size_t bad =
            spotCheck(plan, first, run.seed, kSpotChecks, r);
        if (bad > 0)
            r.fail(bad * sweeps, "sweep differs from its serial replay");
    }
    r.checksRan = true;
}

Result
untracedRun(const RunInfo &run, const Plan &plan)
{
    Result r;
    const std::vector<double> setup = setupSamples(run);
    const std::size_t n = plan.points();

    std::vector<double> walls;
    Output first;
    const double cpu0 = processCpuSeconds(getpid());
    const std::int64_t phase0 = nowNs();
    do {
        const std::int64_t t0 = nowNs();
        Output out;
        try {
            out = runSweep(plan);
        } catch (const std::exception &e) {
            r.attempted += n;
            r.fail(n, std::string("sweep threw: ") + e.what());
            continue;
        }
        walls.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        r.attempted += n;
        if (walls.size() == 1) {
            first = std::move(out);
            continue;
        }
        const std::size_t bad = differingPoints(plan, first, out);
        if (bad > 0)
            r.fail(bad, "a repeated sweep differs from the first");
    } while (static_cast<double>(nowNs() - phase0) / 1e9 < run.seconds);
    const double cpu = processCpuSeconds(getpid()) - cpu0;

    if (walls.empty())
        return r;
    checkOutput(run, plan, first, walls.size(), r);

    // Points completed per second of sweeping: a whole-phase mean, so
    // that a run averages over the host's faster and slower spells
    // rather than landing in one of them.
    r.set("ops_per_s",
          static_cast<double>(n * walls.size()) /
              std::accumulate(walls.begin(), walls.end(), 0.0),
          walls.size());
    r.set("cpu_us_per_op",
          cpu * 1e6 / static_cast<double>(n * walls.size()),
          n * walls.size());
    r.set("setup_s", median(setup), setup.size());
    r.set("peak_rss_mb", peakRssMb(getpid()), 1);
    return r;
}

/** Total duration of span site @p site in @p now beyond @p before, ns. */
double
spanNsSince(const std::map<std::string, trace::SpanStat> &before,
            const std::map<std::string, trace::SpanStat> &now,
            const std::string &site)
{
    auto total = [&site](const std::map<std::string, trace::SpanStat> &m) {
        auto it = m.find(site);
        return it == m.end() ? 0.0 : static_cast<double>(it->second.totalNs);
    };
    return total(now) - total(before);
}

Result
tracedRun(const RunInfo &run, const Plan &plan)
{
    Result r;
    const std::size_t n = plan.points();
    std::vector<double> gen_s, ns_per_op, build_s, run_s, ns_per_inst,
        warmup_frac, fit_ms, parallel_eff, overhead;
    SimCounts exact;
    Output first;
    const std::string trace_path = scratchDir() + "/trace-" + run.workload +
                                   "-" + std::to_string(run.seed) + ".json";
    const std::int64_t phase0 = nowNs();
    do {
        r.attempted += n;
        Output sweep, traced;
        SimCounts counts;
        ReplayTimes times;
        double wall = 0.0;
        const auto spans0 = trace::spanStats();
        try {
            const std::int64_t t0 = nowNs();
            sweep = runSweep(plan);
            wall = static_cast<double>(nowNs() - t0) / 1e9;
            traced = replaySweep(plan, parallel_eff.empty() ? trace_path : "",
                                 counts, times);
        } catch (const std::exception &e) {
            trace::setStatsEnabled(false);
            trace::stopTracing();
            r.fail(n, std::string("sweep or replay threw: ") + e.what());
            continue;
        }
        const auto spans = trace::spanStats();

        const std::size_t bad = std::max(differingPoints(plan, sweep, traced),
                                         times.disagreements);
        if (bad > 0)
            r.fail(bad, "the serial replay does not reproduce the sweep");
        if (parallel_eff.empty()) {
            exact = counts;
            first = std::move(sweep);
        } else if (!(counts == exact)) {
            r.fail(n, "simulator counts differ between replays");
        }

        // Self time of the simulator: its runFor spans minus the
        // generator time measured inside them.
        const double gen = static_cast<double>(times.gen.warmupNs +
                                               times.gen.windowNs);
        const double warmup_self =
            spanNsSince(spans0, spans, "sim.warmup") -
            static_cast<double>(times.gen.warmupNs);
        const double sim_self = warmup_self +
                                spanNsSince(spans0, spans, "sim.window") -
                                static_cast<double>(times.gen.windowNs);
        gen_s.push_back(gen / 1e9);
        ns_per_op.push_back(ratio(gen, static_cast<double>(counts.genOps)));
        build_s.push_back(spanNsSince(spans0, spans, "sim.build") / 1e9);
        run_s.push_back(sim_self / 1e9);
        ns_per_inst.push_back(
            ratio(sim_self, static_cast<double>(counts.instructions)));
        warmup_frac.push_back(ratio(warmup_self, sim_self));
        fit_ms.push_back((spanNsSince(spans0, spans, "fitter.fit") +
                          spanNsSince(spans0, spans, "stats.composite")) /
                         1e6);
        parallel_eff.push_back(times.plainS / (kJobs * wall));
        overhead.push_back(times.tracedS / times.plainS - 1.0);
    } while (static_cast<double>(nowNs() - phase0) / 1e9 < run.seconds);

    if (parallel_eff.empty())
        return r;
    checkOutput(run, plan, first, parallel_eff.size(), r);

    const std::size_t k = parallel_eff.size();
    r.set("workloads.gen_s", median(gen_s), k);
    r.set("workloads.ns_per_op", median(ns_per_op), k);
    r.set("sim.build_s", median(build_s), k);
    r.set("sim.run_s", median(run_s), k);
    r.set("sim.ns_per_inst", median(ns_per_inst), k);
    r.set("sim.warmup_frac", median(warmup_frac), k);
    setSimCounts(r, exact, k);
    r.set("measure.points", static_cast<double>(n), k);
    r.set("measure.parallel_eff", median(parallel_eff), k);
    r.set("model.fit_ms", median(fit_ms), k);
    r.set("trace.overhead_frac", median(overhead), k);
    return r;
}

} // anonymous namespace

bool
isSweepWorkload(const std::string &workload)
{
    return workload == "sweep_fig03" || workload == "sweep_fig07";
}

Result
runSweepWorkload(const RunInfo &run)
{
    const Plan plan = makePlan(run.workload, run.seed);
    return run.trace ? tracedRun(run, plan) : untracedRun(run, plan);
}

int
sweepSetupProbe(const std::string &workload, std::uint64_t seed)
{
    const Plan plan = makePlan(workload, seed);
    if (plan.points() == 0)
        return 1;
    std::cout << kSetupMarker << " " << nowNs() << std::endl;
    return 0;
}

} // namespace membench
