/**
 * @file
 * SoA-vs-golden equivalence: pins bit-exact simulation counters.
 *
 * The AoSoA cache refactor, batched op runs, the fused writeback scan,
 * and the arena-backed layout all promise *identical* simulation
 * semantics — not "close", identical. This test runs a fixed
 * (workload, seed, geometry) matrix and compares every integer
 * counter against values captured from the pre-refactor
 * array-of-structs implementation. Any divergence — one extra rng
 * call, one reordered eviction, one off-by-one in a tag scan — shows
 * up as an exact counter mismatch here, long before it would show up
 * as a subtle drift in a fitted figure.
 *
 * The golden table was produced by the pre-refactor build with this
 * exact RunConfig; regenerating it requires checking out a pre-SoA
 * tree, so treat a mismatch as a bug in the refactor, not a stale
 * fixture.
 *
 * The MLC rows pin the Fig. 7 loaded-latency machine the same way:
 * the LLC-miss, MSHR-stall and DRAM-queue path that the workload rows
 * barely reach, including non-temporal stores.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include <memory>
#include <vector>

#include "measure/runner.hh"
#include "sim/machine.hh"
#include "util/log.hh"
#include "util/units.hh"
#include "workloads/latency_checker.hh"

using namespace memsense;

namespace
{

// The workload a golden row runs. Held as a value rather than a
// `const char *`: gtest prints a parameter's raw bytes into each test's
// name, and a pointer there would change from run to run under ASLR.
enum class Workload : std::uint64_t
{
    ColumnStore,
    Oltp,
    Bwaves,
    Spark,
    WebCaching,
};

const char *
workloadId(Workload w)
{
    switch (w) {
    case Workload::ColumnStore:
        return "column_store";
    case Workload::Oltp:
        return "oltp";
    case Workload::Bwaves:
        return "bwaves";
    case Workload::Spark:
        return "spark";
    case Workload::WebCaching:
        return "web_caching";
    }
    return "";
}

struct GoldenCounters
{
    Workload workload;
    // MachineSnapshot totals.
    std::uint64_t instructions, memoryFetches, writebacks;
    Picos busyTime, idleTime, dramLatencyTotal;
    // Shared-LLC stats.
    std::uint64_t llcHits, llcMisses, llcFills, llcEvictions,
        llcDirtyEvictions;
    // Memory-controller aggregate stats.
    std::uint64_t mcReads, mcWrites;
    Picos mcTotalReadLatency;
    // Channel-0 stats.
    std::uint64_t ch0Reads, ch0Writes, ch0RowHits;
    Picos ch0BusBusy, ch0QueueDelay;
    // Core-0 counters.
    std::uint64_t c0Instructions, c0Loads;
    Picos c0MshrStall, c0DepStall, c0RobStall, c0BusyTime;
};

// Captured from the pre-SoA array-of-structs simulator (see file
// comment). One row per workload class exercised by the paper's
// figures: streaming scan, pointer-chasing OLTP, HPC, JVM-heavy
// Spark, and idle-heavy web caching.
constexpr GoldenCounters kGolden[] = {
    {Workload::ColumnStore,
     1826964ull, 11096ull, 0ull,
     799966265ll, 0ll, 792985431ll,
     6675ull, 10004ull, 16695ull, 16695ull, 0ull,
     16695ull, 0ull, 1191387164ll,
     4246ull, 0ull, 835ull, 22745822ll, 10610522ll,
     1364240ull, 55143ull, 0ll, 138533109ll, 6683ll, 600011844ll},
    {Workload::Oltp,
     741156ull, 8773ull, 0ull,
     800890279ll, 0ll, 676736624ll,
     75ull, 13175ull, 13175ull, 13175ull, 0ull,
     18295ull, 1024ull, 5004012928ll,
     4545ull, 224ull, 1772ull, 25547533ll, 1118162688ll,
     551874ull, 5562ull, 0ll, 308860434ll, 0ll, 600550760ll},
    {Workload::Bwaves,
     2527393ull, 79296ull, 8098ull,
     799944214ll, 0ll, 5802006923ll,
     85466ull, 33754ull, 119285ull, 119285ull, 8098ull,
     119285ull, 8098ull, 8626204071ll,
     29811ull, 1987ull, 22094ull, 170341886ll, 570405179ll,
     1885029ull, 45054ull, 29770ll, 216316634ll, 0ll, 600003730ll},
    {Workload::Spark,
     1059329ull, 7654ull, 0ull,
     492279313ll, 299700000ll, 523775453ll,
     1907ull, 9923ull, 11810ull, 11810ull, 0ull,
     11810ull, 0ull, 804619160ll,
     2967ull, 0ull, 888ull, 15894219ll, 6430962ll,
     791644ull, 7544ull, 0ll, 134719584ll, 0ll, 378246697ll},
    {Workload::WebCaching,
     550376ull, 2975ull, 0ull,
     437335963ll, 362970000ll, 225018506ll,
     0ull, 4464ull, 4464ull, 4464ull, 0ull,
     4464ull, 0ull, 337293108ll,
     1141ull, 0ull, 4ull, 6112337ll, 1500282ll,
     412797ull, 2141ull, 0ll, 88711120ll, 0ll, 329225312ll},
};

class SimEquivalence : public ::testing::TestWithParam<GoldenCounters>
{
};

TEST_P(SimEquivalence, BitIdenticalToPreSoaGolden)
{
    const GoldenCounters &g = GetParam();
    setLogLevel(LogLevel::Warn);

    measure::RunConfig rc;
    rc.workloadId = workloadId(g.workload);
    rc.cores = 2;
    rc.ghz = 2.7;
    rc.memMtPerSec = 1866.7;
    rc.channels = 4;
    rc.seed = 7;
    rc.adaptiveWarmup = false;
    rc.warmup = nsToPicos(200'000.0);
    rc.measure = nsToPicos(400'000.0);

    measure::WorkloadRun run(rc);
    run.warmup();
    sim::MachineSnapshot d = run.measure();
    const sim::Machine &m = run.machine();
    const sim::CoreCounters &c0 = m.core(0).counters();
    const sim::CacheStats &llc = m.llc().stats();
    const sim::MemCtrlStats &mc = m.memctrl().stats();
    const sim::ChannelStats &ch0 = m.memctrl().channelStats(0);

    EXPECT_EQ(d.instructions, g.instructions);
    EXPECT_EQ(d.memoryFetches, g.memoryFetches);
    EXPECT_EQ(d.writebacks, g.writebacks);
    EXPECT_EQ(d.busyTime, g.busyTime);
    EXPECT_EQ(d.idleTime, g.idleTime);
    EXPECT_EQ(d.dramLatencyTotal, g.dramLatencyTotal);

    EXPECT_EQ(llc.hits, g.llcHits);
    EXPECT_EQ(llc.misses, g.llcMisses);
    EXPECT_EQ(llc.fills, g.llcFills);
    EXPECT_EQ(llc.evictions, g.llcEvictions);
    EXPECT_EQ(llc.dirtyEvictions, g.llcDirtyEvictions);

    EXPECT_EQ(mc.reads, g.mcReads);
    EXPECT_EQ(mc.writes, g.mcWrites);
    EXPECT_EQ(mc.totalReadLatency, g.mcTotalReadLatency);

    EXPECT_EQ(ch0.reads, g.ch0Reads);
    EXPECT_EQ(ch0.writes, g.ch0Writes);
    EXPECT_EQ(ch0.rowHits, g.ch0RowHits);
    EXPECT_EQ(ch0.busBusy, g.ch0BusBusy);
    EXPECT_EQ(ch0.queueDelay, g.ch0QueueDelay);

    EXPECT_EQ(c0.instructions, g.c0Instructions);
    EXPECT_EQ(c0.loads, g.c0Loads);
    EXPECT_EQ(c0.mshrStall, g.c0MshrStall);
    EXPECT_EQ(c0.depStall, g.c0DepStall);
    EXPECT_EQ(c0.robStall, g.c0RobStall);
    EXPECT_EQ(c0.busyTime, g.c0BusyTime);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SimEquivalence, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenCounters> &param_info) {
        return std::string(workloadId(param_info.param.workload));
    });

// ----------------------------------------------------------- MLC rows

// The generator mix an MLC row runs (a value, for stable test names).
enum class MlcMix : std::uint64_t
{
    AllReads, ///< readFraction 1: every generator access is a load
    TwoToOne, ///< readFraction 2/3: a third are non-temporal stores
};

double
readFractionOf(MlcMix mix)
{
    return mix == MlcMix::AllReads ? 1.0 : 2.0 / 3.0;
}

const char *
mixName(MlcMix mix)
{
    return mix == MlcMix::AllReads ? "all_reads" : "two_to_one";
}

struct MlcGolden
{
    MlcMix mix;
    // MachineSnapshot totals.
    std::uint64_t instructions, memoryFetches, writebacks;
    Picos busyTime, dramLatencyTotal;
    // Shared-LLC stats.
    std::uint64_t llcHits, llcMisses, llcFills, llcEvictions;
    // Memory-controller aggregate stats.
    std::uint64_t mcReads, mcWrites;
    Picos mcTotalReadLatency;
    // Channel-0 stats.
    std::uint64_t ch0Reads, ch0Writes, ch0RowHits;
    Picos ch0BusBusy, ch0QueueDelay;
    // Core 0, the latency probe.
    std::uint64_t probeInstructions, probeFetches;
    Picos probeDepStall, probeDramLatency;
    // Core 1, a bandwidth generator.
    std::uint64_t genInstructions, genLoads, genNtStores, genL2Misses;
    Picos genMshrStall, genRobStall, genBusyTime;
};

// Captured before the simulator's look-ahead set prefetch, minimum op
// run length and MSHR heap went in, all of which promise identical
// counters. One row per generator mix of the paper's Fig. 7 cases.
constexpr MlcGolden kMlcGolden[] = {
    {MlcMix::AllReads,
     117224ull, 58461ull, 0ull,
     639989368ull, 15759389270ull,
     18ull, 87884ull, 87884ull, 87884ull,
     87884ull, 0ull, 23672870794ull,
     21915ull, 0ull, 3ull, 117398655ull, 4202534378ull,
     1126ull, 376ull, 119961368ull, 119961368ull,
     25011ull, 12506ull, 0ull, 12504ull, 117687543ull, 0ull, 120001060ull},
    {MlcMix::TwoToOne,
     119061ull, 39748ull, 19681ull,
     639833031ull, 15764900353ull,
     5ull, 60026ull, 60026ull, 60026ull,
     60026ull, 29468ull, 23688599726ull,
     15049ull, 7379ull, 3ull, 120146796ull, 9892352484ull,
     808ull, 270ull, 120317654ull, 120317654ull,
     25683ull, 8567ull, 4275ull, 8567ull, 117640507ull, 0ull, 120016184ull},
};

class SimEquivalenceMlc : public ::testing::TestWithParam<MlcGolden>
{
};

/**
 * The Fig. 7 loaded-latency machine at its heaviest point: one
 * pointer-chasing probe and seven bandwidth generators with no
 * injected delay, 28 MSHRs per core (built as measure/loaded_latency
 * builds it). This is the LLC-miss, MSHR-stall and DRAM-queue path,
 * fed by the MLC generators' two- and three-op units.
 */
TEST_P(SimEquivalenceMlc, BitIdenticalToGolden)
{
    const MlcGolden &g = GetParam();
    setLogLevel(LogLevel::Warn);

    constexpr int kCores = 8;
    constexpr std::uint64_t kSeed = 7;
    sim::MachineConfig mc;
    mc.cores = kCores;
    mc.core.ghz = 2.7;
    mc.core.mshrs = 28;
    mc.dram.channels = 4;
    mc.dram.megaTransfers = 1866.7;
    mc.seed = kSeed;
    sim::Machine m(mc);
    std::vector<std::unique_ptr<workloads::LatencyCheckerWorkload>> agents;
    for (int c = 0; c < kCores; ++c) {
        workloads::LatencyCheckerConfig lc;
        lc.role = c == 0 ? workloads::MlcRole::LatencyProbe
                         : workloads::MlcRole::BandwidthGen;
        lc.seed = kSeed * 131 + static_cast<std::uint64_t>(c);
        lc.readFraction = readFractionOf(g.mix);
        lc.delayCycles = 0;
        lc.arenaBase = (sim::Addr{1} << 44) +
                       static_cast<sim::Addr>(c) * (sim::Addr{1} << 42);
        agents.push_back(
            std::make_unique<workloads::LatencyCheckerWorkload>(lc));
        m.bind(c, *agents.back());
    }
    m.runFor(nsToPicos(40'000.0));
    const sim::MachineSnapshot before = m.snapshot();
    m.runFor(nsToPicos(80'000.0));
    const sim::MachineSnapshot d = m.snapshot() - before;

    const sim::CoreCounters &probe = m.core(0).counters();
    const sim::CoreCounters &gen = m.core(1).counters();
    const sim::CacheStats &llc = m.llc().stats();
    const sim::MemCtrlStats &mcs = m.memctrl().stats();
    const sim::ChannelStats &ch0 = m.memctrl().channelStats(0);

    EXPECT_EQ(d.instructions, g.instructions);
    EXPECT_EQ(d.memoryFetches, g.memoryFetches);
    EXPECT_EQ(d.writebacks, g.writebacks);
    EXPECT_EQ(d.busyTime, g.busyTime);
    EXPECT_EQ(d.dramLatencyTotal, g.dramLatencyTotal);

    EXPECT_EQ(llc.hits, g.llcHits);
    EXPECT_EQ(llc.misses, g.llcMisses);
    EXPECT_EQ(llc.fills, g.llcFills);
    EXPECT_EQ(llc.evictions, g.llcEvictions);

    EXPECT_EQ(mcs.reads, g.mcReads);
    EXPECT_EQ(mcs.writes, g.mcWrites);
    EXPECT_EQ(mcs.totalReadLatency, g.mcTotalReadLatency);

    EXPECT_EQ(ch0.reads, g.ch0Reads);
    EXPECT_EQ(ch0.writes, g.ch0Writes);
    EXPECT_EQ(ch0.rowHits, g.ch0RowHits);
    EXPECT_EQ(ch0.busBusy, g.ch0BusBusy);
    EXPECT_EQ(ch0.queueDelay, g.ch0QueueDelay);

    EXPECT_EQ(probe.instructions, g.probeInstructions);
    EXPECT_EQ(probe.memoryFetches(), g.probeFetches);
    EXPECT_EQ(probe.depStall, g.probeDepStall);
    EXPECT_EQ(probe.dramLatencyTotal, g.probeDramLatency);

    EXPECT_EQ(gen.instructions, g.genInstructions);
    EXPECT_EQ(gen.loads, g.genLoads);
    EXPECT_EQ(gen.ntStores, g.genNtStores);
    EXPECT_EQ(m.core(1).l2().stats().misses, g.genL2Misses);
    EXPECT_EQ(gen.mshrStall, g.genMshrStall);
    EXPECT_EQ(gen.robStall, g.genRobStall);
    EXPECT_EQ(gen.busyTime, g.genBusyTime);
    // The row must reach the path it pins.
    EXPECT_GT(gen.mshrStall, 0u);
    if (g.mix == MlcMix::TwoToOne) {
        EXPECT_GT(gen.ntStores, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Fig7Delay0, SimEquivalenceMlc, ::testing::ValuesIn(kMlcGolden),
    [](const ::testing::TestParamInfo<MlcGolden> &param_info) {
        return std::string(mixName(param_info.param.mix));
    });

} // namespace
