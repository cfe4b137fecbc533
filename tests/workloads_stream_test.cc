/**
 * @file
 * Property tests over every workload generator: determinism, op-
 * stream sanity, address-arena containment, per-workload signature
 * checks (op mixes that define each workload's character), and the
 * run handout (acquireRun) against the per-op next() sequence.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "workloads/factory.hh"
#include "workloads/latency_checker.hh"
#include "util/error.hh"
#include "workloads/layout.hh"

namespace memsense::workloads
{
namespace
{

/** Summary of the first N ops of a stream. */
struct StreamProfile
{
    std::uint64_t computeInstr = 0;
    std::uint64_t bubbleCycles = 0;
    std::uint64_t idleCycles = 0;
    std::uint64_t loads = 0;
    std::uint64_t dependentLoads = 0;
    std::uint64_t stores = 0;
    std::uint64_t ntStores = 0;
    std::uint64_t streamTagged = 0; ///< ops carrying a stream id
    sim::Addr minAddr = ~sim::Addr{0};
    sim::Addr maxAddr = 0;

    std::uint64_t
    instructions() const
    {
        return computeInstr + loads + stores + ntStores;
    }

    std::uint64_t
    memOps() const
    {
        return loads + stores + ntStores;
    }
};

StreamProfile
profileStream(sim::OpStream &stream, std::uint64_t n = 200'000)
{
    StreamProfile p;
    sim::MicroOp op;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (!stream.next(op))
            break;
        switch (op.kind) {
          case sim::OpKind::Compute:
            p.computeInstr += op.count;
            break;
          case sim::OpKind::Bubble:
            p.bubbleCycles += op.count;
            break;
          case sim::OpKind::Idle:
            p.idleCycles += op.count;
            break;
          case sim::OpKind::Load:
            ++p.loads;
            if (op.dependent)
                ++p.dependentLoads;
            break;
          case sim::OpKind::Store:
            ++p.stores;
            break;
          case sim::OpKind::NtStore:
            ++p.ntStores;
            break;
        }
        if (op.kind == sim::OpKind::Load ||
            op.kind == sim::OpKind::Store ||
            op.kind == sim::OpKind::NtStore) {
            p.minAddr = std::min(p.minAddr, op.addr);
            p.maxAddr = std::max(p.maxAddr, op.addr);
            if (op.stream != 0)
                ++p.streamTagged;
        }
    }
    return p;
}

/** True when every field of two ops matches. */
bool
sameOp(const sim::MicroOp &a, const sim::MicroOp &b)
{
    return a.kind == b.kind && a.addr == b.addr && a.count == b.count &&
           a.dependent == b.dependent && a.stream == b.stream;
}

/**
 * Drain @p runs through acquireRun() until it returns 0 or @p limit
 * ops were handed out, and check the concatenated runs against
 * @p twin's next() sequence. Every run must hold at least
 * Workload::kMinRunOps ops, except the last one of a stream that
 * ended. Returns the run lengths.
 */
std::vector<std::size_t>
expectRunsMatchNext(Workload &runs, Workload &twin, std::size_t limit)
{
    std::vector<std::size_t> lengths;
    std::size_t seen = 0;
    sim::MicroOp op;
    while (seen < limit) {
        const sim::MicroOp *run = nullptr;
        const std::size_t n = runs.acquireRun(&run);
        if (n == 0) {
            EXPECT_FALSE(twin.next(op)) << "runs ended before next()";
            break;
        }
        if (!lengths.empty()) {
            EXPECT_GE(lengths.back(), Workload::kMinRunOps)
                << "short run that did not end the stream";
        }
        lengths.push_back(n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(twin.next(op)) << "next() ended early at op "
                                       << seen + i;
            if (!sameOp(run[i], op)) {
                ADD_FAILURE() << "op " << seen + i << " differs";
                return lengths;
            }
        }
        seen += n;
    }
    return lengths;
}

/** Parameterized over all twelve catalog workloads. */
class EveryWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryWorkload, DeterministicBySeed)
{
    auto a = makeWorkload(GetParam(), 0, 42);
    auto b = makeWorkload(GetParam(), 0, 42);
    sim::MicroOp oa;
    sim::MicroOp ob;
    for (int i = 0; i < 20'000; ++i) {
        ASSERT_TRUE(a->next(oa));
        ASSERT_TRUE(b->next(ob));
        ASSERT_EQ(oa.kind, ob.kind);
        ASSERT_EQ(oa.addr, ob.addr);
        ASSERT_EQ(oa.count, ob.count);
        ASSERT_EQ(oa.dependent, ob.dependent);
    }
}

TEST_P(EveryWorkload, DifferentSeedsDifferentStreams)
{
    auto a = makeWorkload(GetParam(), 0, 1);
    auto b = makeWorkload(GetParam(), 0, 2);
    sim::MicroOp oa;
    sim::MicroOp ob;
    int diff = 0;
    for (int i = 0; i < 20'000; ++i) {
        a->next(oa);
        b->next(ob);
        if (oa.addr != ob.addr)
            ++diff;
    }
    EXPECT_GT(diff, 100);
}

TEST_P(EveryWorkload, CoresHaveDisjointArenas)
{
    auto a = makeWorkload(GetParam(), 0, 1);
    auto b = makeWorkload(GetParam(), 3, 1);
    StreamProfile pa = profileStream(*a, 50'000);
    StreamProfile pb = profileStream(*b, 50'000);
    EXPECT_TRUE(pa.maxAddr < pb.minAddr || pb.maxAddr < pa.minAddr)
        << GetParam();
}

TEST_P(EveryWorkload, ProducesAllInstructionActivity)
{
    auto w = makeWorkload(GetParam(), 0, 5);
    StreamProfile p = profileStream(*w);
    EXPECT_GT(p.instructions(), 10'000u) << GetParam();
    EXPECT_GT(p.memOps(), 100u) << GetParam();
    EXPECT_GT(p.computeInstr, 0u) << GetParam();
}

TEST_P(EveryWorkload, AddressesStayWithinTheCoreArena)
{
    auto w = makeWorkload(GetParam(), 2, 5);
    StreamProfile p = profileStream(*w, 100'000);
    const sim::Addr arena_base =
        (sim::Addr{1} << 44) + 2 * (sim::Addr{1} << 42);
    EXPECT_GE(p.minAddr, arena_base) << GetParam();
    EXPECT_LT(p.maxAddr, arena_base + (sim::Addr{1} << 42))
        << GetParam();
}

TEST_P(EveryWorkload, RunsMatchNextAndMeetTheMinimumLength)
{
    auto runs = makeWorkload(GetParam(), 1, 9);
    auto twin = makeWorkload(GetParam(), 1, 9);
    const std::vector<std::size_t> lengths =
        expectRunsMatchNext(*runs, *twin, 50'000);
    ASSERT_FALSE(lengths.empty());
    EXPECT_GE(lengths.back(), Workload::kMinRunOps) << GetParam();
}

TEST_P(EveryWorkload, RunsResumeAfterPartlyConsumedBatch)
{
    // next() leaves part of a batch unconsumed; the following run
    // starts with exactly those ops.
    auto runs = makeWorkload(GetParam(), 0, 4);
    auto twin = makeWorkload(GetParam(), 0, 4);
    sim::MicroOp a;
    sim::MicroOp b;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(runs->next(a));
        ASSERT_TRUE(twin->next(b));
        ASSERT_TRUE(sameOp(a, b));
    }
    expectRunsMatchNext(*runs, *twin, 10'000);
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, EveryWorkload,
    ::testing::Values("column_store", "nits", "proximity", "spark",
                      "oltp", "jvm", "virtualization", "web_caching",
                      "bwaves", "milc", "soplex", "wrf"),
    [](const auto &p) { return p.param; });

TEST(WorkloadSignatures, NitsWritesNonTemporally)
{
    auto w = makeWorkload("nits", 0, 1);
    StreamProfile p = profileStream(*w);
    EXPECT_GT(p.ntStores, p.loads) << "NITS WBR must exceed 100%";
}

TEST(WorkloadSignatures, ProximityIsComputeHeavy)
{
    auto w = makeWorkload("proximity", 0, 1);
    StreamProfile p = profileStream(*w);
    // An order of magnitude fewer memory ops per instruction than the
    // scanning workloads.
    double mem_per_instr =
        static_cast<double>(p.memOps()) /
        static_cast<double>(p.instructions());
    EXPECT_LT(mem_per_instr, 0.05);
    EXPECT_GT(p.bubbleCycles, 0u);
}

TEST(WorkloadSignatures, SparkHasIdleGapsAndPhases)
{
    auto w = makeWorkload("spark", 0, 1);
    StreamProfile p = profileStream(*w);
    EXPECT_GT(p.idleCycles, 0u); // task-scheduling gaps (util < 100%)
    EXPECT_GT(p.dependentLoads, 0u);
    EXPECT_GT(p.stores, 0u);
}

TEST(WorkloadSignatures, HpcKernelsAreStreamTagged)
{
    for (const char *id : {"bwaves", "milc", "soplex", "wrf"}) {
        auto w = makeWorkload(id, 0, 1);
        StreamProfile p = profileStream(*w, 50'000);
        // Most accesses belong to prefetchable streams.
        EXPECT_GT(p.streamTagged, p.memOps() / 2) << id;
    }
}

TEST(WorkloadSignatures, EnterpriseIsDependentHeavy)
{
    for (const char *id : {"oltp", "web_caching", "virtualization"}) {
        auto w = makeWorkload(id, 0, 1);
        StreamProfile p = profileStream(*w);
        double dep_frac = static_cast<double>(p.dependentLoads) /
                          static_cast<double>(p.loads);
        EXPECT_GT(dep_frac, 0.25) << id;
    }
}

TEST(WorkloadSignatures, WebCachingIdlesHalfTheTime)
{
    auto w = makeWorkload("web_caching", 0, 1);
    StreamProfile p = profileStream(*w);
    EXPECT_GT(p.idleCycles, 0u);
}

TEST(LatencyChecker, ProbeChasesDependently)
{
    LatencyCheckerConfig cfg;
    cfg.role = MlcRole::LatencyProbe;
    LatencyCheckerWorkload w(cfg);
    StreamProfile p = profileStream(w, 10'000);
    EXPECT_EQ(p.dependentLoads, p.loads);
    EXPECT_EQ(p.ntStores, 0u);
}

TEST(LatencyChecker, GeneratorHonorsMixAndDelay)
{
    LatencyCheckerConfig cfg;
    cfg.role = MlcRole::BandwidthGen;
    cfg.readFraction = 0.67;
    cfg.delayCycles = 32;
    LatencyCheckerWorkload w(cfg);
    StreamProfile p = profileStream(w, 30'000);
    double reads = static_cast<double>(p.loads);
    double writes = static_cast<double>(p.ntStores);
    EXPECT_NEAR(reads / (reads + writes), 0.67, 0.03);
    EXPECT_EQ(p.dependentLoads, 0u);
    EXPECT_GT(p.bubbleCycles, 0u);
}

/** Both MLC roles, with a write mix and an injected delay. */
class MlcRuns : public ::testing::TestWithParam<MlcRole>
{
};

TEST_P(MlcRuns, RunsMatchNextAndMeetTheMinimumLength)
{
    for (std::uint32_t delay : {0u, 32u}) {
        LatencyCheckerConfig cfg;
        cfg.role = GetParam();
        cfg.seed = 917;
        cfg.readFraction = 0.67;
        cfg.delayCycles = delay;
        LatencyCheckerWorkload runs(cfg);
        LatencyCheckerWorkload twin(cfg);
        const std::vector<std::size_t> lengths =
            expectRunsMatchNext(runs, twin, 20'000);
        ASSERT_FALSE(lengths.empty());
        EXPECT_GE(lengths.back(), Workload::kMinRunOps);
    }
}

INSTANTIATE_TEST_SUITE_P(
    BothRoles, MlcRuns,
    ::testing::Values(MlcRole::LatencyProbe, MlcRole::BandwidthGen),
    [](const auto &p) {
        return p.param == MlcRole::LatencyProbe ? "probe" : "generator";
    });

/**
 * A stream that ends: @p units three-op units, then a generateBatch()
 * that returns false, after pushing one last op when @p tail is set
 * (the final partial batch the end-of-stream protocol hands out).
 */
class FiniteWorkload final : public Workload
{
  public:
    FiniteWorkload(int units_in, bool tail_in)
        : Workload("finite", 3), units(units_in), tail(tail_in)
    {
    }

    int calls = 0; ///< generateBatch() calls so far

  protected:
    bool
    generateBatch() override
    {
        ++calls;
        if (emitted == units) {
            if (tail)
                pushLoad(sim::Addr{1} << 30, true, 0);
            return false;
        }
        const sim::Addr addr = sim::Addr{64} * static_cast<sim::Addr>(emitted);
        pushLoad(addr, false, 1);
        pushCompute(static_cast<std::uint32_t>(emitted) + 1);
        pushStore(addr, 2);
        ++emitted;
        return true;
    }

  private:
    int units;
    bool tail;
    int emitted = 0;
};

TEST(WorkloadRuns, EndOfStreamHandsOutTheTailThenZeroForever)
{
    for (int units : {0, 1, 21, 22, 100}) {
        for (bool tail : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << units << " units, tail " << tail);
            FiniteWorkload runs(units, tail);
            FiniteWorkload twin(units, tail);
            const std::vector<std::size_t> lengths =
                expectRunsMatchNext(runs, twin, 1'000'000);
            std::size_t total = 0;
            for (std::size_t n : lengths)
                total += n;
            EXPECT_EQ(total, static_cast<std::size_t>(3 * units) +
                                 (tail ? 1u : 0u));
            // The end latches: no further generateBatch() calls, and
            // every later call returns 0 (next() returns false).
            const int calls = runs.calls;
            const sim::MicroOp *run = nullptr;
            EXPECT_EQ(runs.acquireRun(&run), 0u);
            EXPECT_EQ(runs.acquireRun(&run), 0u);
            sim::MicroOp op;
            EXPECT_FALSE(runs.next(op));
            EXPECT_EQ(runs.calls, calls);
        }
    }
}

TEST(Layout, RegionsAreDisjointAndAligned)
{
    AddressSpace arena(sim::Addr{1} << 40);
    Region a = arena.allocate("a", 100);
    Region b = arena.allocate("b", 5'000'000);
    EXPECT_GE(b.base, a.base + a.bytes);
    EXPECT_EQ(a.bytes % (2ULL << 20), 0u);
    EXPECT_EQ(arena.regions().size(), 2u);
    EXPECT_THROW(arena.allocate("bad", 0), ConfigError);
    EXPECT_THROW(a.lineAddr(a.lines()), LogicError);
}

} // anonymous namespace
} // namespace memsense::workloads
