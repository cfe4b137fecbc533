/**
 * @file
 * Allocation guard on the serve hot paths.
 *
 * This binary replaces the global operator new with a counting one, so
 * a test can assert how many heap allocations a call makes. A warm
 * model::Solver::solve on a valid request must make none, serializing
 * an ok reply must make at most one (the reply string), a cache miss
 * must allocate only its cache entry (one list node, one index node),
 * decoding a request line must allocate only an id too long to keep
 * inline, and an armed telemetry site must allocate only on its first
 * use.
 * Contract messages built eagerly on the passing path (a concatenation
 * handed to requireConfig, a std::string parameter bound to a literal)
 * show up here as allocations long before they show up in a profile.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "model/paper_data.hh"
#include "model/solver.hh"
#include "serve/evaluator.hh"
#include "serve/request.hh"
#include "util/trace.hh"

namespace
{

/** Allocations made by the current thread since it started. */
thread_local std::size_t tAllocations = 0;

} // anonymous namespace

void *
operator new(std::size_t size)
{
    ++tAllocations;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace memsense
{
namespace
{

/** Heap allocations @p fn makes on this thread. */
template <typename Fn>
std::size_t
allocationsOf(Fn &&fn)
{
    const std::size_t before = tAllocations;
    fn();
    return tAllocations - before;
}

TEST(AllocationGuard, CounterSeesAllocations)
{
    // The guard below is only meaningful if the replacement is live.
    EXPECT_GE(allocationsOf([] {
                  std::string s(64, 'x');
                  EXPECT_EQ(s.size(), 64u);
              }),
              1u);
}

TEST(AllocationGuard, WarmSolveAllocatesNothing)
{
    model::Solver solver;
    model::Platform base = model::Platform::paperBaseline();
    model::Platform narrow = base;
    narrow.memory.channels = 1; // pushes HPC into the bandwidth regime
    int bandwidth_bound = 0;
    for (const auto &p : model::paper::classParams()) {
        for (const model::Platform &plat : {base, narrow}) {
            solver.solve(p, plat); // warm: first-use statics, if any
            model::OperatingPoint op;
            EXPECT_EQ(allocationsOf([&] { op = solver.solve(p, plat); }),
                      0u)
                << p.name << " at " << plat.memory.channels
                << " channels";
            bandwidth_bound += op.bandwidthBound ? 1 : 0;
        }
    }
    // Both regimes (Eq. 1 and Eq. 4) ran allocation-free.
    EXPECT_GT(bandwidth_bound, 0);
    EXPECT_LT(bandwidth_bound, 6);
}

TEST(AllocationGuard, OkReplySerializesInOneAllocation)
{
    model::Solver solver;
    serve::EvalOutcome outcome;
    // Longer than any small-string buffer, so the id is really copied.
    outcome.id = "sweep-000123-latency_ns-0045";
    outcome.result.attempts = 1;
    outcome.result.value.emplace(solver.solve(
        model::paper::classParams(model::WorkloadClass::BigData),
        model::Platform::paperBaseline()));
    std::string line;
    EXPECT_LE(allocationsOf([&] { line = serve::resultLine(outcome); }), 1u);
    EXPECT_EQ(line.rfind("{\"id\":\"sweep-000123-latency_ns-0045\"", 0), 0u)
        << line;
}

/** A sweep point as clients send it: a class preset and six platform
 *  fields, under the id @p id. */
std::string
sweepPointLine(const std::string &id)
{
    return "{\"id\":\"" + id +
           "\",\"workload\":{\"class\":\"hpc\"},\"platform\":{"
           "\"cores\":8,\"smt\":2,\"ghz\":2.7,\"channels\":4,"
           "\"speed_mts\":1866.7,\"latency_ns\":75}}";
}

/** Heap allocations of decoding @p line into a request with id
 *  @p id, after one warm-up decode (the class preset table). */
std::size_t
decodeAllocations(const std::string &line, const std::string &id)
{
    serve::parseRequestLine(line, 1);
    serve::EvalRequest req;
    const std::size_t allocations =
        allocationsOf([&] { req = serve::parseRequestLine(line, 1); });
    EXPECT_EQ(req.id, id);
    EXPECT_EQ(req.workload.cls, model::WorkloadClass::Hpc);
    EXPECT_EQ(req.platform.memory.channels, 4);
    return allocations;
}

TEST(AllocationGuard, RequestDecodeAllocatesOnlyTheLongId)
{
    // The decoder writes fields straight into the request: the only
    // heap block is the id, which outgrows the small-string buffer. A
    // parsed document, a member array, or an error message built on
    // the passing path each break this bound.
    const std::string id = "sweep-000123-latency_ns"; // 23 bytes
    EXPECT_LE(decodeAllocations(sweepPointLine(id), id), 1u);
}

TEST(AllocationGuard, RequestDecodeWithAShortIdAllocatesNothing)
{
    const std::string id = "h-000123-lat-ns"; // 15 bytes: fits inline
    EXPECT_EQ(decodeAllocations(sweepPointLine(id), id), 0u);
}

/** A cold request: the HPC class at @p n ns of compulsory latency. */
serve::EvalRequest
coldRequest(int n)
{
    serve::EvalRequest req;
    req.id = "r" + std::to_string(n % 1000);
    req.workload = model::paper::classParams(model::WorkloadClass::Hpc);
    req.platform = model::Platform::paperBaseline();
    req.platform.memory.compulsoryNs = 50.0 + 0.25 * n;
    return req;
}

/** Options for a one-shard cache of 16 entries. */
serve::EvaluatorOptions
smallCache()
{
    serve::EvaluatorOptions opts;
    opts.cache = {.capacity = 16, .shards = 1};
    return opts;
}

/** Fill @p eval's cache past capacity, so each further miss evicts one
 *  entry and inserts one: the index never rehashes again. */
void
fillCache(const serve::Evaluator &eval, int &next)
{
    for (int i = 0; i < 32; ++i) {
        const serve::EvalRequest req = coldRequest(next++);
        eval.solve(req.workload, req.platform);
    }
}

TEST(AllocationGuard, SolveMissAllocatesOnlyItsCacheEntry)
{
    int next = 0;
    const serve::Evaluator eval(model::Solver(), smallCache());
    fillCache(eval, next);
    for (int i = 0; i < 8; ++i) {
        const serve::EvalRequest req = coldRequest(next++);
        // One list node and one index node; the key lives inline.
        EXPECT_LE(allocationsOf([&] {
                      eval.solve(req.workload, req.platform);
                  }),
                  2u)
            << "miss " << i;
        // The hit that follows allocates nothing.
        EXPECT_EQ(allocationsOf([&] {
                      eval.solve(req.workload, req.platform);
                  }),
                  0u)
            << "hit " << i;
    }
    EXPECT_EQ(eval.cacheStats().size, 16u);
}

TEST(AllocationGuard, BatchMissesAllocateOnlyTheirCacheEntries)
{
    int next = 0;
    const serve::Evaluator eval(model::Solver(), smallCache());
    fillCache(eval, next);
    auto batchOf = [&next] {
        std::vector<serve::EvalRequest> batch;
        for (int i = 0; i < 16; ++i)
            batch.push_back(coldRequest(next++));
        return batch;
    };
    eval.evaluateBatch(batchOf()); // warm: first-use statics, if any
    const std::vector<serve::EvalRequest> batch = batchOf();
    std::vector<serve::EvalOutcome> outcomes;
    const std::size_t allocations =
        allocationsOf([&] { outcomes = eval.evaluateBatch(batch); });
    // Per unique miss: its cache entry's two nodes; the dedup scratch
    // lives in the batch arena. Per batch: the outcome vector, the
    // unique-index vector, the arena's block and block list, and the
    // parallel executor's two result vectors.
    constexpr std::size_t kPerBatch = 6;
    EXPECT_LE(allocations, 2 * batch.size() + kPerBatch);
    ASSERT_EQ(outcomes.size(), batch.size());
    for (const serve::EvalOutcome &o : outcomes) {
        EXPECT_TRUE(o.result.ok());
        EXPECT_FALSE(o.cacheHit);
    }
}

TEST(AllocationGuard, ArmedTelemetrySitesAllocateOnlyOnFirstUse)
{
    trace::resetForTest();
    trace::setStatsEnabled(true);
    // Names longer than any small-string buffer, as real sites have.
    auto count = [] { MS_METRIC_COUNT("serve.cache.misses.long-name"); };
    auto observe = [] {
        MS_METRIC_OBSERVE("solver.iterations_per_solve", 30.0);
    };
    auto span = [] { MS_TRACE_SPAN("measure.job_attempt.long-name"); };
    count();
    observe();
    span();
    EXPECT_EQ(allocationsOf(count), 0u);
    EXPECT_EQ(allocationsOf(observe), 0u);
    EXPECT_EQ(allocationsOf(span), 0u);
    EXPECT_EQ(trace::counterTotals()["serve.cache.misses.long-name"], 2u);
    EXPECT_EQ(trace::valueStats()["solver.iterations_per_solve"].count,
              2u);
    EXPECT_EQ(trace::spanStats()["measure.job_attempt.long-name"].count,
              2u);
    trace::resetForTest();
}

} // anonymous namespace
} // namespace memsense
