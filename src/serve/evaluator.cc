#include "serve/evaluator.hh"

#include <cstddef>
#include <functional>
#include <unordered_map>
#include <utility>

#include "util/arena.hh"
#include "util/contract.hh"
#include "util/fault_injection.hh"
#include "util/trace.hh"

namespace memsense::serve
{

namespace
{

/** Shared "never cancel" hook — keeps the ternary below reference-safe
 *  (no temporary bound to a const reference). */
const model::CancelCheck kNoCancel{};

/** Hash adapter for the batch's dedup map. */
struct KeyHash
{
    std::size_t operator()(const model::RequestKey &key) const noexcept
    {
        return key.hash();
    }
};

} // anonymous namespace

Evaluator::Evaluator(model::Solver solver_in, EvaluatorOptions opts)
    : analyticSolver(std::move(solver_in)), options(opts),
      cache(opts.cache)
{
    options.resilience.retry.validate();
}

model::OperatingPoint
Evaluator::solve(const model::WorkloadParams &p,
                 const model::Platform &plat) const
{
    return solveCancellable(p, plat, model::CancelCheck{});
}

std::optional<model::OperatingPoint>
Evaluator::probe(const model::RequestKey &key) const
{
    MS_FAULT_POINT("evaluator.probe");
    return cache.lookup(key.hash(), key);
}

std::optional<model::OperatingPoint>
Evaluator::probe(const model::WorkloadParams &p,
                 const model::Platform &plat) const
{
    return probe(model::requestKey(p, plat));
}

model::OperatingPoint
Evaluator::solveCancellable(const model::WorkloadParams &p,
                            const model::Platform &plat,
                            const model::CancelCheck &cancel) const
{
    const model::RequestKey key = model::requestKey(p, plat);
    if (auto hit = probe(key))
        return *hit;
    MS_FAULT_POINT("evaluator.solve");
    model::OperatingPoint op = analyticSolver.solve(p, plat, cancel);
    MS_FAULT_POINT("evaluator.insert");
    cache.insert(key.hash(), key, op);
    return op;
}

std::vector<EvalOutcome>
Evaluator::evaluateBatch(const std::vector<EvalRequest> &requests,
                         const std::vector<model::CancelCheck> &cancels)
    const
{
    MS_TRACE_SPAN("serve.batch");
    MS_METRIC_COUNT_N("serve.batch.requests", requests.size());
    MS_REQUIRE(cancels.empty() || cancels.size() == requests.size(),
               "evaluateBatch cancels must be empty or one per request");

    constexpr std::size_t kNotUnique = static_cast<std::size_t>(-1);

    // Pass 1 (serial, input order): key, probe the cache, and
    // deduplicate the misses. Serial probing keeps the hit/miss/evict
    // counter sequence — and therefore the metrics artifact — identical
    // for every worker count.
    // Batch-local bump arena backs all the dedup scratch: one block
    // allocation serves the whole pass, and everything is freed
    // wholesale when the batch returns. The outcomes vector stays on
    // the heap because it is handed to the caller.
    util::Arena arena;
    // One arena allocator, rebound by each container below.
    const util::ArenaAllocator<std::size_t> scratch(&arena);
    std::vector<EvalOutcome> outcomes(requests.size());
    util::ArenaVector<std::size_t> uniqueOf(requests.size(), kNotUnique,
                                            scratch);
    // Plain vector: handed to ParallelExecutor::mapSettled,
    // whose signature takes std::vector<Job>.
    std::vector<std::size_t> uniqueRequestIndex;
    // Points into uniqueByKey, whose nodes never move.
    util::ArenaVector<const model::RequestKey *> uniqueKey(scratch);
    // Sized for the worst case (every request a unique miss), so it
    // never rehashes: the arena cannot reclaim a regrown bucket array.
    std::unordered_map<
        model::RequestKey, std::size_t, KeyHash, std::equal_to<>,
        util::ArenaAllocator<std::pair<const model::RequestKey, std::size_t>>>
        uniqueByKey(requests.size(), scratch);
    uniqueRequestIndex.reserve(requests.size());
    uniqueKey.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        outcomes[i].id = requests[i].id;
        const model::RequestKey key =
            model::requestKey(requests[i].workload, requests[i].platform);
        // A fault in the probe aborts the whole batch (the probe pass
        // is serial and unprotected by design); the chaos tests assert
        // that the abort is a clean throw, never a crash or a leak.
        if (auto hit = probe(key)) {
            outcomes[i].result.value.emplace(*hit);
            outcomes[i].cacheHit = true;
            continue;
        }
        auto [it, inserted] =
            uniqueByKey.emplace(key, uniqueRequestIndex.size());
        if (inserted) {
            // memsense-lint: allow(no-hot-loop-alloc): reserved to
            // requests.size() above the loop
            uniqueRequestIndex.push_back(i);
            // memsense-lint: allow(no-hot-loop-alloc): reserved above
            uniqueKey.push_back(&it->first);
        }
        uniqueOf[i] = it->second;
    }
    MS_METRIC_COUNT_N("serve.batch.unique_solves",
                      uniqueRequestIndex.size());

    // Pass 2 (parallel): solve each unique miss once. Failures are
    // quarantined per job, never thrown.
    measure::ParallelExecutor executor(options.jobs);
    auto solved = executor.mapSettled(
        uniqueRequestIndex,
        [this, &requests, &cancels](std::size_t request_index) {
            const EvalRequest &req = requests[request_index];
            // Inside the resilient wrapper: an injected fault here is
            // retried or quarantined per request, never thrown out.
            MS_FAULT_POINT("evaluator.solve");
            // The unique solve polls the cancellation hook of the
            // request that introduced it (see the header contract).
            const model::CancelCheck &cancel =
                cancels.empty() ? kNoCancel : cancels[request_index];
            return analyticSolver.solve(req.workload, req.platform,
                                        cancel);
        },
        options.resilience);

    // Pass 3 (serial, unique order): cache the successes. Insert order
    // is fixed, so LRU state and eviction counts are deterministic.
    for (std::size_t u = 0; u < solved.size(); ++u) {
        if (solved[u].ok()) {
            MS_FAULT_POINT("evaluator.insert");
            cache.insert(uniqueKey[u]->hash(), *uniqueKey[u],
                         *solved[u].value);
        }
    }

    // Pass 4 (serial, input order): fan results back out to every
    // request that mapped to each unique solve.
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (uniqueOf[i] == kNotUnique)
            continue; // already served from cache
        const auto &job = solved[uniqueOf[i]];
        outcomes[i].result.attempts = job.attempts;
        if (job.ok()) {
            outcomes[i].result.value.emplace(*job.value);
        } else {
            MS_INVARIANT(job.failure.has_value(),
                         "failed job carries no failure record");
            measure::FailureRecord rec = *job.failure;
            rec.jobIndex = i;
            rec.context = requests[i].id;
            outcomes[i].result.failure.emplace(std::move(rec));
        }
    }
    return outcomes;
}

} // namespace memsense::serve
