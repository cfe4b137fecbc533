/**
 * @file
 * Memoizing batch evaluator: the serving layer's solve engine.
 *
 * An Evaluator owns one analytic Solver and one sharded LRU cache of
 * its operating points, keyed on the binary request key
 * (model/fingerprint.hh). It serves two call shapes:
 *
 *  - SolveEngine::solve(): a drop-in for model::Solver anywhere an
 *    analyzer or report builder takes a SolveEngine — repeated
 *    operating points (sweep baselines, bisection probes) come out of
 *    the cache instead of re-running the fixed point.
 *
 *  - evaluateBatch(): many requests at once. Requests are keyed,
 *    probed and deduplicated serially in input order, the
 *    unique misses fan out over the parallel experiment engine
 *    (measure::ParallelExecutor::mapSettled), and results
 *    are assembled back in input order with per-request error capture
 *    — one bad request quarantines as a FailureRecord, the rest of
 *    the batch completes.
 *
 * Determinism: the cache probe, dedupe, and insert passes are serial
 * and in input order; only the unique solves run concurrently, and the
 * solver is deterministic. The outcome vector and the serve.cache.*
 * counters are therefore identical for any worker count. Failed solves
 * are never cached (a transient fault must not poison later batches).
 *
 * Thread-safety: solve() and evaluateBatch() may both be called
 * concurrently (all mutable state is the shard-locked cache plus
 * locals). Note that concurrent batches interleave their cache-counter
 * updates, so the counter *sequence* is only deterministic for callers
 * that serialize their batches (the batch CLI does; the server's
 * workers deliberately do not).
 */

#ifndef MEMSENSE_SERVE_EVALUATOR_HH
#define MEMSENSE_SERVE_EVALUATOR_HH

#include <optional>
#include <vector>

#include "measure/parallel.hh"
#include "model/fingerprint.hh"
#include "serve/cache.hh"
#include "serve/request.hh"

namespace memsense::serve
{

/** Tuning knobs of one Evaluator. */
struct EvaluatorOptions
{
    CacheOptions cache;      ///< LRU capacity + shard count
    int jobs = 1;            ///< batch worker threads (<=0: hardware)
    /** Per-job retry/timeout policy for batch solves. The analytic
     *  solver is deterministic, so retries only matter under fault
     *  injection; the default single attempt avoids pointless
     *  re-solves of deterministic failures. */
    measure::ResilienceOptions resilience = singleAttempt();

    /** The default resilience policy: one attempt, no deadline. */
    static measure::ResilienceOptions
    singleAttempt()
    {
        measure::ResilienceOptions o;
        o.retry.maxAttempts = 1;
        return o;
    }
};

/** Memoizing solve engine (see file comment). */
class Evaluator : public model::SolveEngine
{
  public:
    explicit Evaluator(model::Solver solver_in = model::Solver(),
                       EvaluatorOptions opts = {});

    /** Cached single solve; throws exactly like Solver::solve. */
    model::OperatingPoint solve(const model::WorkloadParams &p,
                                const model::Platform &plat)
        const override;

    /**
     * Cache probe only: a verified hit (refreshing recency) or
     * nullopt, never a solve. The server's reader threads use this as
     * the admission fast path — a hit is answered inline and consumes
     * no queue slot, which is what "shed cold solves first" means.
     */
    std::optional<model::OperatingPoint>
    probe(const model::RequestKey &key) const;

    /** probe() of model::requestKey(@p p, @p plat). */
    std::optional<model::OperatingPoint>
    probe(const model::WorkloadParams &p,
          const model::Platform &plat) const;

    /**
     * Cached solve with a cooperative cancellation hook (probe, then
     * Solver::solve(p, plat, cancel), then insert). A cancelled or
     * failed solve caches nothing. Throws model::SolveCancelled when
     * @p cancel fires — the server maps that to `deadline_exceeded`.
     */
    model::OperatingPoint
    solveCancellable(const model::WorkloadParams &p,
                     const model::Platform &plat,
                     const model::CancelCheck &cancel) const;

    /**
     * Evaluate a batch (see file comment). Outcomes are returned in
     * request order; failures are captured per request, never thrown.
     *
     * @p cancels is either empty (no cancellation) or exactly one
     * cooperative cancellation hook per request, polled by the solver
     * between bisection iterations. Requests that deduplicate onto one
     * shared solve share the hook of the request that *introduced* the
     * solve, so callers coalescing requests with different deadlines
     * should pass the group's most permissive hook (the server does:
     * a dedup group is cancelled only when every member's deadline has
     * expired). A cancelled solve quarantines as a FailureRecord of
     * type SolveCancelled and caches nothing.
     */
    std::vector<EvalOutcome>
    evaluateBatch(const std::vector<EvalRequest> &requests,
                  const std::vector<model::CancelCheck> &cancels = {})
        const;

    /** Cache counters (hits/misses/evictions/collisions/size). */
    CacheStats cacheStats() const { return cache.stats(); }

    /** The wrapped analytic solver. */
    const model::Solver &solver() const { return analyticSolver; }

  private:
    model::Solver analyticSolver;
    EvaluatorOptions options;
    /** mutable: the cache is the memo table of a conceptually const
     *  solve — recency/counters updates do not change any result. */
    mutable ShardedLruCache cache;
};

} // namespace memsense::serve

#endif // MEMSENSE_SERVE_EVALUATOR_HH
