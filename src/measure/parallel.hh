/**
 * @file
 * Deterministic parallel experiment engine.
 *
 * Every sweep in measure/ is a grid of independent, seed-deterministic
 * simulations: each job constructs its own Machine from its own config
 * and seed, so jobs share no mutable state and any execution order
 * yields the same per-job result. ParallelExecutor::mapIndices() is
 * the one job loop: it fans the jobs out over a ThreadPool, runs each
 * under the per-job contract of measure/resilience.hh, and writes
 * result i to output slot i, so the collected vector is bit-identical
 * to the serial loop regardless of completion order. mapSettled() and
 * mapOrdered() are its by-input views; the checkpoint layer
 * (measure/checkpoint.hh) adds journalling and the sweep policy.
 */

#ifndef MEMSENSE_MEASURE_PARALLEL_HH
#define MEMSENSE_MEASURE_PARALLEL_HH

#include <cstddef>
#include <future>
#include <type_traits>
#include <utility>
#include <vector>

#include "measure/resilience.hh"
#include "util/thread_pool.hh"

namespace memsense::measure
{

/**
 * Resolve a user-facing jobs knob: positive counts pass through,
 * 0 or negative means "one worker per hardware thread".
 */
int resolveJobs(int jobs);

/** Maps job vectors to result vectors in deterministic input order. */
class ParallelExecutor
{
  public:
    /**
     * @param jobs worker count; 1 runs jobs inline on the calling
     *             thread (the serial reference path), <= 0 uses the
     *             hardware concurrency.
     */
    explicit ParallelExecutor(int jobs = 1)
        : jobCount(resolveJobs(jobs))
    {}

    /** Effective worker count. */
    int jobs() const { return jobCount; }

    /**
     * Apply @p fn to every element of @p inputs and return the values
     * in input order: the strict policy (one attempt per job) over
     * mapSettled().
     *
     * fn must be invocable on each element concurrently — in practice,
     * each call builds and owns its own Machine/RNG state. If any call
     * throws, the exception of the lowest-indexed failing job is
     * rethrown after all jobs finish (workers are never abandoned
     * mid-simulation).
     */
    template <typename Job, typename Fn>
    auto
    mapOrdered(const std::vector<Job> &inputs, Fn fn) const
        -> std::vector<std::invoke_result_t<Fn, const Job &>>
    {
        auto settled =
            mapSettled(inputs, fn, ResilienceConfig{}.toOptions());
        rethrowFirstFailure(settled);
        std::vector<std::invoke_result_t<Fn, const Job &>> out;
        out.reserve(settled.size());
        for (auto &r : settled)
            out.push_back(std::move(*r.value));
        return out;
    }

    /**
     * Apply @p fn to every input and return one JobResult per input,
     * in input order. Never throws on job failure.
     *
     * A job that throws is retried per @p opts (TransientErrors only,
     * seeded backoff keyed by the job index) and, once fatal, timed
     * out, or out of attempts, settles as a FailureRecord carrying
     * the original exception; collect the records with
     * FailureManifest::collect().
     */
    template <typename Job, typename Fn>
    auto
    mapSettled(const std::vector<Job> &inputs, Fn fn,
               const ResilienceOptions &opts) const
        -> std::vector<JobResult<std::invoke_result_t<Fn, const Job &>>>
    {
        std::vector<std::size_t> indices(inputs.size());
        for (std::size_t i = 0; i < indices.size(); ++i)
            indices[i] = i;
        auto by_index = [&inputs, &fn](std::size_t i) {
            return fn(inputs[i]);
        };
        return mapIndices<std::invoke_result_t<Fn, const Job &>>(
            indices, by_index, opts, [](std::size_t, const auto &) {});
    }

    /**
     * The job loop: run @p fn(index) for each entry of @p indices,
     * returning results ordered like @p indices.
     *
     * The index doubles as the retry-jitter stream, so a checkpoint
     * resume that re-runs a job subset reproduces the uninterrupted
     * run's behaviour exactly. @p on_result fires on the worker thread
     * as soon as each job settles (value or failure) with the
     * *original* index — the checkpoint layer streams journal records
     * from it. on_result must be thread-safe for worker counts > 1 and
     * must not throw.
     */
    template <typename Result, typename Fn, typename OnResult>
    std::vector<JobResult<Result>>
    mapIndices(const std::vector<std::size_t> &indices, Fn fn,
               const ResilienceOptions &opts, OnResult on_result) const
    {
        opts.retry.validate();
        if (jobCount <= 1 || indices.size() <= 1) {
            std::vector<JobResult<Result>> out;
            out.reserve(indices.size());
            for (std::size_t index : indices) {
                out.push_back(detail::runJob<Result>(fn, index, opts));
                on_result(index, out.back());
            }
            return out;
        }

        int workers = jobCount;
        if (static_cast<std::size_t>(workers) > indices.size())
            workers = static_cast<int>(indices.size());
        ThreadPool pool(workers);
        std::vector<std::future<JobResult<Result>>> futures;
        futures.reserve(indices.size());
        for (std::size_t index : indices) {
            futures.push_back(pool.submit([&fn, &opts, &on_result,
                                           index]() {
                JobResult<Result> r =
                    detail::runJob<Result>(fn, index, opts);
                on_result(index, r);
                return r;
            }));
        }

        std::vector<JobResult<Result>> out;
        out.reserve(indices.size());
        for (auto &fut : futures)
            out.push_back(fut.get());
        return out;
    }

  private:
    int jobCount;
};

} // namespace memsense::measure

#endif // MEMSENSE_MEASURE_PARALLEL_HH
