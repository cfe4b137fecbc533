/**
 * @file
 * Per-job fault tolerance for the sweep engine.
 *
 * Every job of a sweep runs under the retry taxonomy of util/retry.hh
 * and settles as a JobResult: either the value, or a FailureRecord
 * describing why it failed (error type, message, attempts, deadline
 * state) together with the original exception. What happens next is
 * the sweep's policy, set by ResilienceConfig:
 *
 *  - strict (no knob set, the default): every job runs once, and
 *    after all jobs settle the lowest-index failure's original
 *    exception is rethrown, so one bad point aborts the sweep;
 *  - fault-tolerant (any knob set): failing jobs are retried, then
 *    quarantined, and the sweep completes with the failures in a
 *    machine-readable FailureManifest next to the results, so one
 *    non-converging point does not discard hours of completed
 *    simulations.
 *
 * Determinism: job values do not depend on the policy, and retry
 * backoff is seeded per job index, so for a given fault pattern the
 * outcome vector is independent of worker count and scheduling.
 */

#ifndef MEMSENSE_MEASURE_RESILIENCE_HH
#define MEMSENSE_MEASURE_RESILIENCE_HH

#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "util/retry.hh"
#include "util/trace.hh"

namespace memsense::measure
{

/** Why one job failed instead of returning a value. */
struct FailureRecord
{
    std::size_t jobIndex = 0; ///< input-order index of the job
    std::string context;      ///< caller-filled job description
    std::string errorType;    ///< stable tag ("FaultInjected", ...)
    std::string message;      ///< what() of the final error
    int attempts = 0;         ///< attempts made before quarantine
    bool timedOut = false;    ///< deadline exceeded, retries cut short
    bool fatal = false;       ///< classified fatal: never retried
    double elapsedMs = 0.0;   ///< wall clock spent on the job
};

/** Outcome of one job: a value or a failure. */
template <typename T>
struct JobResult
{
    std::optional<T> value;
    std::optional<FailureRecord> failure;
    /** The failed job's original exception (the strict policy
     *  rethrows it); null for a value. */
    std::exception_ptr error;
    /** Attempts used (0 when the value was restored from a journal). */
    int attempts = 0;

    bool ok() const { return value.has_value(); }
};

/**
 * Machine-readable account of everything a sweep quarantined.
 * An empty manifest means the sweep completed cleanly.
 */
struct FailureManifest
{
    std::vector<FailureRecord> failures;

    bool empty() const { return failures.empty(); }

    /** Collect the failure records out of a JobResult vector. */
    template <typename T>
    static FailureManifest
    collect(const std::vector<JobResult<T>> &results)
    {
        FailureManifest m;
        for (const auto &r : results) {
            if (!r.ok() && r.failure)
                m.failures.push_back(*r.failure);
        }
        return m;
    }

    /** Merge another manifest's records into this one. */
    void merge(const FailureManifest &other);

    /** One human line: "3 of 128 jobs quarantined (2 retryable, ...)". */
    std::string summary(std::size_t total_jobs) const;

    /** JSON document for tooling (schema in docs/robustness.md). */
    std::string toJson() const;
};

/**
 * The strict policy: rethrow the original exception of the
 * lowest-index failed job, if any. Called once every job has settled,
 * so no worker is ever abandoned mid-simulation.
 */
template <typename T>
void
rethrowFirstFailure(const std::vector<JobResult<T>> &results)
{
    for (const auto &r : results) {
        if (r.error)
            std::rethrow_exception(r.error);
    }
}

/**
 * Engine knobs for one sweep.
 *
 * The deadline is cooperative: a job is never killed mid-simulation
 * (that would tear simulator state); instead the elapsed wall clock is
 * checked between attempts, and a job over its deadline is quarantined
 * as timed out instead of being retried further. nowMs/sleepMs are
 * injectable so tests can drive a virtual clock.
 */
struct ResilienceOptions
{
    RetryPolicy retry;          ///< attempt budget + backoff schedule
    double jobTimeoutMs = 0.0;  ///< per-job deadline; 0 = unlimited
    std::function<double()> nowMs;       ///< clock; default steady_clock
    std::function<void(double)> sleepMs; ///< backoff sleeper; default real
};

/**
 * User-facing resilience knobs, as wired through the bench CLI
 * (--max-retries, --job-timeout-ms, --checkpoint).
 */
struct ResilienceConfig
{
    /** Extra attempts after the first; 0 disables retry. */
    int maxRetries = 0;
    /** Cooperative per-job deadline in wall-clock ms; 0 = unlimited. */
    double jobTimeoutMs = 0.0;
    /** Append-only journal path; empty disables checkpointing. */
    std::string checkpointPath;

    /** True when any knob is set: the sweep quarantines failures
     *  instead of rethrowing the first one (the strict policy). */
    bool enabled() const
    {
        return maxRetries > 0 || jobTimeoutMs > 0.0 ||
               !checkpointPath.empty();
    }

    /** Lower to engine options (retry budget = maxRetries + 1). */
    ResilienceOptions toOptions() const;
};

namespace detail
{

/** Monotonic wall clock in ms (the default ResilienceOptions::nowMs). */
double steadyNowMs();

/**
 * Run one job, with its retries, under one `measure.job` span. Never
 * throws: every exception ends up classified in the returned
 * JobResult. @p stream is the retry-jitter stream, conventionally the
 * job's input index.
 */
template <typename T, typename Fn>
JobResult<T>
runJob(Fn &fn, std::size_t stream, const ResilienceOptions &opts)
{
    auto now_ms = [&opts]() {
        return opts.nowMs ? opts.nowMs() : steadyNowMs();
    };
    JobResult<T> out;
    MS_TRACE_SPAN("measure.job");
    MS_METRIC_COUNT("measure.jobs_run");
    const double start_ms = now_ms();
    std::exception_ptr last_error;
    bool timed_out = false;
    bool fatal = false;
    for (;;) {
        ++out.attempts;
        if (out.attempts > 1)
            MS_METRIC_COUNT("measure.job_retries");
        try {
            out.value.emplace(fn(stream));
            return out;
        } catch (...) {
            last_error = std::current_exception();
        }
        fatal = classifyException(last_error) == ErrorClass::Fatal;
        if (fatal)
            break;
        if (opts.jobTimeoutMs > 0.0 &&
            now_ms() - start_ms >= opts.jobTimeoutMs) {
            timed_out = true;
            break;
        }
        if (out.attempts >= opts.retry.maxAttempts)
            break;
        const double wait_ms =
            opts.retry.delayMs(out.attempts + 1,
                               static_cast<std::uint64_t>(stream));
        if (opts.sleepMs)
            opts.sleepMs(wait_ms);
        else
            sleepForMs(wait_ms);
    }
    MS_METRIC_COUNT("measure.jobs_quarantined");
    if (timed_out)
        MS_METRIC_COUNT("measure.jobs_timed_out");
    const ExceptionInfo info = describeException(last_error);
    FailureRecord rec;
    rec.jobIndex = stream;
    rec.errorType = info.type;
    rec.message = info.message;
    rec.attempts = out.attempts;
    rec.timedOut = timed_out;
    rec.fatal = fatal;
    rec.elapsedMs = now_ms() - start_ms;
    out.failure = std::move(rec);
    out.error = std::move(last_error);
    return out;
}

} // namespace detail

} // namespace memsense::measure

#endif // MEMSENSE_MEASURE_RESILIENCE_HH
