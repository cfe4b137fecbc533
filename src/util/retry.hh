/**
 * @file
 * Deterministic retry policy for fault-tolerant sweeps.
 *
 * A sweep job that throws a TransientError (an I/O hiccup, an injected
 * fault) is worth re-running; one that throws a ConfigError or
 * LogicError is not — the input or the library is wrong and every
 * attempt will fail the same way. classifyException() encodes
 * that taxonomy, and retryCall() re-runs a callable under a bounded,
 * seeded-jitter exponential backoff schedule. The schedule is a pure
 * function of (policy, stream, attempt), so a sweep's retry behaviour
 * is reproducible: job i always waits the same sequence of delays no
 * matter which worker runs it or what else the process is doing.
 */

#ifndef MEMSENSE_UTIL_RETRY_HH
#define MEMSENSE_UTIL_RETRY_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>

#include "util/error.hh"

namespace memsense
{

/** Which half of the failure taxonomy an exception belongs to. */
enum class ErrorClass
{
    Retryable, ///< TransientError and subclasses: re-run may succeed
    Fatal,     ///< ConfigError, LogicError, anything else: it will not
};

/** Classify @p ep per the retry taxonomy. @p ep must be non-null. */
ErrorClass classifyException(const std::exception_ptr &ep);

/** Stable (type tag, message) description of an in-flight exception. */
struct ExceptionInfo
{
    std::string type;    ///< "ConfigError", "FaultInjected", ...
    std::string message; ///< what() text (empty for non-std exceptions)
};

/** Describe @p ep for failure manifests. @p ep must be non-null. */
ExceptionInfo describeException(const std::exception_ptr &ep);

/**
 * Bounded-attempt exponential backoff with seeded jitter.
 *
 * The delay before attempt k (k >= 2) is
 *     min(baseDelayMs * multiplier^(k-2), maxDelayMs)
 * scaled by a jitter factor drawn deterministically from
 * (policy.seed, stream, k), uniform in [1 - jitterFrac, 1 + jitterFrac].
 * Passing the job index as @p stream decorrelates the backoff of jobs
 * that fail simultaneously without giving up reproducibility.
 */
struct RetryPolicy
{
    int maxAttempts = 3;        ///< total tries, including the first
    double baseDelayMs = 10.0;  ///< delay before the first re-try
    double multiplier = 2.0;    ///< exponential growth per attempt
    double maxDelayMs = 2000.0; ///< backoff ceiling
    double jitterFrac = 0.25;   ///< +/- fraction of jitter, in [0, 1]
    std::uint64_t seed = 0;     ///< jitter seed

    /** Validate the knobs; throws ConfigError on nonsense. */
    void validate() const;

    /**
     * Backoff delay before attempt @p attempt (2-based: the first
     * attempt never waits) for retry stream @p stream.
     */
    double delayMs(int attempt, std::uint64_t stream) const;
};

/** How a retryCall() ended, for logging and failure records. */
struct RetryDiagnostics
{
    int attempts = 0;          ///< attempts actually made
    double totalBackoffMs = 0.0; ///< sum of the backoff waits
};

/** Block the calling thread for @p delay_ms (the default sleeper). */
void sleepForMs(double delay_ms);

/**
 * Run @p fn under @p policy, retrying TransientErrors.
 *
 * Fatal errors propagate immediately; retryable errors propagate once
 * the attempt budget is exhausted. @p sleep_ms is called with each
 * backoff delay (inject a recorder in tests to avoid real waiting);
 * @p diag, when non-null, receives the attempt/backoff accounting even
 * when the call ultimately throws.
 */
template <typename Fn>
auto
retryCall(const RetryPolicy &policy, std::uint64_t stream, Fn &&fn,
          const std::function<void(double)> &sleep_ms = sleepForMs,
          RetryDiagnostics *diag = nullptr) -> std::invoke_result_t<Fn>
{
    policy.validate();
    RetryDiagnostics local;
    RetryDiagnostics &d = diag ? *diag : local;
    d = {};
    for (;;) {
        ++d.attempts;
        try {
            return fn();
        } catch (...) {
            std::exception_ptr ep = std::current_exception();
            if (classifyException(ep) == ErrorClass::Fatal ||
                d.attempts >= policy.maxAttempts)
                std::rethrow_exception(ep);
            double wait_ms = policy.delayMs(d.attempts + 1, stream);
            d.totalBackoffMs += wait_ms;
            if (sleep_ms)
                sleep_ms(wait_ms);
        }
    }
}

} // namespace memsense

#endif // MEMSENSE_UTIL_RETRY_HH
