/**
 * @file
 * Error handling primitives for memsense.
 *
 * Follows the gem5 fatal()/panic() distinction: a ConfigError is the
 * user's fault (bad configuration or arguments) and is recoverable by
 * fixing the input; a LogicError indicates a bug inside the library and
 * should never be observed by a correct program.
 */

#ifndef MEMSENSE_UTIL_ERROR_HH
#define MEMSENSE_UTIL_ERROR_HH

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace memsense
{

/** Raised when a user-supplied configuration or argument is invalid. */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(const std::string &what_arg)
        : std::runtime_error("memsense config error: " + what_arg)
    {}
};

/** Raised when an internal invariant is violated (a library bug). */
class LogicError : public std::logic_error
{
  public:
    explicit LogicError(const std::string &what_arg)
        : std::logic_error("memsense internal error: " + what_arg)
    {}
};

/**
 * Raised for conditions that are expected to clear on a repeat attempt
 * with the same inputs refreshed: an iterative calculation that ran out
 * of budget, a filesystem hiccup, an injected fault. This is the
 * *retryable* class of the failure taxonomy (docs/robustness.md): the
 * retry layer in util/retry.hh re-runs TransientErrors under its
 * backoff policy and treats everything else — ConfigError (the input
 * is wrong; retrying cannot fix it) and LogicError/ContractViolation
 * (the library is wrong) — as fatal.
 */
class TransientError : public std::runtime_error
{
  public:
    explicit TransientError(const std::string &what_arg)
        : std::runtime_error("memsense transient error: " + what_arg)
    {}

    /** Stable subclass tag for failure manifests ("TransientError",
     *  "FaultInjected", ...). */
    virtual const char *kind() const { return "TransientError"; }
};

/**
 * Throw a ConfigError unless @p cond holds.
 *
 * The message is a view so a literal costs nothing on the passing
 * path; the std::string is built only when throwing. Hot-path callers
 * pass literals and never a concatenation (docs/performance.md).
 *
 * @param cond condition that must be true for the configuration to be valid
 * @param msg  human-readable description of the requirement
 */
inline void
requireConfig(bool cond, std::string_view msg)
{
    if (!cond)
        throw ConfigError(std::string(msg));
}

/**
 * Throw a LogicError unless the invariant @p cond holds.
 *
 * @param cond invariant that must hold
 * @param msg  description of the violated invariant (built into the
 *             thrown text only on failure, as for requireConfig)
 * @param loc  call site, captured automatically
 */
inline void
requireInvariant(bool cond, std::string_view msg,
                 std::source_location loc = std::source_location::current())
{
    if (!cond) {
        throw LogicError(std::string(loc.file_name()) + ":" +
                         std::to_string(loc.line()) + ": " +
                         std::string(msg));
    }
}

} // namespace memsense

#endif // MEMSENSE_UTIL_ERROR_HH
