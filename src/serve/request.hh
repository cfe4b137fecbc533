/**
 * @file
 * Request/response schema of the batch evaluation service.
 *
 * One request is one JSON object per line (JSON-lines):
 *
 *     {"id": "r1",
 *      "workload": {"class": "bigdata", "cpi_cache": 0.95, "bf": 0.34,
 *                   "mpki": 10.5, "wbr": 0.4, "iopi": 0, "io_bytes": 0,
 *                   "name": "custom"},
 *      "platform": {"cores": 8, "smt": 2, "ghz": 2.7, "channels": 4,
 *                   "speed_mts": 1866.7, "efficiency": 0.7,
 *                   "latency_ns": 75}}
 *
 * Every field is optional. The workload starts from the paper's class
 * means (`class`: bigdata | enterprise | hpc, default bigdata) and
 * explicit fields override; the platform starts from the paper's
 * Sec. VI baseline. A missing "id" defaults to "line-<n>".
 *
 * One result is one JSON object per line, in request order:
 *
 *     {"id": "r1", "ok": true, "op": {"cpi_eff": ..,
 *      "miss_penalty_ns": .., "queuing_delay_ns": ..,
 *      "bw_per_core_bps": .., "bw_total_bps": .., "utilization": ..,
 *      "bandwidth_bound": false, "iterations": 31}}
 *     {"id": "r2", "ok": false, "error": {"type": "ConfigError",
 *      "message": "...", "fatal": true, "attempts": 1}}
 *
 * Doubles are serialized with "%.17g" (round-trip exact), so a result
 * stream is byte-stable across worker counts and cache temperature;
 * deliberately, no field of a result line depends on cache state.
 */

#ifndef MEMSENSE_SERVE_REQUEST_HH
#define MEMSENSE_SERVE_REQUEST_HH

#include <string>

#include "measure/resilience.hh"
#include "model/solver.hh"

namespace memsense::serve
{

/** One parsed evaluation request. */
struct EvalRequest
{
    std::string id;                ///< echoed into the result line
    model::WorkloadParams workload;
    model::Platform platform;
    /** Optional per-request deadline budget from the moment the server
     *  admits the line ("deadline_ms" field); 0 = none. The batch
     *  service ignores it — deadlines are a serving concern. */
    double deadlineMs = 0.0;
    /** Request opts out of degraded coarse-fingerprint answers under
     *  overload even when the server allows them ("allow_stale":
     *  false); default is to accept whatever the server offers. */
    bool allowStale = true;
};

/** One evaluation outcome, paired with the request id. */
struct EvalOutcome
{
    std::string id;
    measure::JobResult<model::OperatingPoint> result;
    /** Served from cache (diagnostic only — never serialized, so the
     *  result stream stays identical between cold and warm runs). */
    bool cacheHit = false;
    /** Answered from the coarse-fingerprint stale cache under
     *  overload. Serialized as `"degraded":true` only when set, so
     *  the batch path's result lines are byte-identical to before. */
    bool degraded = false;
};

/**
 * Parse one JSON-lines request. @p line_number seeds the default id
 * ("line-<n>", 1-based). Throws ConfigError on malformed input or
 * out-of-domain parameters.
 */
EvalRequest parseRequestLine(const std::string &line,
                             std::size_t line_number);

/** Serialize one outcome as its JSON result line (no newline). */
std::string resultLine(const EvalOutcome &outcome);

/** Append resultLine(@p outcome) to @p out without a temporary. */
void appendResultLine(std::string &out, const EvalOutcome &outcome);

/**
 * Build the result line for a request that never parsed: same error
 * shape as a failed solve, with attempts = 0.
 */
std::string parseErrorLine(std::size_t line_number,
                           const std::string &message);

/**
 * Like parseErrorLine, but with an explicit error @p type and
 * retryability — the service uses it to surface non-ConfigError parse
 * failures (e.g. injected faults) as per-line results.
 */
std::string parseErrorLine(std::size_t line_number,
                           const std::string &type,
                           const std::string &message, bool fatal);

/**
 * One typed error reply for the serving path: `{"id":..., "ok":false,
 * "error":{"type":<type>,...}}`. The server's admission/deadline
 * machinery replies with types `overloaded`, `deadline_exceeded`, and
 * `internal` (docs/serving.md); @p fatal says whether a retry of the
 * same request could succeed (false for overload/deadline).
 */
std::string errorReplyLine(const std::string &id, const std::string &type,
                           const std::string &message, bool fatal);

} // namespace memsense::serve

#endif // MEMSENSE_SERVE_REQUEST_HH
