/**
 * @file
 * The two serve workloads: memsense_serve with default flags on a
 * Unix-domain socket, driven open loop from two connections at 5k
 * requests/s average. Each burst is one client's design-space sweep of
 * 128 distinct operating points (harness/requests.hh).
 *
 *  - serve_cold: no point is ever repeated, so every request goes
 *    through admission, the queue, a batched Evaluator::evaluateBatch,
 *    Solver::solve and the cache insert.
 *  - serve_hot: points come from a hot set solved during set-up, so
 *    every request is answered inline from the cache on the reader
 *    thread (parse, probe, serialize, write).
 *
 * Set-up (timed several times per run) spawns the server and completes
 * a closed-loop warm-up pass. The measured phase sends on a due-time
 * schedule and times each request from its due time. After the phase,
 * every ok reply is compared byte for byte with serve::resultLine of
 * model::Solver().solve on the same parsed request. Traced runs also
 * replay the run's own request lines on one thread through the serving
 * layers' public functions, with the program's span statistics
 * (util/trace.hh) armed and the benchmark's own spans around the calls
 * the program does not already time.
 */

#ifndef MEMBENCH_SERVE_BENCH_HH
#define MEMBENCH_SERVE_BENCH_HH

#include <string>

#include "harness/report.hh"

namespace membench
{

/** True for serve_cold and serve_hot. */
bool isServeWorkload(const std::string &workload);

/** Run a serve workload (see file comment). */
Result runServeWorkload(const RunInfo &run);

} // namespace membench

#endif // MEMBENCH_SERVE_BENCH_HH
