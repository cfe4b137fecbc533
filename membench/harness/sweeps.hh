/**
 * @file
 * The two sweep workloads: the Fig. 3 frequency-scaling
 * characterization (sweep_fig03) and the Fig. 7 loaded-latency sweep
 * (sweep_fig07), both at the figures' --fast settings on two workers.
 *
 * Untraced runs repeat the public sweep call for the measured phase
 * and check every repeat against the first, the goldens at seed 1,
 * and a serial replay of two grid points at any seed. Traced runs
 * replay every grid point serially from public pieces — the grid,
 * sim::Machine, the workload generators behind a counting OpStream,
 * Machine::runFor, the stats accessors and the fit — with the
 * program's span statistics (util/trace.hh) armed and the benchmark's
 * own spans around those calls, and require the replay to reproduce
 * the sweep bit for bit.
 */

#ifndef MEMBENCH_SWEEPS_HH
#define MEMBENCH_SWEEPS_HH

#include <cstdint>
#include <string>

#include "harness/report.hh"

namespace membench
{

/** True for sweep_fig03 and sweep_fig07. */
bool isSweepWorkload(const std::string &workload);

/** Run a sweep workload (see file comment). */
Result runSweepWorkload(const RunInfo &run);

/**
 * Set-up probe, run in a fresh process: do everything a sweep run
 * does before its sweep call, then print the steady-clock time
 * reached. The parent times spawn-to-sweep-call from it.
 */
int sweepSetupProbe(const std::string &workload, std::uint64_t seed);

} // namespace membench

#endif // MEMBENCH_SWEEPS_HH
