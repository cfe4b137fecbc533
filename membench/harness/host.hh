/**
 * @file
 * Host record and process helpers: what machine and build produced a
 * result, and the child-process and /proc plumbing the benchmark uses
 * to start the server, time set-up, and read CPU time and peak memory.
 */

#ifndef MEMBENCH_HOST_HH
#define MEMBENCH_HOST_HH

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace membench
{

/** Monotonic nanoseconds (steady_clock, shared by all processes). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Where and how a result was produced. */
struct HostRecord
{
    unsigned nproc = 0;
    std::string cpuModel;
    std::string compiler;
    std::string buildType;
    std::string commit;       ///< from MEMBENCH_COMMIT, else "unknown"
    std::string sourceDigest; ///< from MEMBENCH_SOURCE_DIGEST
    /** Share of the host's CPU time stolen by the hypervisor during the
     *  run (/proc/stat), the main source of noise on shared VMs. */
    double stealFrac = 0.0;

    /** One JSON object. */
    std::string toJson() const;
};

/** Describe this host and build. */
HostRecord hostRecord();

/** System-wide CPU ticks from /proc/stat: all states, and stolen. */
struct CpuTicks
{
    unsigned long long total = 0;
    unsigned long long steal = 0;
};

/** Read the aggregate "cpu" line of /proc/stat (zeros if unreadable). */
CpuTicks systemCpuTicks();

/**
 * Directory for the run's own files (sockets, server stats, traces):
 * .bench_build/run under the working directory, created on demand.
 */
std::string scratchDir();

/** Absolute path of the running executable. */
std::string selfExe();

/** A started child process whose stdout+stderr feed one pipe. */
struct Child
{
    pid_t pid = -1;
    int outFd = -1; ///< read end of the child's stdout/stderr pipe
};

/** Start @p argv[0] with @p argv; throws std::runtime_error. */
Child spawnChild(const std::vector<std::string> &argv);

/**
 * Read the child's output until a line containing @p marker arrives
 * (returns that line) or @p timeout_ms passes (returns "").
 */
std::string readUntil(int fd, const std::string &marker, int timeout_ms);

/** Read whatever the child writes until EOF or @p timeout_ms. */
std::string drainOutput(int fd, int timeout_ms);

/**
 * Wait for @p pid to exit, killing it after @p timeout_ms. Returns the
 * exit status (128 + signal for a signalled child, -1 on error).
 */
int waitChild(pid_t pid, int timeout_ms);

/** User + system CPU seconds of process @p pid (/proc/<pid>/stat). */
double processCpuSeconds(pid_t pid);

/** Peak resident set of process @p pid in MiB (VmHWM). */
double peakRssMb(pid_t pid);

} // namespace membench

#endif // MEMBENCH_HOST_HH
