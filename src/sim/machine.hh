/**
 * @file
 * The simulated machine: cores, shared LLC, memory controller, and an
 * optional I/O injector, advanced by a bounded-skew event loop.
 *
 * The loop repeatedly picks the agent (core or injector) with the
 * smallest local time and advances it by one quantum; agents interact
 * only through the LLC and the DRAM resource model, so a quantum of a
 * few hundred cycles bounds cross-agent timestamp skew without a
 * per-event global heap.
 */

#ifndef MEMSENSE_SIM_MACHINE_HH
#define MEMSENSE_SIM_MACHINE_HH

#include <memory>
#include <optional>
#include <vector>

#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/core.hh"
#include "sim/io.hh"
#include "sim/memctrl.hh"
#include "util/arena.hh"
#include "util/contract.hh"

namespace memsense::sim
{

/** Aggregated machine counters at an instant (for interval sampling). */
struct MachineSnapshot
{
    Picos time = 0;              ///< machine time of the snapshot
    std::uint64_t instructions = 0;
    Picos busyTime = 0;          ///< summed non-idle core time
    Picos idleTime = 0;          ///< summed halted core time
    std::uint64_t memoryFetches = 0; ///< demand + prefetch line reads
    Picos dramLatencyTotal = 0;  ///< summed core-observed DRAM latency
    std::uint64_t writebacks = 0;
    double dramBytesRead = 0.0;  ///< all DRAM reads (cores + IO)
    double dramBytesWritten = 0.0;
    Picos busBusy = 0;           ///< summed channel bus occupancy
    double ioBytes = 0.0;        ///< injected DMA bytes

    /** Difference of two snapshots (this - earlier). */
    MachineSnapshot operator-(const MachineSnapshot &earlier) const;

    /** Effective CPI over the busy (non-halted) interval. */
    double cpi(double ghz) const;

    /** Misses (demand + prefetch) per kilo-instruction. */
    double mpki() const;

    /** Average miss penalty in ns. */
    double avgMissPenaltyNs() const;

    /** Average miss penalty in core cycles at @p ghz. */
    double avgMissPenaltyCycles(double ghz) const
    {
        MS_REQUIRE(ghz > 0.0, "core frequency ", ghz,
                   " GHz must be positive");
        return avgMissPenaltyNs() * ghz;
    }

    /** Writebacks per miss (WBR). */
    double wbr() const;

    /** Total DRAM bandwidth over the interval, bytes/second. */
    double dramBandwidth() const;

    /** CPU (non-halt) utilization of the interval. */
    double cpuUtilization() const;
};

/** The simulated machine. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg);

    // The machine owns cores holding references to its LLC/controller;
    // moving would dangle them.
    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Attach @p stream to core @p core_idx (borrowed reference). */
    void bind(int core_idx, OpStream &stream);

    /** Enable the DMA injector. */
    void setIo(const IoConfig &io_cfg);

    /**
     * Advance the machine by @p duration of simulated time.
     *
     * @return false when every bound stream ended before the deadline
     */
    bool runFor(Picos duration);

    /** Current machine time (the run deadline reached so far). */
    Picos now() const { return currentTime; }

    /** Aggregate counters for interval sampling. */
    MachineSnapshot snapshot() const;

    /** Core accessor. */
    SimCore &core(int i);
    const SimCore &core(int i) const;

    /** Number of cores. */
    int coreCount() const { return static_cast<int>(cores.size()); }

    /** Memory controller accessor. */
    MemoryController &memctrl() { return mem; }
    const MemoryController &memctrl() const { return mem; }

    /** Shared LLC accessor. */
    SetAssocCache &llc() { return sharedLlc; }
    const SetAssocCache &llc() const { return sharedLlc; }

    /** Configuration in use. */
    const MachineConfig &config() const { return cfg; }

  private:
    MachineConfig cfg;
    /**
     * Bump allocator backing the hot per-access state (cache way
     * arrays, write rings). Declared before its consumers so it is
     * destroyed last; one arena per Machine keeps its blocks local to
     * the sweep worker that owns the Machine.
     */
    util::Arena arena;
    MemoryController mem;
    SetAssocCache sharedLlc;
    std::vector<std::unique_ptr<SimCore>> cores;
    std::optional<IoInjector> io;
    Picos currentTime = 0;
    Picos quantum;
};

} // namespace memsense::sim

#endif // MEMSENSE_SIM_MACHINE_HH
