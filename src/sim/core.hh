/**
 * @file
 * The simulated core: consumes a micro-op stream and produces timing.
 *
 * The core abstracts a superscalar pipeline the way the paper's model
 * does: compute instructions retire at the issue width; loads and
 * stores walk a private L1/L2 and the shared LLC; LLC misses occupy
 * MSHRs (the MLP limit) and either overlap with execution (independent
 * misses) or stall the core until fill (dependent misses, i.e. pointer
 * chases). The measured blocking factor of a workload *emerges* from
 * its dependent-load fraction, the MSHR count, and prefetch coverage.
 */

#ifndef MEMSENSE_SIM_CORE_HH
#define MEMSENSE_SIM_CORE_HH

#include <cstdint>
#include <vector>

#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/memctrl.hh"
#include "sim/microop.hh"
#include "sim/prefetcher.hh"
#include "util/units.hh"

namespace memsense::sim
{

/** Per-core performance counters (the PMU facade). */
struct CoreCounters
{
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t ntStores = 0;
    std::uint64_t llcDemandMisses = 0;   ///< demand lines fetched
    std::uint64_t llcPrefetchFetches = 0;///< prefetch lines fetched
    Picos dramLatencyTotal = 0; ///< summed DRAM latency, demand+prefetch
    std::uint64_t writebacks = 0;        ///< dirty LLC evictions +
                                         ///< non-temporal stores
    Picos busyTime = 0;  ///< non-idle core time
    Picos idleTime = 0;  ///< halted (Idle op) time
    Picos mshrStall = 0; ///< time stalled on MSHR exhaustion
    Picos depStall = 0;  ///< time stalled on dependent misses
    Picos robStall = 0;  ///< time stalled running ahead of in-flight
                         ///< independent loads

    /** All lines this core fetched from DRAM (MPI numerator). */
    std::uint64_t memoryFetches() const
    {
        return llcDemandMisses + llcPrefetchFetches;
    }

    /** Average DRAM latency over this core's fetches, in ns. */
    double avgMissPenaltyNs() const
    {
        std::uint64_t f = memoryFetches();
        return f ? picosToNs(dramLatencyTotal) / static_cast<double>(f)
                 : 0.0;
    }

    /** Misses (demand + prefetch) per kilo-instruction. */
    double mpki() const
    {
        return instructions ? 1000.0 *
                                  static_cast<double>(memoryFetches()) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }

    /** Writebacks per miss (the paper's WBR). */
    double wbr() const
    {
        std::uint64_t f = memoryFetches();
        return f ? static_cast<double>(writebacks) /
                       static_cast<double>(f)
                 : 0.0;
    }
};

/**
 * One simulated core with private L1D and L2.
 *
 * Owned and driven by Machine; runUntil() advances local time by
 * consuming ops. The shared LLC and memory controller are borrowed
 * references owned by the Machine.
 */
class SimCore
{
  public:
    /**
     * @param id      core index (diagnostics)
     * @param mc      machine configuration (core + cache geometry)
     * @param llc     shared last-level cache (borrowed)
     * @param mem     memory controller (borrowed)
     * @param arena   optional bump allocator backing the private
     *                cache arrays (borrowed; must outlive the core)
     */
    SimCore(int id, const MachineConfig &mc, SetAssocCache &llc,
            MemoryController &mem, util::Arena *arena = nullptr);

    /** Attach the op stream to execute (borrowed; must outlive runs). */
    void bind(OpStream &stream)
    {
        ops = &stream;
        // Drop any run acquired from a previously bound stream.
        opRun = nullptr;
        opPos = opCount = 0;
    }

    /** Local core time. */
    Picos now() const { return timePs; }

    /**
     * Execute ops until local time reaches @p until or the stream
     * ends.
     *
     * @return false when the stream ended
     */
    bool runUntil(Picos until);

    /** True once the bound stream has ended. */
    bool done() const { return streamEnded; }

    /** True when an op stream is bound to this core. */
    bool hasStream() const { return ops != nullptr; }

    /** Counter accessor. */
    const CoreCounters &counters() const { return ctrs; }

    /** Reset counters (not caches or time). */
    void clearCounters() { ctrs = CoreCounters{}; }

    /** Private L1 stats (tests). */
    const SetAssocCache &l1() const { return l1d; }

    /** Private L2 stats (tests). */
    const SetAssocCache &l2() const { return l2c; }

    /** Prefetcher stats (tests). */
    const StridePrefetcher &prefetcher() const { return pf; }

    /** The core's clock. */
    // memsense-lint: allow(no-nondeterminism): simulated Clock, not wall time
    const Clock &clock() const { return clk; }

  private:
    /**
     * How many ops ahead of the op being applied runUntil() prefetches
     * the L2 and LLC set blocks of a load or store, so that the host
     * fetches a tag array while earlier ops execute.
     */
    static constexpr std::size_t kPrefetchAhead = 8;

    /**
     * Host-prefetch the private L2 and shared LLC set blocks that
     * @p op's access will scan (a no-op for ops without one). A hint
     * only; see SetAssocCache::prefetchSet().
     */
    [[gnu::always_inline]] void prefetchSets(const MicroOp &op) const
    {
        if (op.kind == OpKind::Load || op.kind == OpKind::Store) {
            const Addr line = op.addr >> kLineShift;
            l2c.prefetchSet(line);
            llc.prefetchSet(line);
        }
    }

    /** Advance local time by a (possibly fractional) cycle count. */
    void advanceCycles(double cycles);

    /** Handle one op. */
    void apply(const MicroOp &op);

    /** Load/store path; returns after timing is charged. */
    void access(const MicroOp &op, bool is_write);

    /**
     * Charge the wait for a line whose data arrives at @p fill_time:
     * dependent consumers wait for the data itself, independent ones
     * stall only past the ROB run-ahead window.
     */
    void waitForFill(Picos fill_time, bool dependent);

    /** Fetch a line from DRAM, allocating through the hierarchy. */
    void fetchLine(Addr line, bool is_write, bool dependent,
                   std::uint16_t stream_id);

    /** Issue prefetches triggered by a demand miss. */
    void maybePrefetch(std::uint16_t stream_id, Addr line);

    /** Install a line into LLC/L2/L1, routing dirty victims. */
    void installLine(Addr line, bool is_write, Picos fill_time);

    /** Install into L2 (and L1), cascading dirty victims outward. */
    void installIntoL2(Addr line, bool is_write, Picos fill_time);

    /** Install into L1, cascading dirty victims outward. */
    void installIntoL1(Addr line, bool is_write, Picos fill_time);

    /** Reclaim completed MSHRs; stall if all are busy. */
    void reserveMshr();

    /** Pop every MSHR whose miss has completed by now. */
    void reclaimMshrs();

    int id;
    const MachineConfig &mc;
    Clock clk;
    SetAssocCache l1d;
    SetAssocCache l2c;
    SetAssocCache &llc;
    MemoryController &mem;
    StridePrefetcher pf;
    OpStream *ops = nullptr;
    bool streamEnded = false;

    /**
     * Current op run: runUntil() acquires runs from the stream (one
     * virtual acquireRun() per run instead of one next() per op) and
     * consumes them in place. Ops left over when a quantum deadline
     * hits are consumed by the next quantum, so the executed sequence
     * is exactly the stream's sequence.
     */
    const MicroOp *opRun = nullptr;
    std::size_t opPos = 0;   ///< next unconsumed op in opRun
    std::size_t opCount = 0; ///< valid ops in opRun

    Picos timePs = 0;
    double carryPs = 0.0; ///< sub-picosecond accumulation
    double issueCostPs;   ///< per-instruction issue time
    double issueCyclesPerOp = 0.0; ///< 1/issueWidth, hoisted from the
                                   ///< per-access path in apply()
    /**
     * True when issueWidth is a power of two (the common 2/4/8
     * configs): division by it is exact, so `count * (1/width)`
     * is bit-identical to `count / width` and saves an FP divide on
     * every Compute op. Non-power-of-two widths keep the divide.
     */
    bool issueDivExact = false;
    Picos robWindowPs;    ///< run-ahead slack for independent loads
    /** Outstanding miss completion times, a min-heap (earliest at
     *  front(), ordered by std::greater). */
    std::vector<Picos> mshrBusy;
    std::vector<Picos> pfBusy;   ///< outstanding prefetch completions
    std::vector<Addr> pfCandidates; ///< scratch for prefetch candidates
    CoreCounters ctrs;
};

} // namespace memsense::sim

#endif // MEMSENSE_SIM_CORE_HH
