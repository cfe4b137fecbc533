/**
 * @file
 * Base class for synthetic workload generators.
 *
 * A Workload is an OpStream that produces micro-ops in batches: the
 * subclass's generateBatch() emits one unit of work (a vector chunk, a
 * transaction, a graph super-step) into the buffer, and next() drains
 * it. All randomness flows through the protected Rng, so a (workload,
 * seed) pair is fully deterministic.
 */

#ifndef MEMSENSE_WORKLOADS_WORKLOAD_HH
#define MEMSENSE_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/microop.hh"
#include "util/rng.hh"

namespace memsense::workloads
{

/** Buffered op-stream base for generators. */
class Workload : public sim::OpStream
{
  public:
    /**
     * @param name workload id for diagnostics
     * @param seed determinism seed (vary per core)
     */
    Workload(std::string name, std::uint64_t seed);

    /** Pop the next op, refilling from generateBatch() as needed. */
    bool next(sim::MicroOp &op) final;

    /**
     * Zero-copy run handout: points @p run into the batch buffer
     * (refilled from generateBatch() as needed) — same sequence
     * next() would produce, without a virtual call or copy per op.
     * A run holds at least kMinRunOps ops unless the stream ends
     * inside it: small units (the MLC agents emit two or three ops)
     * are generated back to back until the run is that long.
     */
    std::size_t acquireRun(const sim::MicroOp **run) final;

    /**
     * Minimum ops per acquireRun() run of a stream that has not
     * ended. Long runs leave the core room to look ahead for host
     * prefetches and spread the per-run cost over many ops; the op
     * sequence itself does not depend on it.
     */
    static constexpr std::size_t kMinRunOps = 64;

    /** Workload id. */
    const std::string &name() const { return _name; }

  protected:
    /**
     * Emit one unit of work via the push helpers. Return false to end
     * the stream (most workloads run forever and return true).
     */
    virtual bool generateBatch() = 0;

    /** @{ Push helpers appending to the batch buffer. */
    void pushCompute(std::uint32_t instructions);
    void pushBubble(std::uint32_t cycles);
    void pushIdle(std::uint32_t cycles);
    void pushLoad(sim::Addr addr, bool dependent, std::uint16_t stream);
    void pushStore(sim::Addr addr, std::uint16_t stream = 0);
    void pushNtStore(sim::Addr addr);
    /** @} */

    Rng rng; ///< deterministic randomness for the generator

  private:
    std::string _name;
    std::vector<sim::MicroOp> buf;
    std::size_t pos = 0;
    bool ended = false;
};

} // namespace memsense::workloads

#endif // MEMSENSE_WORKLOADS_WORKLOAD_HH
