#include "sim/core.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/contract.hh"
#include "util/error.hh"

namespace memsense::sim
{

SimCore::SimCore(int id_in, const MachineConfig &machine_cfg,
                 SetAssocCache &shared_llc, MemoryController &memctrl,
                 util::Arena *arena)
    : id(id_in), mc(machine_cfg), clk(machine_cfg.core.ghz),
      l1d("core" + std::to_string(id_in) + ".l1d", machine_cfg.l1d,
          machine_cfg.seed * 7919 + static_cast<std::uint64_t>(id_in),
          arena),
      l2c("core" + std::to_string(id_in) + ".l2", machine_cfg.l2,
          machine_cfg.seed * 104729 + static_cast<std::uint64_t>(id_in),
          arena),
      llc(shared_llc), mem(memctrl), pf(machine_cfg.core.prefetcher)
{
    issueCostPs = static_cast<double>(clk.periodPs()) /
                  mc.core.issueWidth;
    // Hoisted out of the per-access path: apply() charges one issue
    // slot per load/store, and recomputing 1/width there puts an FP
    // divide on every memory access of every sweep worker. Cached as
    // the identical expression so timing is bit-for-bit unchanged.
    issueCyclesPerOp = 1.0 / mc.core.issueWidth;
    {
        int exp = 0;
        // memsense-lint: allow(float-equal): frexp of a power of two
        // returns exactly 0.5 — an exact-sentinel check by design
        issueDivExact = std::frexp(mc.core.issueWidth, &exp) == 0.5;
    }
    robWindowPs = clk.toPicos(mc.core.robWindowCycles);
    mshrBusy.reserve(mc.core.mshrs);
    pfBusy.reserve(mc.core.prefetcher.maxOutstanding);
}

void
SimCore::advanceCycles(double cycles)
{
    // A negative advance would drive carryPs below zero, and casting a
    // negative double to the unsigned Picos type is undefined behavior.
    MS_REQUIRE(cycles >= 0.0,
               "cannot advance the core clock backwards: ", cycles);
    carryPs += cycles * static_cast<double>(clk.periodPs());
    auto whole = static_cast<Picos>(carryPs);
    timePs += whole;
    carryPs -= static_cast<double>(whole);
}

bool
SimCore::runUntil(Picos until)
{
    if (streamEnded) {
        timePs = std::max(timePs, until);
        return false;
    }
    MS_REQUIRE(ops != nullptr, "core has no bound op stream");
    while (timePs < until) {
        if (opPos == opCount) {
            opCount = ops->acquireRun(&opRun);
            opPos = 0;
            if (opCount == 0) {
                streamEnded = true;
                return false;
            }
            // Prime the look-ahead window: the loop below prefetches
            // kPrefetchAhead ops ahead, which skips a run's first ops.
            for (std::size_t i = 0; i < std::min(kPrefetchAhead, opCount);
                 ++i)
                prefetchSets(opRun[i]);
        }
        if (opPos + kPrefetchAhead < opCount)
            prefetchSets(opRun[opPos + kPrefetchAhead]);
        apply(opRun[opPos++]);
    }
    return true;
}

void
SimCore::apply(const MicroOp &op)
{
    const Picos before = timePs;
    switch (op.kind) {
      case OpKind::Compute:
        advanceCycles(issueDivExact
                          ? static_cast<double>(op.count) * issueCyclesPerOp
                          : static_cast<double>(op.count) /
                                mc.core.issueWidth);
        ctrs.instructions += op.count;
        break;
      case OpKind::Bubble:
        advanceCycles(static_cast<double>(op.count));
        break;
      case OpKind::Idle:
        advanceCycles(static_cast<double>(op.count));
        break;
      case OpKind::Load:
        advanceCycles(issueCyclesPerOp);
        ++ctrs.instructions;
        ++ctrs.loads;
        access(op, false);
        break;
      case OpKind::Store:
        advanceCycles(issueCyclesPerOp);
        ++ctrs.instructions;
        ++ctrs.stores;
        access(op, true);
        break;
      case OpKind::NtStore:
        advanceCycles(issueCyclesPerOp);
        ++ctrs.instructions;
        ++ctrs.ntStores;
        ++ctrs.writebacks;
        mem.write(op.addr >> kLineShift, timePs);
        break;
    }
    const Picos delta = timePs - before;
    if (op.kind == OpKind::Idle)
        ctrs.idleTime += delta;
    else
        ctrs.busyTime += delta;
}

void
SimCore::waitForFill(Picos fill_time, bool dependent)
{
    if (dependent) {
        // Dependent consumers wait for the data itself.
        if (fill_time > timePs) {
            ctrs.depStall += fill_time - timePs;
            timePs = fill_time;
            carryPs = 0.0;
        }
        return;
    }
    // Independent consumers can run ahead, but only as far as the
    // ROB/LSQ window; beyond that the core stalls on the in-flight
    // line. This is what throttles prefetch-covered streams to the
    // memory system's service rate.
    if (fill_time > timePs + robWindowPs) {
        Picos target = fill_time - robWindowPs;
        ctrs.robStall += target - timePs;
        timePs = target;
        carryPs = 0.0;
    }
}

void
SimCore::access(const MicroOp &op, bool is_write)
{
    const Addr line = op.addr >> kLineShift;
    const bool dependent = op.dependent && !is_write;

    const bool waits = !is_write; // stores are buffered, never wait

    LookupResult r1 = l1d.lookup(line, is_write, timePs);
    if (r1.hit) {
        if (waits)
            waitForFill(r1.fillTime, dependent);
        return;
    }

    LookupResult r2 = l2c.lookup(line, is_write, timePs);
    if (r2.hit) {
        if (dependent)
            advanceCycles(mc.l2.hitLatencyCycles);
        if (waits)
            waitForFill(r2.fillTime, dependent);
        installIntoL1(line, is_write, r2.fillTime);
        return;
    }

    LookupResult r3 = llc.lookup(line, is_write, timePs);
    if (r3.hit) {
        if (dependent)
            advanceCycles(mc.llcPerCore.hitLatencyCycles);
        if (waits)
            waitForFill(r3.fillTime, dependent);
        installIntoL2(line, is_write, r3.fillTime);
        // First demand touch of a prefetched line keeps the streamer
        // running ahead of the consumption point.
        if (r3.firstPrefetchTouch && !is_write)
            maybePrefetch(op.stream, line);
        return;
    }

    fetchLine(line, is_write, dependent, op.stream);
}

void
SimCore::fetchLine(Addr line, bool is_write, bool dependent,
                   std::uint16_t stream_id)
{
    ++ctrs.llcDemandMisses;
    reserveMshr();

    const Picos issue = timePs;
    const Picos completion = mem.read(line, issue);
    ctrs.dramLatencyTotal += completion - issue;

    installLine(line, is_write, completion);

    if (dependent) {
        ctrs.depStall += completion - timePs;
        timePs = completion;
        carryPs = 0.0;
    } else {
        // Independent misses overlap through the MSHRs; reserveMshr()
        // above is the MLP throttle.
        mshrBusy.push_back(completion);
        std::push_heap(mshrBusy.begin(), mshrBusy.end(),
                       std::greater<Picos>{});
    }

    // Train the prefetcher on demand reads only; stores rarely train
    // hardware prefetchers and training on them double-counts streams.
    if (!is_write)
        maybePrefetch(stream_id, line);
}

void
SimCore::maybePrefetch(std::uint16_t stream_id, Addr line)
{
    pfCandidates.clear();
    pf.observeMiss(stream_id, line, pfCandidates);
    for (Addr cand : pfCandidates) {
        // Bound in-flight prefetches; drop excess candidates (real
        // prefetchers throttle under memory pressure too).
        for (std::size_t i = 0; i < pfBusy.size();) {
            if (pfBusy[i] <= timePs) {
                pfBusy[i] = pfBusy.back();
                pfBusy.pop_back();
            } else {
                ++i;
            }
        }
        if (pfBusy.size() >= mc.core.prefetcher.maxOutstanding)
            break;
        if (llc.contains(cand))
            continue;
        ++ctrs.llcPrefetchFetches;
        const Picos completion = mem.read(cand, timePs);
        ctrs.dramLatencyTotal += completion - timePs;
        // memsense-lint: allow(no-hot-loop-alloc): capacity reserved
        // to maxOutstanding in the ctor, and the loop breaks at that
        // bound above — the push never grows
        pfBusy.push_back(completion);
        Victim v = llc.insert(cand, false, completion, true);
        if (v.valid && v.dirty) {
            mem.write(v.lineAddr, timePs);
            ++ctrs.writebacks;
        }
    }
}

void
SimCore::installLine(Addr line, bool is_write, Picos fill_time)
{
    Victim v = llc.fillAfterMiss(line, false, fill_time);
    if (v.valid && v.dirty) {
        mem.write(v.lineAddr, timePs);
        ++ctrs.writebacks;
    }
    installIntoL2(line, is_write, fill_time);
}

void
SimCore::installIntoL2(Addr line, bool is_write, Picos fill_time)
{
    Victim v = l2c.fillAfterMiss(line, false, fill_time);
    if (v.valid && v.dirty) {
        // Writeback into the LLC; allocate there if it was evicted
        // (one fused scan: dirty-mark when present, install when not).
        Victim lv = llc.writebackInsert(v.lineAddr, timePs);
        if (lv.valid && lv.dirty) {
            mem.write(lv.lineAddr, timePs);
            ++ctrs.writebacks;
        }
    }
    installIntoL1(line, is_write, fill_time);
}

void
SimCore::installIntoL1(Addr line, bool is_write, Picos fill_time)
{
    Victim v = l1d.fillAfterMiss(line, is_write, fill_time);
    if (v.valid && v.dirty) {
        // Writeback into the L2; allocate there if it was evicted
        // (fused scans, cascading outward as victims stay dirty).
        Victim lv = l2c.writebackInsert(v.lineAddr, timePs);
        if (lv.valid && lv.dirty) {
            Victim llv = llc.writebackInsert(lv.lineAddr, timePs);
            if (llv.valid && llv.dirty) {
                mem.write(llv.lineAddr, timePs);
                ++ctrs.writebacks;
            }
        }
    }
}

void
SimCore::reclaimMshrs()
{
    while (!mshrBusy.empty() && mshrBusy.front() <= timePs) {
        std::pop_heap(mshrBusy.begin(), mshrBusy.end(),
                      std::greater<Picos>{});
        mshrBusy.pop_back();
    }
}

void
SimCore::reserveMshr()
{
    // mshrBusy's front is the earliest completion, so popping from
    // the front frees exactly the entries that have completed, and a
    // stall waits for the earliest one; no entry is ever scanned.
    reclaimMshrs();
    if (mshrBusy.size() < mc.core.mshrs)
        return;

    // All MSHRs busy: stall until the earliest completes.
    ctrs.mshrStall += mshrBusy.front() - timePs;
    timePs = mshrBusy.front();
    carryPs = 0.0;
    reclaimMshrs();
}

} // namespace memsense::sim
