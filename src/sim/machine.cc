#include "sim/machine.hh"

#include <algorithm>
#include <limits>

#include "util/error.hh"

namespace memsense::sim
{

MachineSnapshot
MachineSnapshot::operator-(const MachineSnapshot &earlier) const
{
    MachineSnapshot d;
    d.time = time - earlier.time;
    d.instructions = instructions - earlier.instructions;
    d.busyTime = busyTime - earlier.busyTime;
    d.idleTime = idleTime - earlier.idleTime;
    d.memoryFetches = memoryFetches - earlier.memoryFetches;
    d.dramLatencyTotal = dramLatencyTotal - earlier.dramLatencyTotal;
    d.writebacks = writebacks - earlier.writebacks;
    d.dramBytesRead = dramBytesRead - earlier.dramBytesRead;
    d.dramBytesWritten = dramBytesWritten - earlier.dramBytesWritten;
    d.busBusy = busBusy - earlier.busBusy;
    d.ioBytes = ioBytes - earlier.ioBytes;
    return d;
}

double
MachineSnapshot::cpi(double ghz) const
{
    MS_REQUIRE(ghz > 0.0, "core frequency ", ghz, " GHz must be positive");
    if (instructions == 0)
        return 0.0;
    double cycles = picosToNs(busyTime) * ghz;
    return cycles / static_cast<double>(instructions);
}

double
MachineSnapshot::mpki() const
{
    if (instructions == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(memoryFetches) /
           static_cast<double>(instructions);
}

double
MachineSnapshot::avgMissPenaltyNs() const
{
    if (memoryFetches == 0)
        return 0.0;
    return picosToNs(dramLatencyTotal) /
           static_cast<double>(memoryFetches);
}

double
MachineSnapshot::wbr() const
{
    if (memoryFetches == 0)
        return 0.0;
    return static_cast<double>(writebacks) /
           static_cast<double>(memoryFetches);
}

double
MachineSnapshot::dramBandwidth() const
{
    if (time == 0)
        return 0.0;
    double seconds = static_cast<double>(time) * 1e-12;
    return (dramBytesRead + dramBytesWritten) / seconds;
}

double
MachineSnapshot::cpuUtilization() const
{
    Picos total = busyTime + idleTime;
    if (total == 0)
        return 0.0;
    return static_cast<double>(busyTime) / static_cast<double>(total);
}

namespace
{

/** Shared-LLC geometry scaled to the machine's core count. */
CacheConfig
scaledLlc(const MachineConfig &cfg)
{
    CacheConfig llc = cfg.llcPerCore;
    llc.sizeBytes = cfg.llcTotalBytes();
    return llc;
}

} // anonymous namespace

Machine::Machine(const MachineConfig &config)
    : cfg(config), mem(config.dram, &arena),
      sharedLlc("llc", scaledLlc(config), config.seed * 31, &arena)
{
    cfg.validate();
    if (cfg.prefillLlc)
        sharedLlc.prefill();
    cores.reserve(static_cast<std::size_t>(cfg.cores));
    for (int i = 0; i < cfg.cores; ++i)
        // memsense-lint: allow(no-hot-loop-alloc): construction-time
        // loop, reserved to the core count two lines above
        cores.push_back(
            std::make_unique<SimCore>(i, cfg, sharedLlc, mem, &arena));
    // ~256 core cycles of cross-agent skew: small vs. DRAM latency.
    quantum = Clock(cfg.core.ghz).toPicos(256);
}

void
Machine::bind(int core_idx, OpStream &stream)
{
    requireConfig(core_idx >= 0 && core_idx < coreCount(),
                  "core index out of range");
    cores[static_cast<std::size_t>(core_idx)]->bind(stream);
}

void
Machine::setIo(const IoConfig &io_cfg)
{
    io.emplace(io_cfg, mem);
}

bool
Machine::runFor(Picos duration)
{
    const Picos end = currentTime + duration;
    constexpr Picos kInf = std::numeric_limits<Picos>::max();

    for (;;) {
        // Pick the laggard agent still below the deadline.
        SimCore *next_core = nullptr;
        Picos min_time = kInf;
        for (auto &c : cores) {
            if (c->done() || !c->hasStream())
                continue;
            if (c->now() < min_time) {
                min_time = c->now();
                next_core = c.get();
            }
        }
        bool io_next = io && io->enabled() && io->now() < min_time;
        if (io_next)
            min_time = io->now();

        if (min_time >= end)
            break;

        Picos target = std::min(min_time + quantum, end);
        if (io_next)
            io->runUntil(target);
        else if (next_core)
            next_core->runUntil(target);
        else
            break; // every core done; nothing left to advance
    }

    currentTime = end;
    bool any_alive = false;
    for (auto &c : cores)
        if (c->hasStream() && !c->done())
            any_alive = true;
    return any_alive;
}

MachineSnapshot
Machine::snapshot() const
{
    MachineSnapshot s;
    s.time = currentTime;
    for (const auto &c : cores) {
        const CoreCounters &k = c->counters();
        s.instructions += k.instructions;
        s.busyTime += k.busyTime;
        s.idleTime += k.idleTime;
        s.memoryFetches += k.memoryFetches();
        s.dramLatencyTotal += k.dramLatencyTotal;
        s.writebacks += k.writebacks;
    }
    s.dramBytesRead = mem.stats().bytesRead();
    s.dramBytesWritten = mem.stats().bytesWritten();
    for (std::uint32_t ch = 0; ch < mem.channels(); ++ch)
        s.busBusy += mem.channelStats(ch).busBusy;
    if (io)
        s.ioBytes = io->counters().bytesRead + io->counters().bytesWritten;
    return s;
}

SimCore &
Machine::core(int i)
{
    requireConfig(i >= 0 && i < coreCount(), "core index out of range");
    return *cores[static_cast<std::size_t>(i)];
}

const SimCore &
Machine::core(int i) const
{
    requireConfig(i >= 0 && i < coreCount(), "core index out of range");
    return *cores[static_cast<std::size_t>(i)];
}

} // namespace memsense::sim
