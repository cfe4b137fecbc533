#include "workloads/workload.hh"

#include <algorithm>

#include "util/contract.hh"
#include "util/error.hh"

namespace memsense::workloads
{

Workload::Workload(std::string name, std::uint64_t seed)
    : rng(seed), _name(std::move(name))
{
}

bool
Workload::next(sim::MicroOp &op)
{
    while (pos >= buf.size()) {
        if (ended)
            return false;
        buf.clear();
        pos = 0;
        if (!generateBatch()) {
            ended = true;
            if (buf.empty())
                return false;
        }
        MS_INVARIANT(ended || !buf.empty(),
                     _name, ": generateBatch produced no ops");
    }
    op = buf[pos++];
    return true;
}

std::size_t
Workload::acquireRun(const sim::MicroOp **run)
{
    // Drop what earlier runs or next() consumed, then generate units
    // until the run is long enough. A false generateBatch() may still
    // have pushed a final partial batch; after it, nothing more is
    // generated.
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(pos));
    pos = 0;
    while (!ended && buf.size() < kMinRunOps) {
        const std::size_t before = buf.size();
        if (!generateBatch())
            ended = true;
        MS_INVARIANT(ended || buf.size() > before,
                     _name, ": generateBatch produced no ops");
    }
    *run = buf.data();
    pos = buf.size();
    return pos;
}

void
Workload::pushCompute(std::uint32_t instructions)
{
    if (instructions == 0)
        return;
    sim::MicroOp &op = buf.emplace_back();
    op.kind = sim::OpKind::Compute;
    op.count = instructions;
}

void
Workload::pushBubble(std::uint32_t cycles)
{
    if (cycles == 0)
        return;
    sim::MicroOp &op = buf.emplace_back();
    op.kind = sim::OpKind::Bubble;
    op.count = cycles;
}

void
Workload::pushIdle(std::uint32_t cycles)
{
    if (cycles == 0)
        return;
    sim::MicroOp &op = buf.emplace_back();
    op.kind = sim::OpKind::Idle;
    op.count = cycles;
}

void
Workload::pushLoad(sim::Addr addr, bool dependent, std::uint16_t stream)
{
    sim::MicroOp &op = buf.emplace_back();
    op.kind = sim::OpKind::Load;
    op.addr = addr;
    op.dependent = dependent;
    op.stream = stream;
}

void
Workload::pushStore(sim::Addr addr, std::uint16_t stream)
{
    sim::MicroOp &op = buf.emplace_back();
    op.kind = sim::OpKind::Store;
    op.addr = addr;
    op.stream = stream;
}

void
Workload::pushNtStore(sim::Addr addr)
{
    sim::MicroOp &op = buf.emplace_back();
    op.kind = sim::OpKind::NtStore;
    op.addr = addr;
}

} // namespace memsense::workloads
