#include "measure/loaded_latency.hh"

#include <algorithm>
#include <memory>
#include <optional>

#include "measure/checkpoint.hh"
#include "sim/machine.hh"
#include "util/error.hh"
#include "util/fault_injection.hh"
#include "util/log.hh"
#include "util/string_util.hh"
#include "workloads/latency_checker.hh"

namespace memsense::measure
{

namespace
{

/** Measure one (delay, mix, speed) point. */
LoadedLatencyPoint
measurePoint(const LoadedLatencySetup &setup, std::uint32_t delay)
{
    MS_FAULT_POINT("loaded_latency.point");
    MS_TRACE_SPAN("loaded_latency.point");
    MS_METRIC_COUNT("loaded_latency.points");
    sim::MachineConfig mc;
    mc.cores = setup.cores;
    mc.core.ghz = setup.ghz;
    // MLC's generator threads keep many more requests in flight than
    // a typical workload; deepen the MSHRs so the sweep can reach the
    // platform's achievable bandwidth.
    mc.core.mshrs = 28;
    mc.dram.channels = setup.channels;
    mc.dram.megaTransfers = setup.memMtPerSec;
    mc.seed = setup.seed;

    sim::Machine machine(mc);
    std::vector<std::unique_ptr<workloads::Workload>> streams;
    for (int c = 0; c < setup.cores; ++c) {
        workloads::LatencyCheckerConfig lc;
        lc.role = (c == 0) ? workloads::MlcRole::LatencyProbe
                           : workloads::MlcRole::BandwidthGen;
        lc.seed = setup.seed * 131 + static_cast<std::uint64_t>(c);
        lc.readFraction = setup.readFraction;
        lc.delayCycles = delay;
        lc.arenaBase = (sim::Addr{1} << 44) +
                       static_cast<sim::Addr>(c) * (sim::Addr{1} << 42);
        streams.push_back(
            std::make_unique<workloads::LatencyCheckerWorkload>(lc));
        machine.bind(c, *streams.back());
    }

    machine.runFor(setup.warmup);
    const sim::CoreCounters probe0 = machine.core(0).counters();
    const sim::MachineSnapshot snap0 = machine.snapshot();

    machine.runFor(setup.measure);
    const sim::CoreCounters probe1 = machine.core(0).counters();
    const sim::MachineSnapshot snap1 = machine.snapshot();
    const sim::MachineSnapshot d = snap1 - snap0;

    const std::uint64_t fetches =
        probe1.memoryFetches() - probe0.memoryFetches();
    requireInvariant(fetches > 0, "latency probe made no fetches");
    const Picos lat =
        probe1.dramLatencyTotal - probe0.dramLatencyTotal;

    LoadedLatencyPoint pt;
    pt.delayCycles = delay;
    pt.latencyNs = picosToNs(lat) / static_cast<double>(fetches);
    pt.bandwidthGBps = d.dramBandwidth() / 1e9;
    return pt;
}

/** Measure one point under the sweep's log scope, with debug trace. */
LoadedLatencyPoint
measurePointLogged(const LoadedLatencySetup &setup, std::uint32_t delay)
{
    LogScope scope(strformat("mlc-%.0f", setup.memMtPerSec));
    LoadedLatencyPoint pt = measurePoint(setup, delay);
    debug(strformat("mlc %g MT/s rf=%.2f delay=%u: %.2f GB/s, %.1f ns",
                    setup.memMtPerSec, setup.readFraction, delay,
                    pt.bandwidthGBps, pt.latencyNs));
    return pt;
}

/** Derive unloaded latency and achievable bandwidth from the points. */
void
finalizeCurve(LoadedLatencyCurve &curve)
{
    curve.unloadedNs = curve.points.front().latencyNs;
    curve.maxBandwidthGBps = 0.0;
    for (const auto &pt : curve.points) {
        curve.unloadedNs = std::min(curve.unloadedNs, pt.latencyNs);
        curve.maxBandwidthGBps =
            std::max(curve.maxBandwidthGBps, pt.bandwidthGBps);
    }
}

/** Bit-exact checkpoint codec for a LoadedLatencyPoint. */
CheckpointCodec<LoadedLatencyPoint>
loadedLatencyPointCodec()
{
    CheckpointCodec<LoadedLatencyPoint> codec;
    codec.encode = [](const LoadedLatencyPoint &pt) {
        return encodeDoubles({static_cast<double>(pt.delayCycles),
                              pt.bandwidthGBps, pt.latencyNs});
    };
    codec.decode =
        [](const std::string &payload) -> std::optional<LoadedLatencyPoint> {
        std::optional<std::vector<double>> decoded = decodeDoubles(payload);
        if (!decoded || decoded->size() != 3)
            return std::nullopt;
        const std::vector<double> &v = *decoded;
        LoadedLatencyPoint pt;
        pt.delayCycles = static_cast<std::uint32_t>(v[0]);
        pt.bandwidthGBps = v[1];
        pt.latencyNs = v[2];
        return pt;
    };
    return codec;
}

/** Stable identity of one sweep for checkpoint-journal validation. */
std::string
loadedLatencyRunKey(const LoadedLatencySetup &setup)
{
    std::vector<double> delays;
    delays.reserve(setup.delayCycles.size());
    for (std::uint32_t d : setup.delayCycles)
        delays.push_back(static_cast<double>(d));
    return checkpointRunKey(strformat(
        "mlc mt=%.6g rf=%.6g cores=%d ch=%d ghz=%.6g seed=%llu "
        "warm=%lld meas=%lld delays=%s",
        setup.memMtPerSec, setup.readFraction, setup.cores,
        setup.channels, setup.ghz,
        static_cast<unsigned long long>(setup.seed),
        static_cast<long long>(setup.warmup),
        static_cast<long long>(setup.measure),
        encodeDoubles(delays).c_str()));
}

} // anonymous namespace

std::vector<stats::CurvePoint>
LoadedLatencyCurve::toQueuingSamples() const
{
    requireConfig(maxBandwidthGBps > 0.0, "curve has no bandwidth points");
    std::vector<stats::CurvePoint> samples;
    samples.reserve(points.size());
    for (const auto &pt : points) {
        stats::CurvePoint s;
        s.x = pt.bandwidthGBps / maxBandwidthGBps;
        s.y = std::max(0.0, pt.latencyNs - unloadedNs);
        samples.push_back(s);
    }
    return samples;
}

LoadedLatencyCurve
sweepLoadedLatency(const LoadedLatencySetup &setup,
                   FailureManifest *manifest)
{
    requireConfig(setup.cores >= 2,
                  "loaded-latency sweep needs a probe and at least one "
                  "bandwidth generator");
    requireConfig(!setup.delayCycles.empty(), "no delay points");

    std::vector<JobResult<LoadedLatencyPoint>> settled = runSweep(
        setup.delayCycles,
        [&setup](const std::uint32_t &delay) {
            return measurePointLogged(setup, delay);
        },
        setup.jobs, setup.resilience, loadedLatencyRunKey(setup),
        loadedLatencyPointCodec(), manifest,
        [&setup](const std::uint32_t &delay) {
            return strformat("mlc mt=%.6g rf=%.2f delay=%u",
                             setup.memMtPerSec, setup.readFraction,
                             delay);
        });

    LoadedLatencyCurve curve;
    curve.setup = setup;
    curve.points.reserve(settled.size());
    for (const auto &r : settled) {
        if (r.ok())
            curve.points.push_back(*r.value);
    }
    const std::size_t lost = settled.size() - curve.points.size();
    requireConfig(lost == 0 || curve.points.size() >= 2,
                  strformat("loaded-latency sweep: only %zu of %zu delay "
                            "points survived; need at least 2 for a curve",
                            curve.points.size(), settled.size()));
    if (lost > 0)
        warn(strformat("loaded-latency sweep: %zu of %zu delay points "
                       "quarantined",
                       lost, settled.size()));
    finalizeCurve(curve);
    return curve;
}

std::vector<LoadedLatencyCurve>
sweepLoadedLatencyFamily(const std::vector<LoadedLatencySetup> &setups,
                         FailureManifest *manifest)
{
    std::vector<LoadedLatencyCurve> curves;
    curves.reserve(setups.size());
    for (std::size_t i = 0; i < setups.size(); ++i) {
        LoadedLatencySetup setup = setups[i];
        if (!setup.resilience.checkpointPath.empty())
            setup.resilience.checkpointPath += ".mlc" + std::to_string(i);
        inform(strformat("loaded-latency sweep: DDR-%g, %.0f%% reads",
                         setup.memMtPerSec, setup.readFraction * 100.0));
        try {
            curves.push_back(sweepLoadedLatency(setup, manifest));
        } catch (const ConfigError &e) {
            if (!setup.resilience.enabled())
                throw;
            // The whole curve failed (fewer than two surviving
            // points). Quarantine the setup and keep sweeping.
            warn(strformat("skipping DDR-%g rf=%.2f curve: %s",
                           setup.memMtPerSec, setup.readFraction,
                           e.what()));
            if (manifest) {
                FailureRecord rec;
                rec.jobIndex = i;
                rec.context =
                    strformat("mlc setup mt=%.6g rf=%.2f",
                              setup.memMtPerSec, setup.readFraction);
                rec.errorType = "CurveSkipped";
                rec.message = e.what();
                manifest->failures.push_back(std::move(rec));
            }
        }
    }
    return curves;
}

std::vector<LoadedLatencySetup>
paperFig7Setups()
{
    std::vector<LoadedLatencySetup> setups;
    for (double mt : {1333.3, 1866.7}) {
        for (double rf : {1.0, 0.67}) {
            LoadedLatencySetup s;
            s.memMtPerSec = mt;
            s.readFraction = rf;
            setups.push_back(s);
        }
    }
    return setups;
}

model::QueuingModel
measureQueuingModel(const std::vector<LoadedLatencySetup> &setups,
                    std::size_t bins, double max_stable_util,
                    FailureManifest *manifest)
{
    requireConfig(!setups.empty(), "no sweep setups");
    std::vector<stats::PiecewiseCurve> curves;
    for (const LoadedLatencyCurve &c :
         sweepLoadedLatencyFamily(setups, manifest)) {
        curves.push_back(stats::PiecewiseCurve::fromSamples(
                             c.toQueuingSamples(), bins)
                             .monotoneEnvelope());
    }
    requireConfig(!curves.empty(),
                  "every loaded-latency curve was quarantined; cannot "
                  "build a queuing model");
    stats::PiecewiseCurve composite =
        stats::PiecewiseCurve::composite(curves, bins).monotoneEnvelope();
    return model::QueuingModel::fromCurve(std::move(composite),
                                          max_stable_util);
}

} // namespace memsense::measure
