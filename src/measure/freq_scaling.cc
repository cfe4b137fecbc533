#include "measure/freq_scaling.hh"

#include <cstddef>
#include <optional>

#include "measure/checkpoint.hh"
#include "util/error.hh"
#include "util/log.hh"
#include "util/string_util.hh"

namespace memsense::measure
{

namespace
{

/** Run one grid point under a log scope naming its workload. */
model::FitObservation
runGridPoint(const RunConfig &rc)
{
    LogScope scope(rc.workloadId);
    return runObservation(rc);
}

/** Fit one workload's model from its measured observations. */
Characterization
fitCharacterization(const std::string &workload_id,
                    std::vector<model::FitObservation> observations)
{
    const workloads::WorkloadInfo &info =
        workloads::workloadInfo(workload_id);
    Characterization out;
    out.workloadId = workload_id;
    out.observations = std::move(observations);
    out.model = model::fitModel(info.display, info.cls, out.observations);
    debug(strformat("%s: CPI_cache=%.3f BF=%.3f R2=%.3f",
                    workload_id.c_str(), out.model.params.cpiCache,
                    out.model.params.bf, out.model.fit.r2));
    return out;
}

/** Bit-exact checkpoint codec for a FitObservation (8 doubles). */
CheckpointCodec<model::FitObservation>
fitObservationCodec()
{
    CheckpointCodec<model::FitObservation> codec;
    codec.encode = [](const model::FitObservation &o) {
        return encodeDoubles({o.coreGhz, o.memMtPerSec, o.cpiEff, o.mpi,
                              o.mpCycles, o.mpki, o.wbr, o.instructions});
    };
    codec.decode =
        [](const std::string &payload) -> std::optional<model::FitObservation> {
        std::optional<std::vector<double>> decoded = decodeDoubles(payload);
        if (!decoded || decoded->size() != 8)
            return std::nullopt;
        const std::vector<double> &v = *decoded;
        model::FitObservation o;
        o.coreGhz = v[0];
        o.memMtPerSec = v[1];
        o.cpiEff = v[2];
        o.mpi = v[3];
        o.mpCycles = v[4];
        o.mpki = v[5];
        o.wbr = v[6];
        o.instructions = v[7];
        return o;
    };
    return codec;
}

/**
 * A stable identity for one characterization sweep: any change to the
 * workload list or grid shape produces a different key, so a stale
 * checkpoint from a different sweep is rejected instead of replayed.
 */
std::string
characterizationRunKey(const std::vector<std::string> &ids,
                       const FreqScalingConfig &cfg)
{
    std::string desc = "characterize";
    for (const auto &id : ids)
        desc += " " + id;
    desc += " ghz=" + encodeDoubles(cfg.coreGhz);
    desc += " mt=" + encodeDoubles(cfg.memMtPerSec);
    desc += strformat(" runs=%d ch=%d seed=%llu warm=%lld meas=%lld "
                      "pf=%d mshrs=%u aw=%d cores=%d",
                      cfg.runsPerPoint, cfg.channels,
                      static_cast<unsigned long long>(cfg.seed),
                      static_cast<long long>(cfg.warmup),
                      static_cast<long long>(cfg.measure),
                      cfg.prefetcherEnabled ? 1 : 0, cfg.mshrs,
                      cfg.adaptiveWarmup ? 1 : 0, cfg.coresOverride);
    return checkpointRunKey(desc);
}

} // anonymous namespace

std::vector<RunConfig>
characterizationGrid(const std::string &workload_id,
                     const FreqScalingConfig &cfg)
{
    requireConfig(!cfg.coreGhz.empty() && !cfg.memMtPerSec.empty(),
                  "frequency-scaling sweep needs a non-empty grid");
    requireConfig(cfg.runsPerPoint >= 1, "need at least one run per point");

    const workloads::WorkloadInfo &info =
        workloads::workloadInfo(workload_id);

    std::vector<RunConfig> grid;
    grid.reserve(cfg.coreGhz.size() * cfg.memMtPerSec.size() *
                 static_cast<std::size_t>(cfg.runsPerPoint));
    for (double ghz : cfg.coreGhz) {
        for (double mt : cfg.memMtPerSec) {
            for (int r = 0; r < cfg.runsPerPoint; ++r) {
                RunConfig rc;
                rc.workloadId = workload_id;
                rc.cores = cfg.coresOverride > 0
                               ? cfg.coresOverride
                               : info.characterizationCores;
                rc.ghz = ghz;
                rc.memMtPerSec = mt;
                rc.channels = cfg.channels;
                rc.seed = cfg.seed + static_cast<std::uint64_t>(r);
                rc.warmup = cfg.warmup;
                rc.measure = cfg.measure;
                rc.prefetcherEnabled = cfg.prefetcherEnabled;
                rc.mshrs = cfg.mshrs;
                rc.adaptiveWarmup = cfg.adaptiveWarmup;
                grid.push_back(rc);
            }
        }
    }
    return grid;
}

Characterization
characterize(const std::string &workload_id, const FreqScalingConfig &cfg,
             FailureManifest *manifest)
{
    std::vector<Characterization> out =
        characterizeMany({workload_id}, cfg, manifest);
    requireConfig(!out.empty(),
                  workload_id + ": too few grid points survived to fit");
    return std::move(out.front());
}

std::vector<Characterization>
characterizeMany(const std::vector<std::string> &ids,
                 const FreqScalingConfig &cfg, FailureManifest *manifest)
{
    // Flatten every workload's grid into one job list so workers stay
    // busy across workload boundaries, then slice the ordered results
    // back per workload. All grids have the same size because the
    // sweep settings are shared.
    std::vector<RunConfig> all_jobs;
    for (const auto &id : ids) {
        inform("characterizing " + id + " ...");
        std::vector<RunConfig> grid = characterizationGrid(id, cfg);
        all_jobs.insert(all_jobs.end(), grid.begin(), grid.end());
    }

    std::vector<JobResult<model::FitObservation>> settled = runSweep(
        all_jobs, runGridPoint, cfg.jobs, cfg.resilience,
        characterizationRunKey(ids, cfg), fitObservationCodec(), manifest,
        [](const RunConfig &rc) {
            return strformat("%s ghz=%.4g mt=%.6g seed=%llu",
                             rc.workloadId.c_str(), rc.ghz,
                             rc.memMtPerSec,
                             static_cast<unsigned long long>(rc.seed));
        });

    // A workload that lost grid points fits from the survivors, and
    // needs at least two of them for the two-parameter fit; otherwise
    // it is skipped and recorded in the manifest.
    const std::size_t per_workload =
        ids.empty() ? 0 : settled.size() / ids.size();
    std::vector<Characterization> out;
    out.reserve(ids.size());
    for (std::size_t w = 0; w < ids.size(); ++w) {
        std::vector<model::FitObservation> survivors;
        survivors.reserve(per_workload);
        for (std::size_t j = 0; j < per_workload; ++j) {
            auto &r = settled[w * per_workload + j];
            if (r.ok())
                survivors.push_back(std::move(*r.value));
        }
        const std::size_t lost = per_workload - survivors.size();
        if (lost > 0 && survivors.size() < 2) {
            FailureRecord rec;
            rec.jobIndex = w * per_workload;
            rec.context = ids[w];
            rec.errorType = "FitSkipped";
            rec.message = strformat(
                "%zu of %zu grid points quarantined; at least 2 "
                "observations are needed to fit the model",
                lost, per_workload);
            warn(ids[w] + ": " + rec.message);
            if (manifest)
                manifest->failures.push_back(std::move(rec));
            continue;
        }
        if (lost > 0)
            warn(strformat("%s: fitting from %zu of %zu grid points "
                           "(%zu quarantined)",
                           ids[w].c_str(), survivors.size(),
                           per_workload, lost));
        out.push_back(fitCharacterization(ids[w], std::move(survivors)));
    }
    return out;
}

std::vector<Characterization>
characterizeAll(const FreqScalingConfig &cfg)
{
    std::vector<std::string> ids;
    for (const auto &info : workloads::workloadCatalog())
        ids.push_back(info.id);
    return characterizeMany(ids, cfg);
}

} // namespace memsense::measure
