/**
 * @file
 * Tests for the fault-tolerant experiment engine: retry-then-succeed,
 * quarantine on exhausted retries, fatal classification, cooperative
 * per-job deadlines on a virtual clock, checkpoint/resume bit-identity
 * at several worker counts, torn-journal tolerance, and no-abort
 * behaviour under injected faults — including the full
 * characterization sweep — and the sweep policy and checkpoint resume
 * of each real sweep entry point.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "measure/checkpoint.hh"
#include "measure/freq_scaling.hh"
#include "measure/loaded_latency.hh"
#include "measure/parallel.hh"
#include "measure/resilience.hh"
#include "measure/timeseries.hh"
#include "util/error.hh"
#include "util/fault_injection.hh"
#include "util/log.hh"
#include "util/trace.hh"

namespace memsense::measure
{
namespace
{

/** Deterministic, irrational-ish job value (bit-exactness matters). */
double
jobValue(std::size_t i)
{
    return std::sin(static_cast<double>(i) + 0.25) * 1e3 +
           std::sqrt(static_cast<double>(i) + 0.5);
}

/** Retry options that never really sleep. */
ResilienceOptions
fastOptions(int max_attempts)
{
    ResilienceOptions opts;
    opts.retry.maxAttempts = max_attempts;
    opts.sleepMs = [](double) {};
    return opts;
}

CheckpointCodec<double>
doubleCodec()
{
    CheckpointCodec<double> codec;
    codec.encode = [](const double &v) { return encodeDoubles({v}); };
    codec.decode = [](const std::string &payload) -> std::optional<double> {
        auto v = decodeDoubles(payload);
        if (!v || v->size() != 1)
            return std::nullopt;
        return (*v)[0];
    };
    return codec;
}

std::string
tempJournal(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

/**
 * One sweep entry point on a tiny four-job grid whose every job hits
 * @c site once per attempt. run() returns the sweep's values flattened
 * for a bitwise comparison.
 */
struct SweepCase
{
    std::string name;
    std::string site;
    std::function<std::vector<double>(int jobs, const ResilienceConfig &,
                                      FailureManifest *)>
        run;
};

std::vector<double>
flatten(const std::vector<Characterization> &chars)
{
    std::vector<double> out;
    for (const auto &c : chars) {
        for (const auto &o : c.observations)
            out.insert(out.end(), {o.coreGhz, o.memMtPerSec, o.cpiEff,
                                   o.mpi, o.mpCycles, o.mpki, o.wbr,
                                   o.instructions});
        out.insert(out.end(), {c.model.params.cpiCache, c.model.params.bf,
                               c.model.fit.r2});
    }
    return out;
}

std::vector<double>
flatten(const LoadedLatencyCurve &curve)
{
    std::vector<double> out = {curve.unloadedNs, curve.maxBandwidthGBps};
    for (const auto &pt : curve.points)
        out.insert(out.end(), {static_cast<double>(pt.delayCycles),
                               pt.bandwidthGBps, pt.latencyNs});
    return out;
}

std::vector<double>
flatten(const std::vector<TimeSeries> &series)
{
    std::vector<double> out;
    for (const auto &ts : series) {
        for (const auto &x : ts.samples)
            out.insert(out.end(), {x.timeMs, x.cpuUtilization, x.cpi,
                                   x.bandwidthGBps, x.ioGBps, x.mpki,
                                   x.missPenaltyNs});
    }
    return out;
}

LoadedLatencySetup
tinyLoadedLatency(int jobs, const ResilienceConfig &rc)
{
    LoadedLatencySetup setup;
    setup.cores = 2;
    setup.delayCycles = {0, 64, 256, 1024};
    setup.warmup = nsToPicos(20'000.0);
    setup.measure = nsToPicos(40'000.0);
    setup.jobs = jobs;
    setup.resilience = rc;
    return setup;
}

/** characterizeMany, sweepLoadedLatency, measureQueuingModel and
 *  captureTimeSeriesBatch, each on four jobs. */
std::vector<SweepCase>
sweepCases()
{
    auto characterization = [](int jobs, const ResilienceConfig &rc,
                               FailureManifest *manifest) {
        FreqScalingConfig cfg;
        cfg.coreGhz = {2.1, 3.1};
        cfg.memMtPerSec = {1333.3, 1866.7};
        cfg.warmup = nsToPicos(100'000.0);
        cfg.measure = nsToPicos(100'000.0);
        cfg.adaptiveWarmup = false;
        cfg.coresOverride = 1;
        cfg.jobs = jobs;
        cfg.resilience = rc;
        return flatten(characterizeMany({"column_store"}, cfg, manifest));
    };
    auto loaded_latency = [](int jobs, const ResilienceConfig &rc,
                             FailureManifest *manifest) {
        return flatten(
            sweepLoadedLatency(tinyLoadedLatency(jobs, rc), manifest));
    };
    auto queuing_model = [](int jobs, const ResilienceConfig &rc,
                            FailureManifest *manifest) {
        model::QueuingModel q = measureQueuingModel(
            {tinyLoadedLatency(jobs, rc)}, 8, 0.95, manifest);
        return std::vector<double>{q.delayNs(0.5)};
    };
    auto time_series = [](int jobs, const ResilienceConfig &rc,
                          FailureManifest *manifest) {
        std::vector<TimeSeriesConfig> cfgs(4);
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            cfgs[i].run.workloadId = "spark";
            cfgs[i].run.cores = 1;
            cfgs[i].run.seed = i + 1;
            cfgs[i].run.warmup = nsToPicos(50'000.0);
            cfgs[i].run.adaptiveWarmup = false;
            cfgs[i].interval = nsToPicos(20'000.0);
            cfgs[i].samples = 3;
        }
        return flatten(captureTimeSeriesBatch(cfgs, jobs, rc, manifest));
    };
    return {
        {"characterizeMany", "runner.observe", characterization},
        {"sweepLoadedLatency", "loaded_latency.point", loaded_latency},
        {"measureQueuingModel", "loaded_latency.point", queuing_model},
        {"captureTimeSeriesBatch", "timeseries.capture", time_series},
    };
}

class MeasureResilienceTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite() { setLogLevel(LogLevel::Warn); }

    void SetUp() override { fault::reset(); }

    void
    TearDown() override
    {
        fault::setSleepHandler(nullptr);
        fault::reset();
    }
};

TEST_F(MeasureResilienceTest, CleanSweepMatchesMapOrdered)
{
    std::vector<int> inputs = {1, 2, 3, 4, 5, 6, 7};
    auto fn = [](const int &x) { return jobValue(static_cast<std::size_t>(x)); };
    ParallelExecutor exec(4);
    auto plain = exec.mapOrdered(inputs, fn);
    auto resilient = exec.mapSettled(inputs, fn, fastOptions(3));
    ASSERT_EQ(resilient.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        ASSERT_TRUE(resilient[i].ok()) << "job " << i;
        EXPECT_EQ(*resilient[i].value, plain[i]) << "job " << i;
        EXPECT_EQ(resilient[i].attempts, 1);
    }
    EXPECT_TRUE(FailureManifest::collect(resilient).empty());
}

TEST_F(MeasureResilienceTest, TransientFailuresRetryToSuccess)
{
    const std::size_t n = 8;
    std::vector<std::size_t> inputs(n);
    for (std::size_t i = 0; i < n; ++i)
        inputs[i] = i;
    // Job i fails its first (i % 3) calls, then succeeds — independent
    // of scheduling, so the test is exact at any worker count.
    std::vector<std::atomic<int>> calls(n);
    auto fn = [&calls](const std::size_t &i) {
        if (calls[i].fetch_add(1) < static_cast<int>(i % 3))
            throw TransientError("transient");
        return jobValue(i);
    };
    for (int jobs : {1, 8}) {
        for (auto &c : calls)
            c.store(0);
        ParallelExecutor exec(jobs);
        auto results = exec.mapSettled(inputs, fn, fastOptions(3));
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(results[i].ok()) << "jobs=" << jobs << " job " << i;
            EXPECT_EQ(*results[i].value, jobValue(i));
            EXPECT_EQ(results[i].attempts, static_cast<int>(i % 3) + 1);
        }
    }
}

TEST_F(MeasureResilienceTest, ExhaustedRetriesQuarantine)
{
    std::vector<std::size_t> inputs = {0, 1, 2};
    auto fn = [](const std::size_t &i) {
        if (i == 1)
            throw TransientError("always failing");
        return jobValue(i);
    };
    ParallelExecutor exec(1);
    auto results = exec.mapSettled(inputs, fn, fastOptions(3));
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok());
    EXPECT_TRUE(results[2].ok());
    ASSERT_FALSE(results[1].ok());
    const FailureRecord &rec = *results[1].failure;
    EXPECT_EQ(rec.jobIndex, 1u);
    EXPECT_EQ(rec.errorType, "TransientError");
    EXPECT_NE(rec.message.find("always failing"), std::string::npos)
        << rec.message;
    EXPECT_EQ(rec.attempts, 3);
    EXPECT_FALSE(rec.fatal);
    EXPECT_FALSE(rec.timedOut);

    FailureManifest m = FailureManifest::collect(results);
    ASSERT_EQ(m.failures.size(), 1u);
    const std::string summary = m.summary(results.size());
    EXPECT_NE(summary.find("1 of 3"), std::string::npos) << summary;
    const std::string json = m.toJson();
    EXPECT_NE(json.find("\"quarantined\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("TransientError"), std::string::npos) << json;
}

TEST_F(MeasureResilienceTest, FatalErrorsAreNeverRetried)
{
    std::vector<std::size_t> inputs = {0, 1};
    std::atomic<int> calls{0};
    auto fn = [&calls](const std::size_t &i) {
        if (i == 0) {
            ++calls;
            throw ConfigError("bad job");
        }
        return jobValue(i);
    };
    ParallelExecutor exec(1);
    auto results = exec.mapSettled(inputs, fn, fastOptions(5));
    ASSERT_FALSE(results[0].ok());
    EXPECT_EQ(calls.load(), 1) << "fatal errors must not be retried";
    EXPECT_TRUE(results[0].failure->fatal);
    EXPECT_EQ(results[0].failure->errorType, "ConfigError");
    EXPECT_TRUE(results[1].ok());
}

TEST_F(MeasureResilienceTest, DeadlineCutsRetriesOnVirtualClock)
{
    // Virtual clock: injected delay faults advance it inside the job,
    // backoff sleeps advance it between attempts. Nothing real-sleeps.
    double clock_ms = 0.0;
    fault::setSleepHandler([&clock_ms](double ms) { clock_ms += ms; });
    fault::configure("resilience.slow:delay=100");

    ResilienceOptions opts;
    opts.retry.maxAttempts = 10;
    opts.jobTimeoutMs = 150.0;
    opts.nowMs = [&clock_ms]() { return clock_ms; };
    opts.sleepMs = [&clock_ms](double ms) { clock_ms += ms; };

    std::vector<std::size_t> inputs = {0};
    auto fn = [](const std::size_t &) -> double {
        MS_FAULT_POINT("resilience.slow"); // +100 virtual ms
        throw TransientError("slow and failing");
    };
    ParallelExecutor exec(1);
    auto results = exec.mapSettled(inputs, fn, opts);
    ASSERT_FALSE(results[0].ok());
    const FailureRecord &rec = *results[0].failure;
    EXPECT_TRUE(rec.timedOut);
    EXPECT_FALSE(rec.fatal);
    EXPECT_EQ(rec.attempts, 2) << "deadline must cut the retry budget";
    EXPECT_GE(rec.elapsedMs, 150.0);
}

TEST_F(MeasureResilienceTest, TimeoutNeverDiscardsASuccess)
{
    // A job that finishes over budget still keeps its value: the
    // deadline only stops further retries, it never tears results.
    double clock_ms = 0.0;
    fault::setSleepHandler([&clock_ms](double ms) { clock_ms += ms; });
    fault::configure("resilience.slowok:delay=500");

    ResilienceOptions opts = fastOptions(3);
    opts.jobTimeoutMs = 100.0;
    opts.nowMs = [&clock_ms]() { return clock_ms; };

    std::vector<std::size_t> inputs = {4};
    auto fn = [](const std::size_t &i) {
        MS_FAULT_POINT("resilience.slowok"); // +500 virtual ms
        return jobValue(i);
    };
    ParallelExecutor exec(1);
    auto results = exec.mapSettled(inputs, fn, opts);
    ASSERT_TRUE(results[0].ok());
    EXPECT_EQ(*results[0].value, jobValue(4));
}

TEST_F(MeasureResilienceTest, CheckpointResumeIsBitIdentical)
{
    const std::size_t n = 12;
    std::vector<std::size_t> inputs(n);
    for (std::size_t i = 0; i < n; ++i)
        inputs[i] = i;
    std::atomic<bool> failing{true};
    auto fn = [&failing](const std::size_t &i) {
        if (failing.load() && i % 3 == 1)
            throw TransientError("injected outage");
        return jobValue(i);
    };

    for (int jobs : {1, 8}) {
        ParallelExecutor exec(jobs);
        // Reference: uninterrupted, no failures, no checkpoint.
        failing = false;
        auto reference =
            exec.mapSettled(inputs, fn, fastOptions(2));

        const std::string path =
            tempJournal("ckpt_jobs" + std::to_string(jobs) + ".journal");

        // Pass 1: a third of the jobs fail out of their retry budget
        // and are quarantined; the successes land in the journal.
        failing = true;
        auto pass1 = mapSettledCheckpointed(
            exec, inputs, fn, fastOptions(2), path, "ckpt-test-v1",
            doubleCodec());
        std::size_t quarantined = 0;
        for (const auto &r : pass1)
            quarantined += r.ok() ? 0 : 1;
        EXPECT_EQ(quarantined, 4u) << "jobs=" << jobs;

        // Pass 2 ("resume after the outage"): only the failed jobs
        // re-run; restored jobs report attempts == 0.
        failing = false;
        auto pass2 = mapSettledCheckpointed(
            exec, inputs, fn, fastOptions(2), path, "ckpt-test-v1",
            doubleCodec());
        ASSERT_EQ(pass2.size(), reference.size());
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(pass2[i].ok()) << "jobs=" << jobs << " job " << i;
            EXPECT_EQ(*pass2[i].value, *reference[i].value)
                << "jobs=" << jobs << " job " << i;
            if (i % 3 == 1)
                EXPECT_GE(pass2[i].attempts, 1) << "job " << i
                                                << " should have re-run";
            else
                EXPECT_EQ(pass2[i].attempts, 0)
                    << "job " << i << " should restore from the journal";
        }

        // Pass 3: everything restores; nothing re-runs.
        auto pass3 = mapSettledCheckpointed(
            exec, inputs, fn, fastOptions(2), path, "ckpt-test-v1",
            doubleCodec());
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(pass3[i].ok());
            EXPECT_EQ(pass3[i].attempts, 0);
            EXPECT_EQ(*pass3[i].value, *reference[i].value);
        }
        std::remove(path.c_str());
    }
}

TEST_F(MeasureResilienceTest, JournalKeyMismatchIsAConfigError)
{
    const std::string path = tempJournal("ckpt_key.journal");
    {
        CheckpointJournal journal(path, "sweep-A");
        journal.append(0, true, "payload");
    }
    EXPECT_THROW(CheckpointJournal(path, "sweep-B"), ConfigError);
    // The matching key still opens and restores.
    CheckpointJournal again(path, "sweep-A");
    ASSERT_EQ(again.restored().size(), 1u);
    EXPECT_EQ(again.restored().at(0).payload, "payload");
    std::remove(path.c_str());
}

TEST_F(MeasureResilienceTest, TornAndCorruptJournalLinesAreSkipped)
{
    const std::string path = tempJournal("ckpt_torn.journal");
    {
        CheckpointJournal journal(path, "torn-test");
        journal.append(0, true, encodeDoubles({jobValue(0)}));
        journal.append(1, false, "TransientError");
        journal.append(1, true, encodeDoubles({jobValue(1)}));
    }
    {
        // Simulate a crash mid-append: a checksum-less record, a
        // corrupted checksum, and a torn tail with no newline.
        std::ofstream raw(path, std::ios::binary | std::ios::app);
        raw << "R 2 ok deadbeef\n";
        raw << "R 3 ok cafe #0000000000000000\n";
        raw << "R 4 o";
    }
    CheckpointJournal journal(path, "torn-test");
    ASSERT_EQ(journal.restored().size(), 2u);
    EXPECT_TRUE(journal.restored().at(0).ok);
    EXPECT_TRUE(journal.restored().at(1).ok)
        << "the later ok record must supersede the quarantine record";
    EXPECT_EQ(journal.restored().count(2), 0u);
    EXPECT_EQ(journal.restored().count(3), 0u);
    EXPECT_EQ(journal.restored().count(4), 0u);
    std::remove(path.c_str());
}

TEST_F(MeasureResilienceTest, AppendRejectsUnjournalablePayloads)
{
    const std::string path = tempJournal("ckpt_payload.journal");
    CheckpointJournal journal(path, "payload-test");
    EXPECT_THROW(journal.append(0, true, "two\nlines"), ConfigError);
    EXPECT_THROW(journal.append(0, true, "has # hash"), ConfigError);
    std::remove(path.c_str());
}

TEST_F(MeasureResilienceTest, InjectedFaultsNeverAbortTheSweep)
{
    // The acceptance property: under probabilistic injected faults,
    // every job either retries to success or lands in the failure
    // manifest — the sweep itself always completes.
    fault::configure("seed=11;resilience.random:throw:p=0.4");
    const std::size_t n = 32;
    std::vector<std::size_t> inputs(n);
    for (std::size_t i = 0; i < n; ++i)
        inputs[i] = i;
    auto fn = [](const std::size_t &i) {
        MS_FAULT_POINT("resilience.random");
        return jobValue(i);
    };
    for (int jobs : {1, 8}) {
        fault::configure("seed=11;resilience.random:throw:p=0.4");
        ParallelExecutor exec(jobs);
        std::vector<JobResult<double>> results;
        ASSERT_NO_THROW(results = exec.mapSettled(
                            inputs, fn, fastOptions(4)))
            << "jobs=" << jobs;
        ASSERT_EQ(results.size(), n);
        std::size_t ok = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (results[i].ok()) {
                ++ok;
                EXPECT_EQ(*results[i].value, jobValue(i));
            } else {
                EXPECT_EQ(results[i].failure->errorType, "FaultInjected");
                EXPECT_EQ(results[i].failure->attempts, 4);
            }
        }
        // p=0.4 with 4 attempts: most jobs must make it through.
        EXPECT_GT(ok, n / 2) << "jobs=" << jobs;
    }
}

TEST_F(MeasureResilienceTest, ResolveJobsNeverReturnsZero)
{
    EXPECT_GE(resolveJobs(0), 1);
    EXPECT_GE(resolveJobs(-4), 1);
    EXPECT_EQ(resolveJobs(3), 3);
}

/** End-to-end: the real characterization sweep under injected faults. */
TEST_F(MeasureResilienceTest, CharacterizationSurvivesInjectedFaults)
{
    FreqScalingConfig cfg;
    cfg.coreGhz = {2.1, 3.1};
    cfg.memMtPerSec = {1866.7};
    cfg.warmup = nsToPicos(300'000.0);
    cfg.measure = nsToPicos(300'000.0);
    cfg.adaptiveWarmup = false;
    cfg.coresOverride = 2;
    cfg.jobs = 2;

    const std::vector<std::string> ids = {"column_store"};
    auto clean = characterizeMany(ids, cfg);

    // Every third hit of the grid-point runner throws a retryable
    // fault; with two extra attempts every point must still succeed,
    // and the retried re-runs must be bit-identical to the clean run.
    fault::configure("runner.observe:throw:nth=3");
    cfg.resilience.maxRetries = 2;
    FailureManifest manifest;
    std::vector<Characterization> r = characterizeMany(ids, cfg, &manifest);
    fault::reset();

    EXPECT_TRUE(manifest.empty())
        << "nth=3 faults with 2 retries must all recover: "
        << manifest.summary(clean[0].observations.size());
    ASSERT_EQ(r.size(), clean.size());
    ASSERT_EQ(r[0].observations.size(), clean[0].observations.size());
    for (std::size_t i = 0; i < clean[0].observations.size(); ++i) {
        EXPECT_EQ(r[0].observations[i].cpiEff,
                  clean[0].observations[i].cpiEff)
            << "observation " << i;
        EXPECT_EQ(r[0].observations[i].mpCycles,
                  clean[0].observations[i].mpCycles);
    }
    EXPECT_EQ(r[0].model.params.cpiCache, clean[0].model.params.cpiCache);
}

TEST_F(MeasureResilienceTest, StrictSweepsRethrowTheFirstFaultOnceAllSettle)
{
    // after=2: the first two hits pass and every later hit throws, so
    // two of the four jobs fail whatever the scheduling.
    for (const SweepCase &c : sweepCases()) {
        for (int jobs : {1, 8}) {
            SCOPED_TRACE(c.name + " jobs=" + std::to_string(jobs));
            const std::string spec = c.site + ":throw:after=2";

            // No resilience knob: the strict policy rethrows the
            // original exception, and only after every job ran.
            fault::configure(spec);
            EXPECT_THROW(c.run(jobs, ResilienceConfig{}, nullptr),
                         fault::FaultInjected);
            EXPECT_EQ(fault::hitCount(c.site), 4u);

            // One retry: the same faults land in the manifest instead.
            fault::configure(spec);
            ResilienceConfig rc;
            rc.maxRetries = 1;
            FailureManifest manifest;
            EXPECT_NO_THROW(c.run(jobs, rc, &manifest));
            ASSERT_EQ(manifest.failures.size(), 2u);
            for (const FailureRecord &f : manifest.failures) {
                EXPECT_EQ(f.errorType, "FaultInjected");
                EXPECT_EQ(f.attempts, 2);
                EXPECT_FALSE(f.context.empty());
            }
        }
    }
}

TEST_F(MeasureResilienceTest, SweepCheckpointResumeMatchesACleanRun)
{
    // Every sweep's own journal codec: the first run quarantines one
    // job (nth=3 fires on the third of four hits, with no retry), the
    // resumed run re-runs only that job and restores the rest.
    std::vector<SweepCase> cases = sweepCases();
    cases.erase(cases.begin() + 2); // measureQueuingModel: same codec
    for (const SweepCase &c : cases) {
        for (int jobs : {1, 8}) {
            SCOPED_TRACE(c.name + " jobs=" + std::to_string(jobs));
            const std::vector<double> clean =
                c.run(jobs, ResilienceConfig{}, nullptr);

            ResilienceConfig rc;
            rc.checkpointPath = tempJournal("sweep_" + c.name + "_jobs" +
                                            std::to_string(jobs) +
                                            ".journal");
            fault::configure(c.site + ":throw:nth=3");
            FailureManifest first;
            c.run(jobs, rc, &first);
            EXPECT_EQ(first.failures.size(), 1u);
            fault::reset();

            trace::resetForTest();
            trace::setStatsEnabled(true);
            FailureManifest second;
            const std::vector<double> resumed = c.run(jobs, rc, &second);
            std::map<std::string, std::uint64_t> counters =
                trace::counterTotals();
            trace::setStatsEnabled(false);
            trace::resetForTest();

            EXPECT_TRUE(second.empty());
            EXPECT_EQ(counters["measure.jobs_run"], 1u);
            EXPECT_EQ(counters["checkpoint.jobs_restored"], 3u);
            EXPECT_EQ(resumed, clean);
            std::remove(rc.checkpointPath.c_str());
        }
    }
}

} // anonymous namespace
} // namespace memsense::measure
