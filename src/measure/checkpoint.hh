/**
 * @file
 * Sweep checkpointing (append-only result journal + resume), and
 * runSweep(), which every measure/ sweep goes through: the journal
 * plus the strict or fault-tolerant policy of the sweep's
 * ResilienceConfig.
 *
 * A checkpointed sweep streams every settled job to a journal file as
 * it completes; an interrupted run can then resume from the journal
 * and re-run only the missing or failed jobs, producing results
 * bit-identical to an uninterrupted run for any worker count.
 *
 * Journal format (one record per line, crash-tolerant):
 *
 *     memsense-ckpt v1 key=<runKey>
 *     R <index> ok <payload> #<fnv64hex>
 *     R <index> fail <errorType> #<fnv64hex>
 *
 * The header key fingerprints the sweep (grid shape, seeds, workload
 * set); resuming against a journal whose key differs is a ConfigError,
 * not a silent wrong answer. Each record carries an FNV-1a checksum of
 * its own content, and loading skips any line that is torn, corrupt,
 * or out of range — a crash mid-append therefore costs at most the one
 * record being written. Doubles in payloads are encoded as raw IEEE-754
 * bit patterns (hex), so a restored value is the value, bit for bit.
 */

#ifndef MEMSENSE_MEASURE_CHECKPOINT_HH
#define MEMSENSE_MEASURE_CHECKPOINT_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "measure/parallel.hh"
#include "measure/resilience.hh"
#include "util/log.hh"

namespace memsense::measure
{

/** Bit-exact doubles -> space-separated hex words (IEEE-754 bits). */
std::string encodeDoubles(const std::vector<double> &values);

/** Inverse of encodeDoubles(); nullopt on any malformed word. */
std::optional<std::vector<double>> decodeDoubles(const std::string &text);

/** Serialize/deserialize one job result for the journal. */
template <typename T>
struct CheckpointCodec
{
    /** Encode to a single line (must not contain '\n' or '#'). */
    std::function<std::string(const T &)> encode;
    /** Decode; nullopt rejects the record (job re-runs instead). */
    std::function<std::optional<T>(const std::string &)> decode;
};

/** Append-only, crash-tolerant journal of settled sweep jobs. */
class CheckpointJournal
{
  public:
    /** One parsed journal record. */
    struct Record
    {
        std::size_t index = 0;  ///< job input-order index
        bool ok = false;        ///< value record vs quarantine record
        std::string payload;    ///< codec output / error type
    };

    /**
     * Open @p path for appending, creating it (with a header naming
     * @p run_key) when absent. Existing valid records are loaded and
     * available via restored(); a header key mismatch throws
     * ConfigError.
     */
    CheckpointJournal(const std::string &path, const std::string &run_key);

    /**
     * Valid records found at open, deduplicated by index (last record
     * wins, so a re-run may supersede an earlier quarantine).
     */
    const std::map<std::size_t, Record> &restored() const
    {
        return loaded;
    }

    /** Append one settled record and flush it. Thread-safe. */
    void append(std::size_t index, bool ok, const std::string &payload);

    const std::string &path() const { return journalPath; }

  private:
    std::string journalPath;
    std::map<std::size_t, Record> loaded;
    std::mutex mtx;
    std::ofstream out;
};

/**
 * Stable fingerprint of a sweep for the journal header: hashes the
 * caller-supplied descriptor (workload ids, grid shape, seeds, ...).
 */
std::string checkpointRunKey(const std::string &descriptor);

/**
 * Checkpointed map: like ParallelExecutor::mapSettled(), plus every
 * settled job is streamed to the journal at @p journal_path, and jobs
 * already settled successfully in a previous run are restored instead
 * of re-run (their JobResult reports attempts == 0). Failed or missing
 * jobs re-run with their original retry streams, so the merged result
 * vector is bit-identical to an uninterrupted sweep.
 *
 * With an empty @p journal_path this is exactly mapSettled().
 */
template <typename Job, typename Fn>
auto
mapSettledCheckpointed(
    const ParallelExecutor &exec, const std::vector<Job> &inputs, Fn fn,
    const ResilienceOptions &opts, const std::string &journal_path,
    const std::string &run_key,
    const CheckpointCodec<std::invoke_result_t<Fn, const Job &>> &codec)
    -> std::vector<JobResult<std::invoke_result_t<Fn, const Job &>>>
{
    using Result = std::invoke_result_t<Fn, const Job &>;
    if (journal_path.empty())
        return exec.mapSettled(inputs, fn, opts);

    CheckpointJournal journal(journal_path, run_key);

    std::vector<JobResult<Result>> results(inputs.size());
    std::vector<bool> restored(inputs.size(), false);
    {
        MS_TRACE_SPAN("checkpoint.replay");
        for (const auto &[index, record] : journal.restored()) {
            if (index >= inputs.size() || !record.ok)
                continue;
            std::optional<Result> value = codec.decode(record.payload);
            if (!value)
                continue; // undecodable record: treat as missing, re-run
            results[index].value = std::move(value);
            results[index].attempts = 0;
            restored[index] = true;
            MS_METRIC_COUNT("checkpoint.jobs_restored");
        }
    }

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (!restored[i])
            pending.push_back(i);
    }

    auto by_index = [&inputs, &fn](std::size_t i) {
        return fn(inputs[i]);
    };
    auto stream_record = [&journal, &codec](std::size_t index,
                                            const JobResult<Result> &r) {
        try {
            if (r.ok())
                journal.append(index, true, codec.encode(*r.value));
            else
                journal.append(index, false, r.failure->errorType);
        } catch (const std::exception &e) {
            // A journal write failure must not fail the job: the sweep
            // still completes, it just loses resumability for this
            // record.
            warn(std::string("checkpoint append failed: ") + e.what());
        }
    };
    std::vector<JobResult<Result>> fresh =
        exec.mapIndices<Result>(pending, by_index, opts, stream_record);
    for (std::size_t k = 0; k < pending.size(); ++k)
        results[pending[k]] = std::move(fresh[k]);
    return results;
}

/**
 * Run one measure/ sweep of @p fn over @p inputs on @p jobs workers,
 * under the policy of @p rc. This is the one path behind
 * characterizeMany(), sweepLoadedLatency() and captureTimeSeriesBatch().
 *
 *  - Strict (rc.enabled() false, the default): each job runs once,
 *    and once all jobs have settled the lowest-index failure's
 *    original exception is rethrown — every returned result holds a
 *    value.
 *  - Fault-tolerant: jobs retry per rc, settled jobs stream to the
 *    journal at rc.checkpointPath (when set; @p run_key and @p codec
 *    describe the journal), and every failed job is appended to
 *    @p manifest (when non-null) with @p describe(input) as its
 *    context. The caller keeps the surviving values.
 */
template <typename Job, typename Fn, typename Describe>
auto
runSweep(const std::vector<Job> &inputs, Fn fn, int jobs,
         const ResilienceConfig &rc, const std::string &run_key,
         const CheckpointCodec<std::invoke_result_t<Fn, const Job &>> &codec,
         FailureManifest *manifest, Describe describe)
    -> std::vector<JobResult<std::invoke_result_t<Fn, const Job &>>>
{
    auto settled =
        mapSettledCheckpointed(ParallelExecutor(jobs), inputs, fn,
                               rc.toOptions(), rc.checkpointPath,
                               run_key, codec);
    if (!rc.enabled())
        rethrowFirstFailure(settled);
    for (const auto &r : settled) {
        if (r.ok() || !manifest)
            continue;
        FailureRecord rec = *r.failure;
        rec.context = describe(inputs[rec.jobIndex]);
        manifest->failures.push_back(std::move(rec));
    }
    return settled;
}

} // namespace memsense::measure

#endif // MEMSENSE_MEASURE_CHECKPOINT_HH
