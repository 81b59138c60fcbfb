#include "sweep/service/service.hh"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "sim/env.hh"
#include "sim/io/content_store.hh"
#include "sim/io/io_fault.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "soc/checkpoint.hh"
#include "soc/run_io.hh"
#include "sweep/service/job_hash.hh"

namespace bvl
{

namespace
{

std::atomic<bool> g_stop{false};

extern "C" void
sweepStopHandler(int)
{
    g_stop.store(true, std::memory_order_relaxed);
    // Async-signal-safe note; SA_RESETHAND makes a second signal kill.
    const char msg[] =
        "\nbvl-sweep: stop requested; draining in-flight jobs "
        "(signal again to kill)\n";
    ssize_t ignored = ::write(2, msg, sizeof(msg) - 1);
    (void)ignored;
}

} // namespace

void
SweepService::installSignalHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = sweepStopHandler;
    sa.sa_flags = SA_RESETHAND;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

void
SweepService::requestStop()
{
    g_stop.store(true, std::memory_order_relaxed);
}

bool
SweepService::stopRequested()
{
    return g_stop.load(std::memory_order_relaxed);
}

void
SweepService::clearStop()
{
    g_stop.store(false, std::memory_order_relaxed);
}

SweepServiceOptions
SweepServiceOptions::fromEnv(const std::string &sweepName)
{
    SweepServiceOptions o;
    const char *j = std::getenv("BVL_SWEEP_JOURNAL");
    if (j && !std::strcmp(j, "0")) {
        // Journaling explicitly off.
    } else if (j && *j && std::strcmp(j, "1") != 0) {
        o.journalPath = j;
    } else {
        const char *dir = std::getenv("BVL_SWEEP_DIR");
        o.journalPath = std::string(dir && *dir ? dir : ".bvl-sweep") +
                        "/" + sweepName + ".journal.jsonl";
    }
    if (const char *c = std::getenv("BVL_CACHE_DIR"); c && *c)
        o.cacheDir = c;
    return o;
}

unsigned
SweepService::defaultJobs()
{
    // Strict parse: a typo'd BVL_JOBS (or one that overflows long)
    // must fail loudly rather than silently saturate or fall back.
    long long v = envInt("BVL_JOBS", 0, 1, 1 << 16);
    if (v)
        return static_cast<unsigned>(v);
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

SweepService::SweepService(SweepServiceOptions options)
    : opts(std::move(options))
{
    if (!opts.jobs)
        opts.jobs = defaultJobs();
    bvl_assert(opts.maxAttempts >= 1,
               "SweepServiceOptions::maxAttempts must be >= 1");
    opts.isolate = envBool01("BVL_SWEEP_ISOLATE", opts.isolate);
    if (!opts.journalPath.empty())
        journal.open(opts.journalPath);
    if (!opts.cacheDir.empty())
        cache.setDir(opts.cacheDir);
    // One job runs everything inline in submit(); otherwise the pool
    // is fixed here, so a sweep's thread count never depends on its
    // job count.
    if (opts.jobs > 1) {
        workers.reserve(opts.jobs);
        for (unsigned i = 0; i < opts.jobs; ++i)
            workers.emplace_back([this] { workerLoop(); });
    }
}

SweepService::~SweepService()
{
    {
        std::lock_guard<std::mutex> lock(poolMutex);
        stopping = true;
    }
    poolCv.notify_all();
    for (auto &w : workers)
        w.join();
}

void
SweepService::workerLoop()
{
    for (;;) {
        std::packaged_task<RunResult()> task;
        {
            std::unique_lock<std::mutex> lock(poolMutex);
            poolCv.wait(lock,
                        [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return;     // stopping and drained
            task = std::move(queue.front());
            queue.pop_front();
        }
        task();
    }
}

bool
SweepService::retryable(RunStatus s) const
{
    for (RunStatus r : opts.retryOn)
        if (r == s)
            return true;
    return false;
}

std::vector<double>
SweepService::backoffScheduleMs(const SweepServiceOptions &options,
                                const std::string &hashHex)
{
    // Per-job seed: fold the leading 16 hex digits of the hash into
    // the sweep-level seed, so the schedule is deterministic for a
    // given (options, job) but jobs don't retry in lock step.
    std::uint64_t h = 0;
    for (char c : hashHex.substr(0, 16)) {
        h <<= 4;
        if (c >= '0' && c <= '9')
            h |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            h |= static_cast<std::uint64_t>(c - 'a' + 10);
    }
    Rng rng(options.backoffSeed ^ h);
    std::vector<double> out;
    double base = options.backoffBaseMs;
    for (unsigned i = 0; i + 1 < options.maxAttempts; ++i) {
        double jitter =
            0.5 + static_cast<double>(rng.next() >> 11) /
                      static_cast<double>(1ull << 53);
        out.push_back(base * jitter);
        base *= 2.0;
    }
    return out;
}

SweepJob
SweepService::effectiveJob(const SweepJob &job,
                           const std::string &hash) const
{
    SweepJob eff = job;

    // Collision-free forensics: parallel jobs sharing one configured
    // forensicsPath each get a per-job file derived from the hash, so
    // two failing jobs can no longer race on the same report.
    if (!eff.opts.check.forensicsPath.empty()) {
        std::string p = eff.opts.check.forensicsPath;
        std::string tag = "." + hash.substr(0, 16);
        auto slash = p.find_last_of('/');
        auto dot = p.find_last_of('.');
        if (dot != std::string::npos &&
            (slash == std::string::npos || dot > slash))
            p.insert(dot, tag);
        else
            p += tag;
        eff.opts.check.forensicsPath = std::move(p);
    }

    if (opts.wallDeadlineSec > 0.0)
        eff.opts.wallDeadlineSec = opts.wallDeadlineSec;
    return eff;
}

RunResult
SweepService::runAttempt(const SweepJob &job, unsigned attempt)
{
    if (opts.isolate)
        return runIsolated(job, attempt);
    if (opts.preRunHook)
        opts.preRunHook(job, attempt);
    return runWorkload(job.design, job.workload, job.scale, job.opts);
}

RunResult
SweepService::runIsolated(const SweepJob &job, unsigned attempt)
{
    auto failure = [&](const char *why) {
        RunResult r;
        r.workload = job.workload;
        r.design = designName(job.design);
        r.status = RunStatus::worker_lost;
        r.message = why;
        return r;
    };

    int fds[2];
    if (::pipe(fds) != 0)
        return failure("pipe() failed for isolated worker");

    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return failure("fork() failed for isolated worker");
    }

    if (pid == 0) {
        // Worker child: run the simulation, ship the serialized result
        // through the pipe, and _exit without running any atexit or
        // static destructors inherited from the parent.
        ::close(fds[0]);
        try {
            if (opts.preRunHook)
                opts.preRunHook(job, attempt);
            RunResult r = runWorkload(job.design, job.workload,
                                      job.scale, job.opts);
            std::string payload = runResultToJson(r).dump(0);
            std::uint64_t len = payload.size();
            bool ok = ::write(fds[1], &len, sizeof(len)) ==
                      static_cast<ssize_t>(sizeof(len));
            std::size_t off = 0;
            while (ok && off < payload.size()) {
                ssize_t n = ::write(fds[1], payload.data() + off,
                                    payload.size() - off);
                if (n < 0)
                    ok = false;
                else
                    off += static_cast<std::size_t>(n);
            }
            ::_exit(ok ? 0 : 3);
        } catch (...) {
            ::_exit(3);
        }
    }

    // Parent: supervise. A wall-clock budget is enforced here with
    // poll(); a worker that blows it is killed and reported as
    // RunStatus::deadline (the in-child watchdog hook usually fires
    // first and exits cleanly with the same status).
    ::close(fds[1]);
    auto start = std::chrono::steady_clock::now();
    bool deadlineKill = false;
    std::string payload;
    std::uint64_t want = 0;
    std::size_t lenGot = 0;
    bool shortRead = false;

    auto readSome = [&](void *buf, std::size_t n) -> ssize_t {
        if (opts.wallDeadlineSec > 0.0) {
            std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            double leftSec = opts.wallDeadlineSec - elapsed.count();
            if (leftSec <= 0.0)
                return -2;      // deadline
            struct pollfd pfd = {fds[0], POLLIN, 0};
            int pr = ::poll(&pfd, 1,
                            static_cast<int>(leftSec * 1000.0) + 1);
            if (pr == 0)
                return -2;      // deadline
            if (pr < 0)
                return -1;
        }
        return ::read(fds[0], buf, n);
    };

    for (;;) {
        if (lenGot < sizeof(want)) {
            ssize_t n = readSome(
                reinterpret_cast<char *>(&want) + lenGot,
                sizeof(want) - lenGot);
            if (n == -2) {
                deadlineKill = true;
                break;
            }
            if (n <= 0) {
                shortRead = true;
                break;
            }
            lenGot += static_cast<std::size_t>(n);
            if (lenGot == sizeof(want)) {
                if (want > (64u << 20)) {   // implausible: corrupt
                    shortRead = true;
                    break;
                }
                payload.reserve(want);
            }
            continue;
        }
        if (payload.size() >= want)
            break;
        char buf[65536];
        std::size_t chunk = want - payload.size();
        if (chunk > sizeof(buf))
            chunk = sizeof(buf);
        ssize_t n = readSome(buf, chunk);
        if (n == -2) {
            deadlineKill = true;
            break;
        }
        if (n <= 0) {
            shortRead = true;
            break;
        }
        payload.append(buf, static_cast<std::size_t>(n));
    }

    if (deadlineKill)
        ::kill(pid, SIGKILL);
    ::close(fds[0]);

    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);

    if (deadlineKill) {
        RunResult r = failure("worker exceeded wall-clock deadline; "
                              "killed");
        r.status = RunStatus::deadline;
        return r;
    }
    if (shortRead || payload.size() < want) {
        char msg[128];
        if (WIFSIGNALED(wstatus))
            std::snprintf(msg, sizeof(msg),
                          "worker killed by signal %d (%s)",
                          WTERMSIG(wstatus),
                          strsignal(WTERMSIG(wstatus)));
        else
            std::snprintf(msg, sizeof(msg),
                          "worker exited without a result (status %d)",
                          WIFEXITED(wstatus) ? WEXITSTATUS(wstatus)
                                             : -1);
        return failure(msg);
    }

    try {
        return runResultFromJson(Json::parse(payload));
    } catch (const SimError &e) {
        return failure("worker result unparsable");
    }
}

RunResult
SweepService::runJob(SweepJob job)
{
    if (stopRequested())
        throw SweepInterrupted();

    const std::string hash = jobHashHex(job);
    const bool cacheable = jobCacheable(job);
    unsigned priorAttempts = 0;

    if (cacheable) {
        RunResult stored;
        unsigned storedAttempts = 0;
        if (journal.isOpen() &&
            journal.lookup(hash, &stored, &storedAttempts)) {
            // A journaled entry is final when it succeeded, failed
            // non-retryably, or already exhausted the retry budget.
            // Otherwise the sweep was interrupted mid-retry: resume
            // the loop below with the remaining budget instead of
            // replaying a failure that still had attempts left.
            bool exhausted = storedAttempts >= opts.maxAttempts;
            if (stored.ok() || !retryable(stored.status) || exhausted) {
                nJournalHits.fetch_add(1, std::memory_order_relaxed);
                if (!stored.ok()) {
                    nFailed.fetch_add(1, std::memory_order_relaxed);
                    if (exhausted && retryable(stored.status))
                        quarantineJob(effectiveJob(job, hash), hash,
                                      stored.status, storedAttempts);
                }
                return stored;
            }
            priorAttempts = storedAttempts;
        } else if (cache.enabled() && cache.lookup(hash, &stored)) {
            nCacheHits.fetch_add(1, std::memory_order_relaxed);
            // Journal the cache hit too: resume must not depend on
            // the cache still being intact.
            if (journal.isOpen())
                journal.append(hash, job, 0, "cache", stored);
            return stored;
        }
    }

    SweepJob eff = effectiveJob(job, hash);
    const std::vector<double> backoffMs = backoffScheduleMs(opts, hash);
    RunResult r;
    unsigned attempt = priorAttempts;
    auto simStart = std::chrono::steady_clock::now();
    for (;;) {
        nSimulated.fetch_add(1, std::memory_order_relaxed);
        r = runAttempt(eff, attempt);
        ++attempt;
        if (r.ok() || !retryable(r.status) ||
            attempt >= opts.maxAttempts || stopRequested())
            break;
        nRetries.fetch_add(1, std::memory_order_relaxed);
        // Here 1 <= attempt < maxAttempts = backoffMs.size() + 1.
        double delayMs = backoffMs[attempt - 1];
        warn("%s on %s: %s (attempt %u/%u); retrying in %.0f ms",
             eff.workload.c_str(), designName(eff.design),
             runStatusName(r.status), attempt, opts.maxAttempts,
             delayMs);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delayMs));
    }

    if (!r.ok()) {
        nFailed.fetch_add(1, std::memory_order_relaxed);
        if (attempt >= opts.maxAttempts && retryable(r.status))
            quarantineJob(eff, hash, r.status, attempt);
    }

    if (cacheable) {
        if (journal.isOpen()) {
            std::chrono::duration<double, std::milli> wall =
                std::chrono::steady_clock::now() - simStart;
            journal.append(hash, job, attempt, "sim", r, wall.count());
        }
        if (r.ok() && cache.enabled())
            cache.store(hash, r);
    }
    return r;
}

void
SweepService::quarantineJob(const SweepJob &eff, const std::string &hash,
                            RunStatus status, unsigned attempts)
{
    std::lock_guard<std::mutex> lock(qm);
    quarantine.push_back({hash, designName(eff.design), eff.workload,
                          status, attempts,
                          eff.opts.check.forensicsPath});
}

std::future<RunResult>
SweepService::submit(SweepJob job)
{
    nSubmitted.fetch_add(1, std::memory_order_relaxed);
    std::packaged_task<RunResult()> task(
        [this, job = std::move(job)]() mutable {
            return runJob(std::move(job));
        });
    auto fut = task.get_future();
    if (workers.empty()) {
        // jobs() == 1: run now, on the submitting thread.
        task();
        return fut;
    }
    {
        std::lock_guard<std::mutex> lock(poolMutex);
        bvl_assert(!stopping, "submit() on a stopped SweepService");
        queue.push_back(std::move(task));
    }
    poolCv.notify_one();
    return fut;
}

std::vector<SweepService::QuarantineRecord>
SweepService::quarantined() const
{
    std::lock_guard<std::mutex> lock(qm);
    return quarantine;
}

SweepService::Summary
SweepService::summary() const
{
    Summary s;
    s.submitted = nSubmitted.load(std::memory_order_relaxed);
    s.simulated = nSimulated.load(std::memory_order_relaxed);
    s.journalHits = nJournalHits.load(std::memory_order_relaxed);
    s.cacheHits = nCacheHits.load(std::memory_order_relaxed);
    s.retries = nRetries.load(std::memory_order_relaxed);
    s.failed = nFailed.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(qm);
        s.quarantines = quarantine.size();
    }
    s.interrupted = stopRequested();
    const auto &cacheStore = ContentStore::counters(ResultCache::kKind);
    s.cacheCorrupt = cacheStore.corrupt;
    s.cacheDegraded = cacheStore.storesDisabled;
    const auto &farm = ContentStore::counters(CheckpointFarm::kKind);
    s.farmHits = farm.hits;
    s.farmProduced = farm.produced;
    s.farmCorrupt = farm.corrupt;
    s.farmEvicted = farm.evicted;
    s.farmDegraded = farm.storesDisabled;
    s.tmpCleaned = io::ioTempsCleaned();
    s.ioFaults = io::ioFaultsFired();
    s.journalDegraded = journal.degraded();
    return s;
}

std::string
SweepService::summaryLine() const
{
    Summary s = summary();
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "bvl-sweep-summary: submitted=%llu simulated=%llu "
        "journal_hits=%llu cache_hits=%llu cache_corrupt=%llu "
        "retries=%llu quarantined=%llu failed=%llu interrupted=%d "
        "farm_hits=%llu farm_produced=%llu farm_corrupt=%llu "
        "farm_evicted=%llu tmp_cleaned=%llu io_faults=%llu "
        "journal_degraded=%d cache_degraded=%d farm_degraded=%d",
        (unsigned long long)s.submitted, (unsigned long long)s.simulated,
        (unsigned long long)s.journalHits,
        (unsigned long long)s.cacheHits,
        (unsigned long long)s.cacheCorrupt,
        (unsigned long long)s.retries, (unsigned long long)s.quarantines,
        (unsigned long long)s.failed, s.interrupted ? 1 : 0,
        (unsigned long long)s.farmHits,
        (unsigned long long)s.farmProduced,
        (unsigned long long)s.farmCorrupt,
        (unsigned long long)s.farmEvicted,
        (unsigned long long)s.tmpCleaned,
        (unsigned long long)s.ioFaults,
        s.journalDegraded ? 1 : 0, s.cacheDegraded ? 1 : 0,
        s.farmDegraded ? 1 : 0);
    return buf;
}

} // namespace bvl
