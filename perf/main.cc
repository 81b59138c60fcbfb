/**
 * @file
 * bvl_perf: runs one benchmark workload for a fixed host-time budget
 * and prints its metrics (README.md). Usage:
 *
 *   bvl_perf --workload <dp-big|dp-vlittle|tp-ligra|sweep-tiny>
 *            --seed <n> --seconds <s> --trace <0|1>
 *            [--revision <rev>] [--work-dir <dir>]
 *
 * A pass runs the workload's whole grid once; passes repeat while the
 * budget allows another, and every host time is the median over
 * passes. --trace 0 prints the end-to-end metrics; --trace 1 runs
 * untraced and traced passes alternately and prints the per-layer
 * metrics. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}; the exit code is 0
 * only if every cell of every pass finished, verified and matched.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "alloc_count.hh"
#include "cells.hh"
#include "metrics.hh"
#include "sim/logging.hh"
#include "sweep/service/job_hash.hh"
#include "sweep/service/result_cache.hh"
#include "sweep/service/service.hh"

using namespace perf;
using namespace bvl;
namespace fs = std::filesystem;

namespace
{

/**
 * Digests of each workload's grid at the revision that defined the
 * benchmark. A change that only makes the simulator faster must keep
 * printing "digest_pinned": "match"; a change to the timing model
 * moves it on purpose and says so.
 */
const std::map<std::string, std::string> pinnedDigests = {
    {"dp-big",
     "fd922566387195e1cc82cdce6c9d7a704b1513eddf98d9ebf797c275729ef5b9"},
    {"dp-vlittle",
     "abdf58b22ceb84321566ca6678ae5e6be444c328abe1e37e1271c39e4ea0d414"},
    {"tp-ligra",
     "feb520f0f8329492026a789e7a98baafaad3441fd1c0c5c9f9ea48bed3cab207"},
    {"sweep-tiny",
     "20fef5b29ec64038a6ffc1fad26f800468a94273ff5f9e6ae228d9df99c404ae"},
};

struct Metric
{
    const char *name;
    const char *unit;
};

/** Printed with --trace 0; the same list as BENCHMARK.json. */
const std::vector<Metric> endToEnd = {
    {"wall_s", "s"},          {"setup_s", "s"},
    {"sim_mips", "MIPS"},     {"peak_rss_mb", "MB"},
    {"verified_frac", "fraction"},
};

/** Printed with --trace 1; the same list as BENCHMARK.json. */
const std::vector<Metric> perLayer = {
    {"workloads.build_s", "s"},
    {"workloads.init_s", "s"},
    {"workloads.verify_s", "s"},
    {"soc.construct_s", "s"},
    {"dispatch_s", "s"},
    {"soc.run_s", "s"},
    {"soc.sim_ns", "ns"},
    {"sim.events", "count"},
    {"sim.events_per_kinst", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.allocs_per_kinst", "count"},
    {"sim.alloc_bytes_per_kinst", "bytes"},
    {"cpu.big.retired", "count"},
    {"cpu.big.cycles", "count"},
    {"cpu.big.host_ns_per_cycle", "ns"},
    {"cpu.little.retired", "count"},
    {"cpu.little.cycles", "count"},
    {"cpu.little.host_ns_per_cycle", "ns"},
    {"core.uops", "count"},
    {"core.cycles", "count"},
    {"core.vmu_line_reqs", "count"},
    {"core.host_ns_per_uop", "ns"},
    {"mem.l1d_accesses", "count"},
    {"mem.l2_accesses", "count"},
    {"mem.dram_reads", "count"},
    {"mem.accesses_per_kinst", "count"},
    {"runtime.steals", "count"},
    {"runtime.pops", "count"},
    {"runtime.overhead_cycles", "count"},
    {"sweep.overhead_ms_per_cell", "ms"},
    {"sweep.parallel_efficiency", "ratio"},
    {"sweep.replay_ms_per_cell", "ms"},
    {"sweep.bytes_written", "bytes"},
    {"trace.overhead_s", "s"},
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string revision = "unknown";
    std::string workDir = ".bench_build/work";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "bvl_perf: %s\nusage: bvl_perf --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--revision <rev>] [--work-dir <dir>]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace" && (v == "0" || v == "1"))
                a.trace = v == "1";
            else if (k == "--revision")
                a.revision = v;
            else if (k == "--work-dir")
                a.workDir = v;
            else
                usage("bad argument " + k + " " + v);
        } catch (const std::exception &) {
            usage("bad value for " + k + ": " + v);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

unsigned
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

std::uint64_t
bytesUnder(const fs::path &dir)
{
    std::uint64_t sum = 0;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (ec)
            break;
        if (it->is_regular_file(ec))
            sum += it->file_size(ec);
    }
    return sum;
}

/** Everything one run accumulates across its passes. */
class Bench
{
  public:
    Bench(Args args, Grid grid)
        : a(std::move(args)), g(std::move(grid)),
          workers(std::min(4u, hostCpus()))
    {
        std::mt19937_64 rng(a.seed);
        std::shuffle(g.cells.begin(), g.cells.end(), rng);
        root = fs::path(a.workDir) / (g.name + "-" +
                                      std::to_string(::getpid()));
        fs::remove_all(root);
        fs::create_directories(root);
    }

    ~Bench()
    {
        std::error_code ec;
        fs::remove_all(root, ec);
    }

    int run();

  private:
    /** One pass over the grid, its host times and results. */
    struct Pass
    {
        double wall = 0.0;    ///< raw host seconds, probes excluded
        double setup = 0.0;
        double probe = 0.0;   ///< mean probeSeconds() around the pass
        std::vector<RunResult> results;
        std::vector<CellRun> cells;   ///< serial passes only

        /** Factor that brings this pass's host times to probe speed. */
        double scale() const { return kProbeRefSec / probe; }
    };

    Pass serialPass(SpanLog *spans);
    Pass servicePass(unsigned jobs, SpanLog *spans);
    double replay(SpanLog *spans);
    void prepareReplayCache(const std::vector<RunResult> &results);
    void record(const std::vector<RunResult> &results);
    void check(bool ok, const std::string &what);
    double tracedPass();
    void sampleServiceSetup();
    void printContext(double traceOverhead);

    fs::path freshDir(const std::string &tag)
    {
        fs::path p = root / (tag + std::to_string(++dirSeq));
        fs::create_directories(p);
        return p;
    }

    Args a;
    Grid g;
    unsigned workers;
    fs::path root;
    unsigned dirSeq = 0;

    // Correctness across the whole run.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool mismatch = false;
    std::string digest;
    std::vector<RunResult> firstResults;
    fs::path replayCache;

    // Untraced samples (one per pass unless noted).
    // Host times of simulating passes are scaled to probe speed
    // (Pass::scale); the raw pass walls and probe times go to the
    // context line. Replays and service construction run no
    // simulation and are bound by system calls and the filesystem,
    // which the probe does not follow, so they stay raw.
    std::vector<double> walls, setups, mips, rawWalls, probes;
    unsigned passes = 0;

    // Traced samples and per-layer values.
    std::vector<double> tracedWalls;
    std::map<std::string, std::vector<double>> layerTimes;
    std::map<std::string, double> layerCounts;
};

void
Bench::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    if (!mismatch)
        std::fprintf(stderr, "bvl_perf: check failed: %s\n", what.c_str());
    mismatch = true;
}

void
Bench::record(const std::vector<RunResult> &results)
{
    for (const auto &r : results) {
        ++attempted;
        if (!cellPassed(r)) {
            ++failed;
            std::fprintf(stderr, "bvl_perf: %s on %s: %s %s\n",
                         r.workload.c_str(), r.design.c_str(),
                         runStatusName(r.status), r.message.c_str());
        }
    }
    std::string d = digestOf(results);
    if (digest.empty()) {
        digest = d;
        firstResults = results;
    }
    check(d == digest, "simulated results differ between passes");
}

Bench::Pass
Bench::serialPass(SpanLog *spans)
{
    // About four probes spread over the pass and one after it. They
    // are not part of the pass: its wall is the sum of its cells.
    const std::size_t stride = std::max<std::size_t>(1, g.cells.size() / 4);
    Pass p;
    double probes = 0.0;
    unsigned nProbes = 0;
    for (std::size_t i = 0; i < g.cells.size(); ++i) {
        if (i % stride == 0) {
            probes += probeSeconds();
            ++nProbes;
        }
        p.cells.push_back(runCell(g.cells[i], g.scale, spans,
                                  spans ? spans->spans().size() + 1 : 0));
        p.setup += p.cells.back().setup();
        p.wall += p.cells.back().wall;
    }
    p.probe = (probes + probeSeconds()) / (nProbes + 1);
    for (const auto &c : p.cells)
        p.results.push_back(c.result);
    return p;
}

Bench::Pass
Bench::servicePass(unsigned jobs, SpanLog *spans)
{
    fs::path dir = freshDir("cold");
    SweepServiceOptions o;
    o.jobs = jobs;
    o.journalPath = (dir / "journal.jsonl").string();
    o.cacheDir = (dir / "cache").string();

    Pass p;
    p.probe = probeSeconds();
    double t0 = nowSec();
    {
        SweepService svc(o);
        double t1 = nowSec();
        p.setup = t1 - t0;
        std::vector<std::future<RunResult>> futures;
        for (const Cell &c : g.cells)
            futures.push_back(
                svc.submit({c.design, c.workload, g.scale, RunOptions{}}));
        double t2 = nowSec();
        for (auto &f : futures)
            p.results.push_back(f.get());
        double t3 = nowSec();
        p.wall = t3 - t0;
        if (spans) {
            spans->add("sweep.construct", 0, 0, t0, t1);
            spans->add("sweep.submit", 0, 0, t1, t2);
            spans->add("sweep.get", 0, 0, t2, t3);
        }
        check(svc.summary().simulated == g.cells.size(),
              "cold sweep pass did not simulate every cell");
    }
    p.probe = 0.5 * (p.probe + probeSeconds());
    // Keep only the newest cold cache, which the replay pass reads.
    fs::path stale = dir;
    if (jobs == workers) {
        layerCounts["sweep.bytes_written"] =
            static_cast<double>(bytesUnder(dir));
        stale = replayCache.empty() ? fs::path() : replayCache.parent_path();
        replayCache = o.cacheDir;
    }
    std::error_code ec;
    if (!stale.empty())
        fs::remove_all(stale, ec);
    return p;
}

void
Bench::prepareReplayCache(const std::vector<RunResult> &results)
{
    // Serial workloads never write a cache themselves; publish their
    // results, untimed, so every workload has a replay side.
    replayCache = freshDir("replay");
    ResultCache cache;
    cache.setDir(replayCache.string());
    for (std::size_t i = 0; i < g.cells.size(); ++i)
        cache.store(jobHashHex({g.cells[i].design, g.cells[i].workload,
                                g.scale, RunOptions{}}),
                    results[i]);
}

double
Bench::replay(SpanLog *spans)
{
    // Cache only, no journal: the read side of the sweep layer. A small
    // grid is replayed for several rounds, so that every sample makes
    // about as many lookups as sweep-tiny's 133 cells; the time is per
    // round.
    const std::size_t n = g.cells.size();
    const std::size_t rounds = std::max<std::size_t>(1, 128 / n);
    SweepServiceOptions o;
    o.jobs = workers;
    o.cacheDir = replayCache.string();
    std::vector<RunResult> results;
    double t0 = nowSec(), t1 = t0;
    {
        SweepService svc(o);
        std::vector<std::future<RunResult>> futures;
        for (std::size_t r = 0; r < rounds; ++r)
            for (const Cell &c : g.cells)
                futures.push_back(svc.submit(
                    {c.design, c.workload, g.scale, RunOptions{}}));
        for (auto &f : futures)
            results.push_back(f.get());
        t1 = nowSec();
        check(svc.summary().cacheHits == rounds * n,
              "replay missed the result cache");
    }
    if (spans)
        spans->add("sweep.replay", 0, 0, t0, t1);
    std::string why;
    for (std::size_t i = 0; i < results.size(); ++i)
        check(sameSimulation(results[i], firstResults[i % n], &why),
              "replay: " + why);
    return (t1 - t0) / rounds;
}

void
Bench::sampleServiceSetup()
{
    // Construction takes tens of microseconds. The first one creates
    // the journal, untimed; the timed ones reopen it, as a rerun in an
    // existing sweep directory does. Creating fresh files per sample
    // made the figure track the filesystem's pending metadata writes
    // from earlier runs instead of the service.
    fs::path dir = freshDir("setup");
    SweepServiceOptions o;
    o.jobs = workers;
    o.journalPath = (dir / "journal.jsonl").string();
    o.cacheDir = (dir / "cache").string();
    { SweepService first(o); }
    for (int i = 0; i < 100; ++i) {
        double t0 = nowSec();
        SweepService svc(o);
        setups.push_back(nowSec() - t0);
    }
    fs::remove_all(dir);
}

double
Bench::tracedPass()
{
    SpanLog spans;
    setAllocCounting(true);

    double tracedWall = 0.0;
    Pass cold;
    double serialWall = 0.0;
    if (g.viaService) {
        cold = servicePass(workers, &spans);
        tracedWall = cold.wall * cold.scale();
        record(cold.results);
        layerTimes["sweep.replay_ms_per_cell"].push_back(
            replay(&spans) * 1e3 / g.cells.size());
        Pass one = servicePass(1, nullptr);
        record(one.results);
        serialWall = one.wall * one.scale();
        layerTimes["sweep.parallel_efficiency"].push_back(
            serialWall / (workers * tracedWall));
    }
    // The decomposed serial pass gives the per-call spans and counts.
    Pass serial = serialPass(&spans);
    setAllocCounting(false);
    record(serial.results);
    const double k = serial.scale();
    if (!g.viaService) {
        tracedWall = serial.wall * k;
        if (replayCache.empty())
            prepareReplayCache(serial.results);
        layerTimes["sweep.replay_ms_per_cell"].push_back(
            replay(nullptr) * 1e3 / g.cells.size());
    }

    // runWorkload itself, untimed by the pass, must agree on every cell.
    double direct = 0.0;
    std::string why;
    for (std::size_t i = 0; i < g.cells.size(); ++i) {
        double t0 = nowSec();
        RunResult ref =
            runWorkload(g.cells[i].design, g.cells[i].workload, g.scale);
        direct += nowSec() - t0;
        ++attempted;
        check(sameSimulation(serial.results[i], ref, &why),
              "decomposition vs runWorkload: " + why);
        if (g.viaService)
            check(sameSimulation(cold.results[i], ref, &why),
                  "sweep service vs runWorkload: " + why);
    }
    if (g.viaService)
        layerTimes["sweep.overhead_ms_per_cell"].push_back(
            (serialWall - direct * k) * 1e3 / g.cells.size());

    SimCounts c;
    double simNs = 0.0, events = 0.0, allocs = 0.0, allocBytes = 0.0;
    for (const auto &cr : serial.cells) {
        c += countsOf(cr.result);
        simNs += cr.result.ns;
        events += static_cast<double>(cr.events);
        allocs += static_cast<double>(cr.runAllocs.calls);
        allocBytes += static_cast<double>(cr.runAllocs.bytes);
    }
    const double retired = static_cast<double>(c.retired());
    const double runS = spans.total("soc.run") * k;
    for (const char *name :
         {"workloads.build", "soc.construct", "workloads.init", "dispatch",
          "soc.run", "workloads.verify"})
        layerTimes[std::string(name) + "_s"].push_back(spans.total(name) *
                                                       k);
    layerTimes["sim.host_ns_per_event"].push_back(nsPer(runS, events));
    layerTimes["cpu.big.host_ns_per_cycle"].push_back(
        nsPer(runS, static_cast<double>(c.bigCycles)));
    layerTimes["cpu.little.host_ns_per_cycle"].push_back(
        nsPer(runS, static_cast<double>(c.littleCycles)));
    layerTimes["core.host_ns_per_uop"].push_back(
        nsPer(runS, static_cast<double>(c.coreUops)));

    auto count = [&](const char *name, double v) { layerCounts[name] = v; };
    count("soc.sim_ns", simNs);
    count("sim.events", events);
    count("sim.events_per_kinst", perKilo(events, retired));
    count("sim.allocs_per_kinst", perKilo(allocs, retired));
    count("sim.alloc_bytes_per_kinst", perKilo(allocBytes, retired));
    count("cpu.big.retired", static_cast<double>(c.bigRetired));
    count("cpu.big.cycles", static_cast<double>(c.bigCycles));
    count("cpu.little.retired", static_cast<double>(c.littleRetired));
    count("cpu.little.cycles", static_cast<double>(c.littleCycles));
    count("core.uops", static_cast<double>(c.coreUops));
    count("core.cycles", static_cast<double>(c.coreCycles));
    count("core.vmu_line_reqs", static_cast<double>(c.vmuLineReqs));
    count("mem.l1d_accesses", static_cast<double>(c.l1dAccesses));
    count("mem.l2_accesses", static_cast<double>(c.l2Accesses));
    count("mem.dram_reads", static_cast<double>(c.dramReads));
    count("mem.accesses_per_kinst",
          perKilo(static_cast<double>(c.memAccesses()), retired));
    count("runtime.steals", static_cast<double>(c.steals));
    count("runtime.pops", static_cast<double>(c.pops));
    count("runtime.overhead_cycles", static_cast<double>(c.overheadCycles));

    // Spans are written once per run, after the last traced pass.
    fs::path out = fs::path(a.workDir).parent_path() / "traces";
    fs::create_directories(out);
    std::ofstream(out / (g.name + ".json")) << spans.chromeJson();
    return tracedWall;
}

void
Bench::printContext(double traceOverhead)
{
    auto pin = pinnedDigests.find(g.name);
    const char *pinned = pin == pinnedDigests.end() ? "none"
                         : pin->second == digest   ? "match"
                                                   : "differs";
    std::printf("bvl-perf context: {\"workload\": \"%s\", "
                "\"revision\": \"%s\", \"build_type\": \"%s\", "
                "\"nproc\": %u, \"workers\": %u, \"scale\": \"%s\", "
                "\"seed\": %llu, \"cells\": %zu, \"passes\": %u, "
                "\"trace\": %d, \"trace_overhead_s\": %.6f, "
                "\"raw_wall_s\": %.6f, \"probe_s\": %.6f, "
                "\"digest\": \"%s\", \"digest_pinned\": \"%s\", "
                "\"inputs\": \"fixed by each workload's built-in seed; "
                "--seed shuffles cell order\"}\n",
                g.name.c_str(), a.revision.c_str(), BVL_PERF_BUILD_TYPE,
                hostCpus(), workers, scaleName(g.scale),
                static_cast<unsigned long long>(a.seed), g.cells.size(),
                passes, a.trace ? 1 : 0, traceOverhead, median(rawWalls),
                median(probes), digest.c_str(),
                pinned);
    std::printf("bvl-perf cell order:");
    for (const auto &c : g.cells)
        std::printf(" %s/%s", c.workload.c_str(), designName(c.design));
    std::printf("\n");
}

int
Bench::run()
{
    const double start = nowSec();
    if (g.viaService)
        sampleServiceSetup();
    for (;;) {
        // An untraced pass: the end-to-end numbers.
        Pass p = g.viaService ? servicePass(workers, nullptr)
                              : serialPass(nullptr);
        record(p.results);
        const double k = p.scale();
        rawWalls.push_back(p.wall);
        probes.push_back(p.probe);
        walls.push_back(p.wall * k);
        double retired = 0.0;
        for (const auto &r : p.results)
            retired += static_cast<double>(countsOf(r).retired());
        mips.push_back(simMips(retired, p.wall * k, p.setup * k));
        std::fprintf(stderr,
                     "bvl-perf pass %u: wall %.4f s, setup %.4f s, "
                     "probe %.4f s\n",
                     passes + 1, p.wall, p.setup, p.probe);
        if (!g.viaService)
            setups.push_back(p.setup * k);
        if (a.trace)
            tracedWalls.push_back(tracedPass());
        ++passes;
        if (mismatch || failed)
            break;
        double used = nowSec() - start;
        if (used + used / passes > a.seconds)
            break;
    }

    double traceOverhead =
        a.trace ? median(tracedWalls) - median(walls) : 0.0;
    printContext(traceOverhead);

    std::map<std::string, double> values;
    if (a.trace) {
        for (const auto &kv : layerTimes)
            values[kv.first] = median(kv.second);
        for (const auto &kv : layerCounts)
            values[kv.first] = kv.second;
        values["trace.overhead_s"] = traceOverhead;
    } else {
        values["wall_s"] = median(walls);
        values["setup_s"] = median(setups);
        values["sim_mips"] = median(mips);
        values["peak_rss_mb"] = peakRssMb();
        values["verified_frac"] =
            attempted ? static_cast<double>(attempted - failed) / attempted
                      : 0.0;
    }

    const bool correct = !mismatch && failed == 0 && attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const Metric &m : a.trace ? perLayer : endToEnd) {
        // A layer the workload does not use reads 0 (README.md).
        auto it = values.find(m.name);
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name,
                    it == values.end() ? 0.0 : it->second, m.unit);
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    auto grid = makeGrid(args.workload);
    if (!grid)
        usage("unknown workload '" + args.workload + "'");
    bvl::setVerbose(false);
    try {
        Bench bench(std::move(args), std::move(*grid));
        return bench.run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bvl_perf: %s\n", e.what());
        return 1;
    }
}
