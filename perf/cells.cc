#include "cells.hh"

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "sim/logging.hh"
#include "sim/watchdog.hh"
#include "sweep/service/digest.hh"

namespace perf
{

using namespace bvl;

namespace
{

// The paper's Fig-4 suite (Tables IV/V and the Ligra apps) and the
// Swan-style mobile tier, as the figure benches list them.
const std::vector<std::string> dataParallel = {
    "vvadd", "mmult", "saxpy", "backprop", "kmeans", "blackscholes",
    "particlefilter", "jacobi-2d", "pathfinder", "lavamd", "sw"};
const std::vector<std::string> taskParallel = {
    "bfs", "bc", "tc", "radii", "components", "pagerank", "mis", "kcore"};
const std::vector<std::string> mobile = {
    "idct8", "ycbcr", "conv2d", "gemm8", "bytescan"};

void
addCells(Grid &g, const std::vector<std::string> &names,
         const std::vector<Design> &designs)
{
    for (const auto &n : names)
        for (Design d : designs)
            g.cells.push_back({n, d});
}

} // namespace

std::optional<Grid>
makeGrid(const std::string &name)
{
    Grid g;
    g.name = name;
    if (name == "dp-big") {
        g.scale = Scale::small;
        addCells(g, dataParallel, {Design::d1b});
    } else if (name == "dp-vlittle") {
        g.scale = Scale::small;
        addCells(g, dataParallel, {Design::d1b4VL, Design::d1bDV});
        addCells(g, mobile, {Design::d1b4VL, Design::d1bDV});
    } else if (name == "tp-ligra") {
        g.scale = Scale::small;
        addCells(g, taskParallel, {Design::d1b4L});
    } else if (name == "sweep-tiny") {
        // fig04_speedup's grid: 1L plus the six other systems.
        g.scale = Scale::tiny;
        g.viaService = true;
        const std::vector<Design> all = {
            Design::d1L, Design::d1b, Design::d1bIV, Design::d1b4L,
            Design::d1bIV4L, Design::d1bDV, Design::d1b4VL};
        addCells(g, taskParallel, all);
        addCells(g, dataParallel, all);
    } else {
        return std::nullopt;
    }
    return g;
}

const char *
scaleName(Scale s)
{
    switch (s) {
      case Scale::tiny: return "tiny";
      case Scale::small: return "small";
      case Scale::medium: return "medium";
    }
    return "?";
}

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace
{

double
probeLoop()
{
    const std::size_t n = std::size_t(1) << 22;   // 16 MiB of u32
    void *mem = ::mmap(nullptr, n * sizeof(std::uint32_t),
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
    if (mem == MAP_FAILED)
        return -1.0;
    auto *a = static_cast<std::uint32_t *>(mem);
    for (std::size_t i = 0; i < n; ++i)     // fault every page in, untimed
        a[i] = static_cast<std::uint32_t>(i);
    std::uint64_t x = 88172645463325252ull, sum = 0;
    double t0 = nowSec();
    for (int i = 0; i < 3000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint32_t &v = a[x & (n - 1)];
        if (v & 1)
            sum += v;
        else
            v += static_cast<std::uint32_t>(x);
    }
    double t = nowSec() - t0;
    // Keep the loop's result live.
    return sum == 1 ? t + 1e-12 : t;
}

} // namespace

double
probeSeconds()
{
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("probe: pipe() failed");
    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        throw std::runtime_error("probe: fork() failed");
    }
    if (pid == 0) {
        ::close(fds[0]);
        double t = probeLoop();
        bool ok = ::write(fds[1], &t, sizeof(t)) == sizeof(t);
        ::_exit(ok && t > 0.0 ? 0 : 1);
    }
    ::close(fds[1]);
    double t = 0.0;
    bool got = ::read(fds[0], &t, sizeof(t)) == sizeof(t);
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0 || t <= 0.0)
        throw std::runtime_error("probe: child failed");
    return t;
}

std::uint64_t
SpanLog::add(std::string name, std::uint64_t parent, std::uint64_t trace,
             double start, double end)
{
    std::uint64_t id = all.size() + 1;
    all.push_back({std::move(name), id, parent, trace, start, end});
    return id;
}

double
SpanLog::total(const std::string &name) const
{
    double sum = 0.0;
    for (const auto &s : all)
        if (s.name == name)
            sum += s.end - s.start;
    return sum;
}

std::string
SpanLog::chromeJson() const
{
    double origin = all.empty() ? 0.0 : all.front().start;
    for (const auto &s : all)
        origin = std::min(origin, s.start);
    std::string out = "{\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"id\":%llu,\"parent\":%llu,\"trace\":%llu}}",
                      i ? "," : "", s.name.c_str(),
                      (s.start - origin) * 1e6, (s.end - s.start) * 1e6,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.trace));
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

CellRun
runCell(const Cell &cell, Scale scale, SpanLog *spans, std::uint64_t trace)
{
    // Mirrors runWorkload(design, name, scale, RunOptions{}) step by
    // step; sameSimulation() against the real call keeps it honest.
    const RunOptions opts;
    LogCapture capture;
    CellRun out;
    RunResult &r = out.result;
    r.workload = cell.workload;
    r.design = designName(cell.design);

    double t0 = nowSec();
    WorkloadPtr w = makeWorkload(cell.workload, scale);
    double t1 = nowSec();
    double t2 = t1, t3 = t1, t4 = t1, t5 = t1, t6 = t1;
    {
        std::unique_ptr<Soc> soc;
        std::unique_ptr<WsRuntime> runtime;
        bool done = false;
        bool finished = false;
        try {
            if (!w)
                fatal("unknown workload '%s'", cell.workload.c_str());
            r.workload = w->name();

            SocParams sp;
            sp.design = cell.design;
            sp.bigFreqGhz = opts.bigGhz;
            sp.littleFreqGhz = opts.littleGhz;
            sp.faults = opts.faults;
            sp.check = opts.check;
            sp.trace = opts.trace;
            soc = std::make_unique<Soc>(std::move(sp));
            t2 = nowSec();

            w->init(soc->backing);
            t3 = nowSec();

            const Design d = cell.design;
            soc->armLockstep(w->isDataParallel() && d != Design::d1b4L &&
                             d != Design::d1bIV4L);
            auto onDone = [&] { done = true; };
            runtime = std::make_unique<WsRuntime>(*soc);
            runtime->registerProgress(soc->watchdog);
            const unsigned nLittle =
                static_cast<unsigned>(soc->littles.size());
            if (w->isDataParallel()) {
                switch (d) {
                  case Design::d1L:
                    soc->littles[0]->runProgram(w->scalarProgram(),
                                                w->fullRangeArgs(), onDone);
                    break;
                  case Design::d1b:
                    soc->big->runProgram(w->scalarProgram(),
                                         w->fullRangeArgs(), onDone);
                    break;
                  case Design::d1bIV:
                  case Design::d1bDV:
                  case Design::d1b4VL: {
                    ProgramPtr prog = w->vectorProgram();
                    if (!prog)
                        fatal("%s has no vector program",
                              cell.workload.c_str());
                    soc->big->runProgram(prog, w->fullRangeArgs(), onDone);
                    break;
                  }
                  case Design::d1b4L:
                  case Design::d1bIV4L:
                    runtime->run(w->taskGraph(), true, nLittle,
                                 d == Design::d1bIV4L, onDone);
                    break;
                }
            } else {
                unsigned littles = nLittle;
                if (d == Design::d1L)
                    littles = 1;
                else if (d == Design::d1b || d == Design::d1bIV ||
                         d == Design::d1bDV)
                    littles = 0;
                runtime->run(w->taskGraph(), d != Design::d1L, littles,
                             false, onDone);
            }
            soc->watchdog.setInterval(
                static_cast<Tick>(opts.watchdogIntervalNs * ticksPerNs));
            soc->watchdog.setWallDeadline(opts.wallDeadlineSec);
            soc->watchdog.arm();
            t4 = nowSec();

            AllocTotals a0 = allocTotals();
            finished = soc->runUntil([&] { return done; },
                                     static_cast<Tick>(opts.limitNs *
                                                       ticksPerNs));
            AllocTotals a1 = allocTotals();
            out.runAllocs = {a1.calls - a0.calls, a1.bytes - a0.bytes};
            t5 = nowSec();

            if (finished) {
                r.status = RunStatus::ok;
                r.verified = w->verify(soc->backing);
                if (!r.verified) {
                    r.status = RunStatus::verify_failed;
                    r.message = "result verification failed";
                }
            } else if (soc->eq.empty()) {
                r.status = RunStatus::deadlock;
                r.message = "event queue drained before completion";
            } else {
                r.status = RunStatus::time_limit;
                r.message = "simulated-time limit expired";
            }
            t6 = nowSec();
        } catch (const DeadlockError &e) {
            r.status = RunStatus::deadlock;
            r.message = e.what();
        } catch (const SimError &e) {
            r.status = RunStatus::sim_error;
            r.message = e.what();
        }

        if (soc) {
            soc->watchdog.disarm();
            r.finished = finished;
            r.ns = soc->elapsedNs();
            r.ifetchReqs = soc->stats.value("sys.ifetchReqs");
            r.dataReqs = soc->stats.value("sys.dataReqs");
            r.bigFetched = soc->stats.value("big.fetched");
            for (const auto &kv : soc->stats.all())
                r.stats[kv.first] = kv.second.value();
            out.events = soc->eq.executed();
        }
    }
    // The Soc, runtime and workload are torn down here, as they are
    // when runWorkload returns; the cell's wall time includes it.
    w.reset();
    double tEnd = nowSec();
    r.log = capture.take();

    out.build = t1 - t0;
    out.construct = t2 - t1;
    out.init = t3 - t2;
    out.wall = tEnd - t0;

    if (spans) {
        std::uint64_t root = spans->add("cell", 0, trace, t0, tEnd);
        spans->add("workloads.build", root, trace, t0, t1);
        spans->add("soc.construct", root, trace, t1, t2);
        spans->add("workloads.init", root, trace, t2, t3);
        spans->add("dispatch", root, trace, t3, t4);
        spans->add("soc.run", root, trace, t4, t5);
        spans->add("workloads.verify", root, trace, t5, t6);
    }
    return out;
}

bool
sameSimulation(const RunResult &a, const RunResult &b, std::string *why)
{
    auto differ = [&](const std::string &what) {
        if (why)
            *why = a.workload + " on " + a.design + ": " + what +
                   " differs";
        return false;
    };
    if (a.workload != b.workload || a.design != b.design)
        return differ("cell identity");
    if (a.status != b.status)
        return differ("status");
    if (a.finished != b.finished || a.verified != b.verified)
        return differ("finished/verified");
    if (a.ns != b.ns)
        return differ("simulated ns");
    if (a.ifetchReqs != b.ifetchReqs || a.dataReqs != b.dataReqs ||
        a.bigFetched != b.bigFetched)
        return differ("figure series");
    if (a.stats != b.stats) {
        for (const auto &kv : a.stats)
            if (b.stat(kv.first) != kv.second)
                return differ("stat " + kv.first);
        return differ("stat set");
    }
    return true;
}

bool
cellPassed(const RunResult &r)
{
    return r.ok() && r.verified;
}

std::string
digestOf(std::vector<RunResult> results)
{
    std::sort(results.begin(), results.end(),
              [](const RunResult &a, const RunResult &b) {
                  return a.workload != b.workload ? a.workload < b.workload
                                                  : a.design < b.design;
              });
    std::string text;
    char ns[64];
    for (const auto &r : results) {
        // %.17g round-trips every double exactly.
        std::snprintf(ns, sizeof(ns), "%.17g", r.ns);
        text += r.workload + "\t" + r.design + "\t" +
                runStatusName(r.status) + "\t" + ns + "\n";
        for (const auto &kv : r.stats)
            text += "\t" + kv.first + "=" + std::to_string(kv.second) +
                    "\n";
    }
    return sha256Hex(text);
}

} // namespace perf
