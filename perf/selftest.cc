/**
 * @file
 * Self-test of the benchmark's own code: the metric arithmetic, the
 * digest, the allocation counter, and the check that the decomposed
 * cell runner reproduces runWorkload() exactly on one tiny cell per
 * design shape. Run it with `python3 perf/run.py --self-test`.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "alloc_count.hh"
#include "cells.hh"
#include "metrics.hh"
#include "sim/logging.hh"

using namespace perf;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

RunResult
fakeResult(const std::string &workload, const std::string &design,
           double ns)
{
    RunResult r;
    r.workload = workload;
    r.design = design;
    r.status = bvl::RunStatus::ok;
    r.finished = r.verified = true;
    r.ns = ns;
    r.stats = {{"big.retired", 1000},
               {"big.cycles", 4000},
               {"big.l1d.accesses", 300},
               {"little0.retired", 50},
               {"little12.retired", 7},
               {"little0.cycles", 900},
               {"little0.l1d.accesses", 20},
               {"little0.l1d.retired", 999},   // not a core counter
               {"littleX.retired", 999},       // not a little core
               {"vlittle.uopsBroadcast", 64},
               {"vlittle.cycles", 500},
               {"vlittle.loadLineReqs", 10},
               {"vlittle.storeLineReqs", 5},
               {"dve.uopsBroadcast", 36},
               {"dve.cycles", 100},
               {"ivu.uopsBroadcast", 1000},    // integrated unit: excluded
               {"l2.accesses", 80},
               {"dram.reads", 40},
               {"runtime.steals", 3},
               {"runtime.pops", 9},
               {"runtime.overheadCycles", 260}};
    return r;
}

void
testArithmetic()
{
    expect(median({}) == 0.0, "median of nothing is 0");
    expect(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd count");
    expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even count");
    expect(perKilo(5.0, 2000.0) == 2.5 && perKilo(5.0, 0.0) == 0.0,
           "perKilo scales and guards a zero base");
    expect(near(nsPer(2.0, 4e9), 0.5) && nsPer(1.0, 0.0) == 0.0,
           "nsPer converts seconds to ns per unit");
    expect(near(simMips(3e6, 2.5, 0.5), 1.5),
           "simMips divides by the simulation share of wall");
    expect(simMips(1e6, 1.0, 1.0) == 0.0,
           "simMips is 0 with no simulation time");
    double probe = probeSeconds();
    expect(probe > 0.0 && probe < 10.0,
           "the host-speed probe runs in a child and reports its time");

    SimCounts c = countsOf(fakeResult("w", "d", 1.0));
    expect(c.bigRetired == 1000 && c.littleRetired == 57 &&
               c.retired() == 1057,
           "retired = big.retired + sum of littleN.retired");
    expect(c.bigCycles == 4000 && c.littleCycles == 900,
           "core cycles");
    expect(c.coreUops == 100 && c.coreCycles == 600 && c.vmuLineReqs == 15,
           "engine counts sum vlittle. and dve. only");
    expect(c.l1dAccesses == 320 && c.l2Accesses == 80 &&
               c.memAccesses() == 400 && c.dramReads == 40,
           "memory counts");
    expect(c.steals == 3 && c.pops == 9 && c.overheadCycles == 260,
           "runtime counts");
    SimCounts twice = c;
    twice += c;
    expect(twice.retired() == 2114 && twice.coreUops == 200,
           "counts add up over cells");
}

void
testDigest()
{
    RunResult a = fakeResult("saxpy", "1b", 10.0);
    RunResult b = fakeResult("vvadd", "1b", 20.0);
    std::string d = digestOf({a, b});
    expect(d.size() == 64, "digest is a SHA-256 hex string");
    expect(digestOf({b, a}) == d, "digest ignores cell order");

    RunResult c = b;
    c.stats["l2.accesses"] += 1;
    expect(digestOf({a, c}) != d, "digest covers every stat");
    c = b;
    c.ns = std::nextafter(b.ns, 1e9);
    expect(digestOf({a, c}) != d, "digest covers every bit of ns");
    c = b;
    c.status = bvl::RunStatus::verify_failed;
    expect(digestOf({a, c}) != d, "digest covers the status");

    std::string why;
    expect(sameSimulation(b, b, &why), "a result matches itself");
    c = b;
    c.stats["runtime.pops"] += 1;
    expect(!sameSimulation(b, c, &why) &&
               why.find("runtime.pops") != std::string::npos,
           "sameSimulation names the differing stat");
}

void
testAllocCounter()
{
    setAllocCounting(true);
    AllocTotals before = allocTotals();
    auto p = std::make_unique<char[]>(1000);
    AllocTotals after = allocTotals();
    setAllocCounting(false);
    expect(p && after.calls == before.calls + 1 &&
               after.bytes == before.bytes + 1000,
           "allocation counter counts calls and bytes");
    auto q = std::make_unique<char[]>(10);
    expect(allocTotals().calls == after.calls,
           "allocation counter is off unless enabled");
}

void
testDecomposition()
{
    // One tiny cell per design shape: a single stream on a little and
    // on the big core, task graphs of both workload kinds, and both
    // vector engines.
    const Cell cells[] = {
        {"vvadd", Design::d1L},    {"saxpy", Design::d1b},
        {"kmeans", Design::d1b4L}, {"bfs", Design::d1b4L},
        {"bfs", Design::d1L},      {"saxpy", Design::d1b4VL},
        {"mmult", Design::d1bDV},  {"saxpy", Design::d1bIV4L},
    };
    for (const Cell &c : cells) {
        SpanLog spans;
        CellRun cr = runCell(c, Scale::tiny, &spans, 1);
        RunResult ref = bvl::runWorkload(c.design, c.workload, Scale::tiny);
        std::string why;
        std::string label = "runCell == runWorkload: " + c.workload +
                            " on " + bvl::designName(c.design);
        bool same = sameSimulation(cr.result, ref, &why);
        if (!same)
            std::printf("     %s\n", why.c_str());
        expect(same && cellPassed(cr.result) && cr.events > 0,
               label.c_str());
        expect(spans.spans().size() == 7 && spans.total("soc.run") > 0.0 &&
                   near(spans.total("cell"), cr.wall),
               "runCell records a root span and six children");
    }
}

} // namespace

int
main()
{
    bvl::setVerbose(false);
    testArithmetic();
    testDigest();
    testAllocCounter();
    testDecomposition();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED",
                failures);
    return failures ? 1 : 0;
}
