/**
 * @file
 * Unit tests for the scalar core timing models (little in-order core,
 * big out-of-order core): functional correctness under timing, stall
 * accounting invariants, memory-latency sensitivity, OoO speedup over
 * in-order, and branch-misprediction behaviour.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "cpu/big_core.hh"
#include "cpu/little_core.hh"
#include "mem/mem_system.hh"
#include "sim/clock_domain.hh"
#include "soc/run_driver.hh"

namespace bvl
{
namespace
{

struct CoreHarness
{
    CoreHarness()
        : uncore(eq, "uncore", 1.0), cores(eq, "cores", 1.0),
          sys(uncore, stats),
          little(cores, stats, sys, backing, 0, 512),
          big(cores, stats, sys, backing, 512)
    {}

    /** Run @p prog on the little core to completion, return cycles. */
    std::uint64_t
    runLittle(ProgramPtr prog,
              std::vector<std::pair<RegId, std::uint64_t>> args = {})
    {
        bool done = false;
        Tick start = eq.now();
        little.runProgram(std::move(prog), args, [&] { done = true; });
        while (!done && eq.step()) {}
        EXPECT_TRUE(done);
        return cores.ticksToCycles(eq.now() - start);
    }

    std::uint64_t
    runBig(ProgramPtr prog,
           std::vector<std::pair<RegId, std::uint64_t>> args = {})
    {
        bool done = false;
        Tick start = eq.now();
        big.runProgram(std::move(prog), args, [&] { done = true; });
        while (!done && eq.step()) {}
        EXPECT_TRUE(done);
        return cores.ticksToCycles(eq.now() - start);
    }

    EventQueue eq;
    ClockDomain uncore;
    ClockDomain cores;
    StatGroup stats;
    BackingStore backing;
    MemSystem sys;
    LittleCore little;
    BigCore big;
};

ProgramPtr
sumLoopProgram(int n)
{
    Asm a("sumloop");
    a.li(xreg(1), 0)
     .li(xreg(2), 0)
     .li(xreg(3), n)
     .label("loop")
     .add(xreg(2), xreg(2), xreg(1))
     .addi(xreg(1), xreg(1), 1)
     .blt(xreg(1), xreg(3), "loop")
     .halt();
    return a.finish();
}

/** Long chain of independent adds (ILP test). */
ProgramPtr
independentAddsProgram(int n)
{
    Asm a("indep");
    for (int i = 0; i < n; ++i)
        a.addi(xreg(1 + (i % 8)), xreg(0), i);
    a.halt();
    return a.finish();
}

TEST(CoreTest, LittleRunsLoopCorrectly)
{
    CoreHarness h;
    auto cycles = h.runLittle(sumLoopProgram(50));
    EXPECT_EQ(h.little.archState().getX(xreg(2)), 1225u);
    // 3 instructions per iteration, plus stalls: well under 20x.
    EXPECT_GT(cycles, 150u);
    EXPECT_LT(cycles, 2000u);
}

TEST(CoreTest, LittleStallCategoriesSumToCycles)
{
    CoreHarness h;
    h.runLittle(sumLoopProgram(100));
    std::uint64_t cycles = h.stats.value("little0.cycles");
    std::uint64_t sum = 0;
    for (auto cause : {"busy", "simd", "raw_mem", "raw_llfu", "struct",
                       "xelem", "misc"})
        sum += h.stats.value(std::string("little0.stall.") + cause);
    EXPECT_EQ(sum, cycles);
    EXPECT_EQ(h.stats.value("little0.stall.busy"),
              h.stats.value("little0.retired"));
}

TEST(CoreTest, LittleLoadLatencyShowsAsRawMem)
{
    CoreHarness h;
    // Pointer-chase-like: each load feeds the next address.
    for (int i = 0; i < 64; ++i)
        h.backing.writeT<std::uint64_t>(0x1000 + 8 * i, 0x1000 + 8 * (i + 1));
    Asm a("chase");
    a.li(xreg(1), 0x1000)
     .li(xreg(2), 0)
     .li(xreg(3), 32)
     .label("loop")
     .ld(xreg(1), xreg(1))
     .addi(xreg(2), xreg(2), 1)
     .blt(xreg(2), xreg(3), "loop")
     .halt();
    h.runLittle(a.finish());
    EXPECT_GT(h.stats.value("little0.stall.raw_mem"), 32u);
}

TEST(CoreTest, LittleDivStallsAsRawLlfu)
{
    CoreHarness h;
    Asm a("divs");
    a.li(xreg(1), 1000).li(xreg(2), 3);
    for (int i = 0; i < 10; ++i) {
        a.div_(xreg(3), xreg(1), xreg(2));
        a.addi(xreg(4), xreg(3), 1);   // immediately consume
    }
    a.halt();
    h.runLittle(a.finish());
    EXPECT_GT(h.stats.value("little0.stall.raw_llfu"), 50u);
}

TEST(CoreTest, BigBeatsLittleOnIlp)
{
    // Warm the instruction path first: the comparison is about issue
    // width, not cold-fetch DRAM latency.
    CoreHarness h;
    h.runLittle(independentAddsProgram(400));
    auto lcycles = h.runLittle(independentAddsProgram(400));
    CoreHarness h2;
    h2.runBig(independentAddsProgram(400));
    auto bcycles = h2.runBig(independentAddsProgram(400));
    // 3 ALUs + 4-wide vs single-issue.
    EXPECT_LT(bcycles * 2, lcycles);
}

TEST(CoreTest, BigProducesCorrectArchState)
{
    CoreHarness h;
    h.runBig(sumLoopProgram(80));
    EXPECT_EQ(h.big.archState().getX(xreg(2)), 80u * 79u / 2u);
}

TEST(CoreTest, BigStoreLoadDependencyOrdersCorrectly)
{
    CoreHarness h;
    Asm a("stld");
    a.li(xreg(1), 0x2000)
     .li(xreg(2), 42)
     .sd(xreg(2), xreg(1))
     .ld(xreg(3), xreg(1))
     .addi(xreg(4), xreg(3), 1)
     .halt();
    h.runBig(a.finish());
    EXPECT_EQ(h.big.archState().getX(xreg(4)), 43u);
}

TEST(CoreTest, BigMispredictsOnDataDependentBranches)
{
    CoreHarness h;
    // Alternate taken/not-taken in a data-dependent (parity) pattern
    // with short history warmup; expect some mispredictions but also
    // correct final state.
    Asm a("parity");
    a.li(xreg(1), 0)     // i
     .li(xreg(2), 0)     // acc
     .li(xreg(3), 200)
     .label("loop")
     .andi(xreg(4), xreg(1), 1)
     .beq(xreg(4), xreg(0), "even")
     .addi(xreg(2), xreg(2), 2)
     .j("next")
     .label("even")
     .addi(xreg(2), xreg(2), 1)
     .label("next")
     .addi(xreg(1), xreg(1), 1)
     .blt(xreg(1), xreg(3), "loop")
     .halt();
    h.runBig(a.finish());
    EXPECT_EQ(h.big.archState().getX(xreg(2)), 100u * 3u);
    // gshare learns the alternation quickly; mispredicts stay low.
    EXPECT_LT(h.stats.value("big.mispredicts"), 60u);
}

TEST(CoreTest, BigFetchesLinesNotInstructions)
{
    CoreHarness h;
    h.runBig(independentAddsProgram(160));
    // 160 insts * 4B = 640B = ~11 lines; the prefetcher turns most
    // into prefetches, but demand + prefetch requests must cover all
    // lines and not exceed them by much.
    auto total = h.stats.value("big.fetchLineReqs") +
                 h.stats.value("big.fetchPrefetches");
    EXPECT_GE(total, 11u);
    EXPECT_LE(total, 20u);
}

TEST(CoreTest, LittleBackToBackProgramsReuseCore)
{
    CoreHarness h;
    h.runLittle(sumLoopProgram(10));
    auto first = h.little.archState().getX(xreg(2));
    h.runLittle(sumLoopProgram(20));
    EXPECT_EQ(first, 45u);
    EXPECT_EQ(h.little.archState().getX(xreg(2)), 190u);
}

TEST(CoreTest, ArgumentRegistersAreApplied)
{
    CoreHarness h;
    Asm a("args");
    a.add(xreg(3), xreg(10), xreg(11)).halt();
    h.runLittle(a.finish(), {{xreg(10), 30}, {xreg(11), 12}});
    EXPECT_EQ(h.little.archState().getX(xreg(3)), 42u);
}

TEST(CoreTest, ColdCacheSlowerThanWarm)
{
    CoreHarness h;
    // Sum an array twice; second pass should be much faster.
    const int n = 256;
    for (int i = 0; i < n; ++i)
        h.backing.writeT<std::uint64_t>(0x10000 + 8 * i, 1);
    auto pass = [&]() {
        Asm a("sumarr");
        a.li(xreg(1), 0x10000)
         .li(xreg(2), 0)
         .li(xreg(3), n)
         .li(xreg(5), 0)
         .label("loop")
         .ld(xreg(4), xreg(1))
         .add(xreg(5), xreg(5), xreg(4))
         .addi(xreg(1), xreg(1), 8)
         .addi(xreg(2), xreg(2), 1)
         .blt(xreg(2), xreg(3), "loop")
         .halt();
        return a.finish();
    };
    auto cold = h.runLittle(pass());
    auto warm = h.runLittle(pass());
    EXPECT_LT(warm, cold);
    EXPECT_EQ(h.little.archState().getX(xreg(5)),
              static_cast<std::uint64_t>(n));
}

// Timing pins of the scalar cores: simulated ns plus every non-zero
// big-core, little-core and L2 counter (L1D/L1I counters are named
// under their core) on tiny cells. The ROB wraps many times in each
// cell, so the age-ordered issue scan crosses the end of the ring. A
// change to how the cores are simulated must leave every value
// unchanged; a deliberate timing change re-pins them.
struct CorePin
{
    const char *workload;
    Design design;
    double ns;
    /** "name=value" tokens; counters absent here must read 0. */
    const char *counters;
};

// Printed by name: gtest's byte dump would put string addresses into
// the discovered ctest names.
void
PrintTo(const CorePin &pin, std::ostream *os)
{
    *os << pin.workload << "/" << designName(pin.design);
}

const CorePin corePins[] = {
    {"vvadd", Design::d1b, 3884,
         "big.cycles=3883 big.fetchLineReqs=1 big.fetchPrefetches=4 "
         "big.fetched=4108 big.l1d.accesses=1536 big.l1d.fills=96 "
         "big.l1d.hits=224 big.l1d.misses=1312 big.l1i.accesses=5 "
         "big.l1i.fills=5 big.l1i.misses=5 big.mispredicts=14 "
         "big.retired=4108 l2.accesses=101 l2.fills=101 l2.misses=101 "},
    {"mmult", Design::d1b, 18381,
         "big.cycles=18380 big.fetchLineReqs=1 big.fetchPrefetches=4 "
         "big.fetched=55862 big.l1d.accesses=8448 big.l1d.fills=48 "
         "big.l1d.hits=8178 big.l1d.misses=270 big.l1i.accesses=5 "
         "big.l1i.fills=5 big.l1i.misses=5 big.mispredicts=305 "
         "big.retired=55862 l2.accesses=53 l2.fills=53 l2.misses=53 "},
    {"kmeans", Design::d1b, 80357,
         "big.cycles=80356 big.fetchLineReqs=1 big.fetchPrefetches=5 "
         "big.fetched=250063 big.l1d.accesses=33024 big.l1d.fills=148 "
         "big.l1d.hits=32705 big.l1d.misses=319 big.l1i.accesses=6 "
         "big.l1i.fills=6 big.l1i.misses=6 big.mispredicts=750 "
         "big.retired=250063 l2.accesses=154 l2.fills=154 l2.misses=154 "},
    {"bfs", Design::d1b4L, 9433,
         "big.cycles=6243 big.fetchLineReqs=5 big.fetchPrefetches=20 "
         "big.fetched=3926 big.l1d.accesses=986 big.l1d.fills=58 "
         "big.l1d.hits=796 big.l1d.invalidations=9 big.l1d.misses=190 "
         "big.l1i.accesses=25 big.l1i.fills=5 big.l1i.hits=20 "
         "big.l1i.misses=5 big.mispredicts=315 big.retired=3926 "
         "l2.accesses=352 l2.dir.invalidates=9 l2.fills=118 l2.hits=226 "
         "l2.misses=126 little0.cycles=4156 little0.fetchLineReqs=4 "
         "little0.fetchPrefetches=16 little0.fetched=1666 "
         "little0.l1d.accesses=420 little0.l1d.evictions=4 "
         "little0.l1d.fills=47 little0.l1d.hits=368 "
         "little0.l1d.invalidations=8 little0.l1d.misses=52 "
         "little0.l1d.writebacks=1 little0.l1i.accesses=20 "
         "little0.l1i.fills=5 little0.l1i.hits=15 little0.l1i.misses=5 "
         "little0.retired=1666 little0.stall.busy=1666 "
         "little0.stall.misc=29 little0.stall.raw_mem=2461 "
         "little1.cycles=5941 little1.fetchLineReqs=7 "
         "little1.fetchPrefetches=28 little1.fetched=2333 "
         "little1.l1d.accesses=583 little1.l1d.evictions=17 "
         "little1.l1d.fills=74 little1.l1d.hits=499 "
         "little1.l1d.invalidations=7 little1.l1d.misses=84 "
         "little1.l1d.writebacks=2 little1.l1i.accesses=35 "
         "little1.l1i.fills=5 little1.l1i.hits=30 little1.l1i.misses=5 "
         "little1.retired=2333 little1.stall.busy=2333 "
         "little1.stall.misc=36 little1.stall.raw_mem=3572 "
         "little2.cycles=5579 little2.fetchLineReqs=8 "
         "little2.fetchPrefetches=32 little2.fetched=2126 "
         "little2.l1d.accesses=530 little2.l1d.evictions=18 "
         "little2.l1d.fills=72 little2.l1d.hits=442 "
         "little2.l1d.invalidations=5 little2.l1d.misses=88 "
         "little2.l1d.writebacks=3 little2.l1i.accesses=40 "
         "little2.l1i.fills=5 little2.l1i.hits=35 little2.l1i.misses=5 "
         "little2.retired=2126 little2.stall.busy=2126 "
         "little2.stall.misc=39 little2.stall.raw_mem=3414 "
         "little3.cycles=5872 little3.fetchLineReqs=8 "
         "little3.fetchPrefetches=32 little3.fetched=2055 "
         "little3.l1d.accesses=515 little3.l1d.evictions=17 "
         "little3.l1d.fills=67 little3.l1d.hits=437 "
         "little3.l1d.invalidations=6 little3.l1d.misses=78 "
         "little3.l1d.writebacks=3 little3.l1i.accesses=40 "
         "little3.l1i.fills=5 little3.l1i.hits=35 little3.l1i.misses=5 "
         "little3.retired=2055 little3.stall.busy=2055 "
         "little3.stall.misc=40 little3.stall.raw_mem=3777 "},
    {"saxpy", Design::d1bIV, 4199,
         "big.cycles=4197 big.fetchLineReqs=1 big.fetchPrefetches=4 "
         "big.fetched=1415 big.l1d.accesses=384 big.l1d.fills=64 "
         "big.l1d.hits=288 big.l1d.misses=96 big.l1i.accesses=5 "
         "big.l1i.fills=5 big.l1i.misses=5 big.mispredicts=14 "
         "big.retired=1415 big.vecDispatched=640 l2.accesses=69 "
         "l2.fills=69 l2.misses=69 "},
};

class BigCoreTimingPinTest : public ::testing::TestWithParam<CorePin>
{};

TEST_P(BigCoreTimingPinTest, CountersMatchPins)
{
    const CorePin &pin = GetParam();
    RunResult r = runWorkload(pin.design, pin.workload, Scale::tiny);
    ASSERT_EQ(r.status, RunStatus::ok) << r.message;
    EXPECT_EQ(r.ns, pin.ns);

    std::map<std::string, std::uint64_t> expected, actual;
    std::istringstream toks(pin.counters);
    for (std::string tok; toks >> tok;) {
        auto eq = tok.find('=');
        expected[tok.substr(0, eq)] = std::stoull(tok.substr(eq + 1));
    }
    for (const auto &[name, value] : r.stats) {
        if (value && (name.rfind("big.", 0) == 0 ||
                      name.rfind("little", 0) == 0 ||
                      name.rfind("l2.", 0) == 0))
            actual[name] = value;
    }
    for (const auto &[name, value] : expected)
        EXPECT_EQ(actual.count(name) ? actual[name] : 0, value) << name;
    for (const auto &[name, value] : actual)
        EXPECT_TRUE(expected.count(name)) << name << "=" << value;
}

INSTANTIATE_TEST_SUITE_P(
    TinyCells, BigCoreTimingPinTest, ::testing::ValuesIn(corePins),
    [](const ::testing::TestParamInfo<CorePin> &info) {
        std::string name = std::string(info.param.workload) + "_" +
                           designName(info.param.design);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace bvl
