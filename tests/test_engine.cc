/**
 * @file
 * Integration tests of the vector engines under the big core: the
 * VLITTLE engine (1b-4VL), the integrated vector unit (1bIV) and the
 * decoupled engine (1bDV) all run the same stripmined programs; we
 * check functional output, relative performance ordering, decoupling
 * behaviour, the mode-switch penalty, cross-element timing and the
 * lock-step/simd stall accounting.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>

#include "soc/run_driver.hh"
#include "soc/soc.hh"
#include "vector/engine_presets.hh"

namespace bvl
{
namespace
{

constexpr Addr xBase = 0x100000;
constexpr Addr yBase = 0x200000;
constexpr Addr outBase = 0x300000;

/** Stripmined saxpy: y[i] += a * x[i]; n in x10. */
ProgramPtr
saxpyProgram()
{
    Asm a("vsaxpy");
    a.li(xreg(2), xBase)
     .li(xreg(3), yBase)
     .li(xreg(5), 2)
     .fcvt_f_x(freg(1), xreg(5), 4)
     .label("loop")
     .vsetvli(xreg(4), xreg(10), 4)
     .vle(vreg(1), xreg(2), 4)
     .vle(vreg(2), xreg(3), 4)
     .vf(Op::vfmacc, vreg(2), vreg(1), freg(1))
     .vse(vreg(2), xreg(3), 4)
     .slli(xreg(6), xreg(4), 2)
     .add(xreg(2), xreg(2), xreg(6))
     .add(xreg(3), xreg(3), xreg(6))
     .sub(xreg(10), xreg(10), xreg(4))
     .bne(xreg(10), xreg(0), "loop")
     .halt();
    return a.finish();
}

void
initSaxpyData(BackingStore &mem, unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        mem.writeT<float>(xBase + 4 * i, 1.0f * i);
        mem.writeT<float>(yBase + 4 * i, 3.0f);
    }
}

/** Run a program on the big core of @p soc; returns elapsed ns. */
double
runOnBig(Soc &soc, ProgramPtr prog,
         std::vector<std::pair<RegId, std::uint64_t>> args)
{
    bool done = false;
    double start = soc.elapsedNs();
    soc.big->runProgram(std::move(prog), std::move(args),
                        [&] { done = true; });
    bool finished = soc.runUntil([&] { return done; },
                                 soc.eq.now() + 500'000'000ull);
    EXPECT_TRUE(finished) << "simulation deadlocked";
    return soc.elapsedNs() - start;
}

class EngineTest : public ::testing::TestWithParam<Design>
{};

TEST_P(EngineTest, SaxpyFunctionallyCorrect)
{
    const unsigned n = 300;
    Soc soc(GetParam());
    initSaxpyData(soc.backing, n);
    runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
    for (unsigned i = 0; i < n; ++i) {
        float got = soc.backing.readT<float>(yBase + 4 * i);
        EXPECT_FLOAT_EQ(got, 2.0f * i + 3.0f) << "i=" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(VectorDesigns, EngineTest,
                         ::testing::Values(Design::d1bIV, Design::d1bDV,
                                           Design::d1b4VL),
                         [](const auto &info) {
                             std::string n = designName(info.param);
                             for (auto &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(EngineOrderTest, WiderEnginesRunLargeSaxpyFaster)
{
    const unsigned n = 4096;
    double t[3];
    Design designs[3] = {Design::d1bIV, Design::d1b4VL, Design::d1bDV};
    for (int i = 0; i < 3; ++i) {
        Soc soc(designs[i]);
        initSaxpyData(soc.backing, n);
        t[i] = runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
    }
    // 1bDV (2048b) < 1b-4VL (512b) < 1bIV (128b)
    EXPECT_LT(t[2], t[1]) << "1bDV should beat 1b-4VL";
    EXPECT_LT(t[1], t[0]) << "1b-4VL should beat 1bIV";
}

TEST(EngineTestDetail, ModeSwitchPenaltyAppearsOnce)
{
    const unsigned n = 16;
    Soc soc(Design::d1b4VL);
    initSaxpyData(soc.backing, n);
    double t = runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
    // The 500-cycle (500ns at 1GHz) switch penalty dominates a tiny
    // kernel.
    EXPECT_GT(t, 500.0);
    EXPECT_EQ(soc.stats.value("vlittle.modeSwitches"), 1u);

    // A second region in the same run does not re-pay the penalty
    // unless the engine exited vector mode.
    EXPECT_TRUE(soc.engine->inVectorMode());
    soc.engine->exitVectorMode();
    EXPECT_FALSE(soc.engine->inVectorMode());
}

TEST(EngineTestDetail, LittleL1dSwitchesToBankedMode)
{
    Soc soc(Design::d1b4VL);
    initSaxpyData(soc.backing, 64);
    EXPECT_EQ(soc.mem.littleL1D(0).getIndexMode(),
              IndexMode::scalarPrivate);
    runOnBig(soc, saxpyProgram(), {{xreg(10), 64}});
    EXPECT_EQ(soc.mem.littleL1D(0).getIndexMode(),
              IndexMode::vectorBanked);
    soc.engine->exitVectorMode();
    EXPECT_EQ(soc.mem.littleL1D(0).getIndexMode(),
              IndexMode::scalarPrivate);
}

TEST(EngineTestDetail, VectorMemorySpreadsAcrossBanks)
{
    const unsigned n = 4096;
    Soc soc(Design::d1b4VL);
    initSaxpyData(soc.backing, n);
    runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
    // Unit-stride streams must hit all four banks roughly equally.
    std::uint64_t acc[4];
    for (unsigned b = 0; b < 4; ++b)
        acc[b] = soc.stats.value("little" + std::to_string(b) +
                                 ".l1d.accesses");
    for (unsigned b = 0; b < 4; ++b) {
        EXPECT_GT(acc[b], 0u);
        EXPECT_LT(acc[b], 2 * acc[0] + 16);
    }
}

TEST(EngineTestDetail, StallBreakdownCoversAllLaneCycles)
{
    const unsigned n = 2048;
    Soc soc(Design::d1b4VL);
    initSaxpyData(soc.backing, n);
    runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
    for (unsigned l = 0; l < 4; ++l) {
        std::string pre = "little" + std::to_string(l) + ".";
        std::uint64_t cycles = soc.stats.value(pre + "cycles");
        std::uint64_t sum = 0;
        for (auto cause : {"busy", "simd", "raw_mem", "raw_llfu",
                           "struct", "xelem", "misc"})
            sum += soc.stats.value(pre + "stall." + cause);
        EXPECT_EQ(sum, cycles) << "lane " << l;
        EXPECT_GT(soc.stats.value(pre + "stall.busy"), 0u) << "lane " << l;
    }
}

TEST(EngineTestDetail, ReductionReturnsScalarToBigCore)
{
    const unsigned n = 64;
    Soc soc(Design::d1b4VL);
    for (unsigned i = 0; i < n; ++i)
        soc.backing.writeT<std::int32_t>(xBase + 4 * i, 1);
    // Sum n ones via stripmined vredsum, accumulate in x20.
    Asm a("vsum");
    a.li(xreg(2), xBase)
     .li(xreg(20), 0)
     .label("loop")
     .vsetvli(xreg(4), xreg(10), 4)
     .vle(vreg(1), xreg(2), 4)
     .vmv_s_x(vreg(2), xreg(0))
     .vv(Op::vredsum, vreg(3), vreg(2), vreg(1))
     .vmv_x_s(xreg(5), vreg(3))
     .add(xreg(20), xreg(20), xreg(5))
     .slli(xreg(6), xreg(4), 2)
     .add(xreg(2), xreg(2), xreg(6))
     .sub(xreg(10), xreg(10), xreg(4))
     .bne(xreg(10), xreg(0), "loop")
     .halt();
    runOnBig(soc, a.finish(), {{xreg(10), n}});
    EXPECT_EQ(soc.big->archState().getX(xreg(20)), n);
    // Cross-element work must appear in the VXU path.
    EXPECT_GT(soc.stats.value("vlittle.completed"), 0u);
}

TEST(EngineTestDetail, IndexedGatherWorksThroughVmu)
{
    const unsigned n = 256;
    Soc soc(Design::d1b4VL);
    // table[i] = 7*i; idx[i] = byte offset of a permuted entry
    for (unsigned i = 0; i < n; ++i) {
        soc.backing.writeT<std::int32_t>(xBase + 4 * i, 7 * i);
        soc.backing.writeT<std::uint32_t>(yBase + 4 * i,
                                          ((i * 17) % n) * 4);
    }
    Asm a("vgather");
    a.li(xreg(2), xBase)
     .li(xreg(3), yBase)
     .li(xreg(7), outBase)
     .label("loop")
     .vsetvli(xreg(4), xreg(10), 4)
     .vle(vreg(2), xreg(3), 4)                 // load indices
     .vluxei(vreg(1), xreg(2), vreg(2), 4)     // gather table[idx]
     .vse(vreg(1), xreg(7), 4)
     .slli(xreg(6), xreg(4), 2)
     .add(xreg(3), xreg(3), xreg(6))
     .add(xreg(7), xreg(7), xreg(6))
     .sub(xreg(10), xreg(10), xreg(4))
     .bne(xreg(10), xreg(0), "loop")
     .halt();
    runOnBig(soc, a.finish(), {{xreg(10), n}});
    for (unsigned i = 0; i < n; ++i) {
        auto got = soc.backing.readT<std::int32_t>(outBase + 4 * i);
        EXPECT_EQ(got, static_cast<std::int32_t>(7 * ((i * 17) % n)))
            << "i=" << i;
    }
}

TEST(EngineTestDetail, VmfenceDrainsVectorStores)
{
    const unsigned n = 64;
    Soc soc(Design::d1b4VL);
    for (unsigned i = 0; i < n; ++i)
        soc.backing.writeT<std::int32_t>(xBase + 4 * i, 5);
    // Vector store then scalar load of the same data, fenced.
    Asm a("fence");
    a.li(xreg(2), xBase)
     .li(xreg(3), outBase)
     .vsetvli(xreg(4), xreg(10), 4)
     .vle(vreg(1), xreg(2), 4)
     .vse(vreg(1), xreg(3), 4)
     .vmfence()
     .lw(xreg(5), xreg(3))
     .halt();
    runOnBig(soc, a.finish(), {{xreg(10), n}});
    EXPECT_EQ(soc.big->archState().getX(xreg(5)), 5u);
    EXPECT_TRUE(soc.engine->idle());
}

TEST(EngineTestDetail, DecouplingRunsMemoryAheadOfCompute)
{
    // A long dependent FP chain after each load: with deep buffers the
    // VMIU generates line requests well before lanes consume them.
    const unsigned n = 4096;
    Soc soc(Design::d1b4VL);
    initSaxpyData(soc.backing, n);
    runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
    EXPECT_GT(soc.stats.value("vlittle.loadLineReqs"), n / 16 / 2);
    EXPECT_GT(soc.stats.value("vlittle.vluDeliveries"), 0u);
    EXPECT_GT(soc.stats.value("vlittle.vsuLines"), 0u);
}

TEST(EngineTestDetail, IvuSharesBigCoreL1d)
{
    const unsigned n = 1024;
    Soc soc(Design::d1bIV);
    initSaxpyData(soc.backing, n);
    runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
    EXPECT_GT(soc.stats.value("big.l1d.accesses"), 0u);
    EXPECT_EQ(soc.stats.value("little0.l1d.accesses"), 0u);
}

TEST(EngineTestDetail, DveBypassesL1GoesToL2)
{
    const unsigned n = 1024;
    Soc soc(Design::d1bDV);
    initSaxpyData(soc.backing, n);
    runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
    EXPECT_GT(soc.stats.value("l2.accesses"), 0u);
    EXPECT_EQ(soc.stats.value("little0.l1d.accesses"), 0u);
    EXPECT_EQ(soc.stats.value("big.l1d.accesses"), 0u);
}

TEST(EngineTestDetail, VlenMatchesDesign)
{
    EXPECT_EQ(Soc(Design::d1bIV).vlenBits(), 128u);
    EXPECT_EQ(Soc(Design::d1b4VL).vlenBits(), 512u);
    EXPECT_EQ(Soc(Design::d1bDV).vlenBits(), 2048u);
}

TEST(EngineTestDetail, FewerDynamicInstructionsWithLongerVectors)
{
    const unsigned n = 4096;
    std::uint64_t fetched[2];
    Design designs[2] = {Design::d1bIV, Design::d1b4VL};
    for (int i = 0; i < 2; ++i) {
        Soc soc(designs[i]);
        initSaxpyData(soc.backing, n);
        runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
        fetched[i] = soc.stats.value("big.fetched");
    }
    // 512-bit VLEN needs ~4x fewer stripmine iterations than 128-bit.
    EXPECT_LT(fetched[1] * 3, fetched[0]);
}

/**
 * Timing golden pins: one tiny cell per engine memory path and per
 * engine mechanism (banked L1, big-L1D and direct-L2 paths; reductions,
 * scalar-via-ring moves and indexed gathers). Each pins the simulated
 * ns and every non-zero engine and lane counter, so any perturbation
 * of the engine's event order shows up here, by counter name.
 */
struct TimingPin
{
    const char *workload;
    Design design;
    double ns;
    /** "name=value" tokens; counters absent here must read 0. */
    const char *counters;
};

// Printed by name: gtest's byte dump would put the addresses of the
// strings (randomised per process) into the discovered ctest names.
void
PrintTo(const TimingPin &pin, std::ostream *os)
{
    *os << pin.workload << "/" << designName(pin.design);
}

const TimingPin timingPins[] = {
    {"vvadd", Design::d1b4VL, 1210,
         "little0.cycles=1098 little0.l1d.accesses=24 "
         "little0.l1d.evictions=8 little0.l1d.fills=24 "
         "little0.l1d.misses=24 little0.stall.busy=256 "
         "little0.stall.misc=604 little0.stall.raw_mem=238 "
         "little0.uops=256 little1.cycles=1098 little1.l1d.accesses=24 "
         "little1.l1d.evictions=8 little1.l1d.fills=24 "
         "little1.l1d.misses=24 little1.stall.busy=256 "
         "little1.stall.misc=604 little1.stall.raw_mem=238 "
         "little1.uops=256 little2.cycles=1098 little2.l1d.accesses=24 "
         "little2.l1d.evictions=8 little2.l1d.fills=24 "
         "little2.l1d.misses=24 little2.stall.busy=256 "
         "little2.stall.misc=604 little2.stall.raw_mem=238 "
         "little2.uops=256 little3.cycles=1098 little3.l1d.accesses=24 "
         "little3.l1d.evictions=8 little3.l1d.fills=24 "
         "little3.l1d.misses=24 little3.stall.busy=256 "
         "little3.stall.misc=604 little3.stall.raw_mem=238 "
         "little3.uops=256 vlittle.completed=160 vlittle.cycles=1098 "
         "vlittle.dispatched=160 vlittle.loadLineReqs=64 "
         "vlittle.modeSwitches=1 vlittle.storeLineReqs=32 "
         "vlittle.unitLines=96 vlittle.uopsBroadcast=256 "
         "vlittle.vluDeliveries=64 vlittle.vmiuCmds=96 "
         "vlittle.vsuLines=32 "},
    {"saxpy", Design::d1bIV, 4199,
         "ivu.completed=640 ivu.cycles=4088 ivu.dispatched=640 "
         "ivu.loadLineReqs=256 ivu.modeSwitches=1 ivu.storeLineReqs=128 "
         "ivu.unitLines=384 ivu.uopsBroadcast=512 ivu.vluDeliveries=256 "
         "ivu.vmiuCmds=384 ivu.vmsuRawStalls=4230 ivu.vsuLines=128 "
         "ivu0.cycles=4088 ivu0.stall.busy=512 ivu0.stall.misc=3 "
         "ivu0.stall.raw_llfu=512 ivu0.stall.raw_mem=3061 ivu0.uops=512 "
         "ivu1.cycles=4088 ivu1.stall.busy=512 ivu1.stall.misc=3 "
         "ivu1.stall.raw_llfu=512 ivu1.stall.raw_mem=3061 ivu1.uops=512 "},
    {"mmult", Design::d1bDV, 7436,
         "dve.completed=1280 dve.cycles=7213 dve.dispatched=1280 "
         "dve.loadLineReqs=512 dve.modeSwitches=1 dve.storeLineReqs=256 "
         "dve.unitLines=768 dve.uopsBroadcast=1024 dve.vluDeliveries=512 "
         "dve.vmiuCmds=768 dve.vmsuRawStalls=47958 dve.vsuLines=256 "
         "dve0.cycles=7213 dve0.stall.busy=1024 dve0.stall.misc=21 "
         "dve0.stall.raw_llfu=1024 dve0.stall.raw_mem=5144 "
         "dve0.uops=1024 dve1.cycles=7213 dve1.stall.busy=1024 "
         "dve1.stall.misc=21 dve1.stall.raw_llfu=1024 "
         "dve1.stall.raw_mem=5144 dve1.uops=1024 dve2.cycles=7213 "
         "dve2.stall.busy=1024 dve2.stall.misc=21 "
         "dve2.stall.raw_llfu=1024 dve2.stall.raw_mem=5144 "
         "dve2.uops=1024 dve3.cycles=7213 dve3.stall.busy=1024 "
         "dve3.stall.misc=21 dve3.stall.raw_llfu=1024 "
         "dve3.stall.raw_mem=5144 dve3.uops=1024 dve4.cycles=7213 "
         "dve4.stall.busy=1024 dve4.stall.misc=21 "
         "dve4.stall.raw_llfu=1024 dve4.stall.raw_mem=5144 "
         "dve4.uops=1024 dve5.cycles=7213 dve5.stall.busy=1024 "
         "dve5.stall.misc=21 dve5.stall.raw_llfu=1024 "
         "dve5.stall.raw_mem=5144 dve5.uops=1024 dve6.cycles=7213 "
         "dve6.stall.busy=1024 dve6.stall.misc=21 "
         "dve6.stall.raw_llfu=1024 dve6.stall.raw_mem=5144 "
         "dve6.uops=1024 dve7.cycles=7213 dve7.stall.busy=1024 "
         "dve7.stall.misc=21 dve7.stall.raw_llfu=1024 "
         "dve7.stall.raw_mem=5144 dve7.uops=1024 "},
    {"particlefilter", Design::d1b4VL, 3961,
         "little0.cycles=3739 little0.l1d.accesses=88 "
         "little0.l1d.evictions=12 little0.l1d.fills=20 "
         "little0.l1d.hits=68 little0.l1d.misses=20 "
         "little0.l1d.writebacks=4 little0.stall.busy=723 "
         "little0.stall.misc=831 little0.stall.raw_llfu=192 "
         "little0.stall.raw_mem=1547 little0.stall.simd=45 "
         "little0.stall.struct=401 little0.uops=723 little1.cycles=3739 "
         "little1.l1d.accesses=88 little1.l1d.evictions=12 "
         "little1.l1d.fills=20 little1.l1d.hits=68 little1.l1d.misses=20 "
         "little1.l1d.writebacks=4 little1.stall.busy=706 "
         "little1.stall.misc=846 little1.stall.raw_llfu=192 "
         "little1.stall.raw_mem=1579 little1.stall.simd=15 "
         "little1.stall.struct=401 little1.uops=706 little2.cycles=3739 "
         "little2.l1d.accesses=88 little2.l1d.evictions=12 "
         "little2.l1d.fills=20 little2.l1d.hits=68 little2.l1d.misses=20 "
         "little2.l1d.writebacks=4 little2.stall.busy=706 "
         "little2.stall.misc=844 little2.stall.raw_llfu=192 "
         "little2.stall.raw_mem=1581 little2.stall.struct=416 "
         "little2.uops=706 little3.cycles=3739 little3.l1d.accesses=88 "
         "little3.l1d.evictions=12 little3.l1d.fills=20 "
         "little3.l1d.hits=68 little3.l1d.misses=20 "
         "little3.l1d.writebacks=4 little3.stall.busy=706 "
         "little3.stall.misc=842 little3.stall.raw_llfu=192 "
         "little3.stall.raw_mem=1583 little3.stall.struct=416 "
         "little3.uops=706 vlittle.completed=387 vlittle.cycles=3739 "
         "vlittle.dispatched=387 vlittle.indexedLines=256 "
         "vlittle.loadLineReqs=320 vlittle.modeSwitches=1 "
         "vlittle.storeLineReqs=32 vlittle.unitLines=96 "
         "vlittle.uopsBroadcast=723 vlittle.vluDeliveries=320 "
         "vlittle.vmiuCmds=112 vlittle.vsuLines=32 "},
    {"lavamd", Design::d1bDV, 12454,
         "dve.completed=756 dve.cycles=12341 dve.dispatched=756 "
         "dve.indexedLines=1610 dve.loadLineReqs=1762 dve.modeSwitches=1 "
         "dve.storeLineReqs=24 dve.unitLines=176 dve.uopsBroadcast=3400 "
         "dve.vluDeliveries=1762 dve.vmiuCmds=140 dve.vsuLines=24 "
         "dve0.cycles=12341 dve0.stall.busy=3400 dve0.stall.misc=121 "
         "dve0.stall.raw_mem=6999 dve0.stall.simd=293 "
         "dve0.stall.struct=1528 dve0.uops=3400 dve1.cycles=12341 "
         "dve1.stall.busy=3400 dve1.stall.misc=121 "
         "dve1.stall.raw_mem=7059 dve1.stall.simd=169 "
         "dve1.stall.struct=1592 dve1.uops=3400 dve2.cycles=12341 "
         "dve2.stall.busy=3400 dve2.stall.misc=121 "
         "dve2.stall.raw_mem=7127 dve2.stall.simd=101 "
         "dve2.stall.struct=1592 dve2.uops=3400 dve3.cycles=12341 "
         "dve3.stall.busy=3400 dve3.stall.misc=121 "
         "dve3.stall.raw_mem=7165 dve3.stall.simd=63 "
         "dve3.stall.struct=1592 dve3.uops=3400 dve4.cycles=12341 "
         "dve4.stall.busy=3400 dve4.stall.misc=118 "
         "dve4.stall.raw_mem=7180 dve4.stall.simd=51 "
         "dve4.stall.struct=1592 dve4.uops=3400 dve5.cycles=12341 "
         "dve5.stall.busy=3400 dve5.stall.misc=118 "
         "dve5.stall.raw_mem=7180 dve5.stall.simd=51 "
         "dve5.stall.struct=1592 dve5.uops=3400 dve6.cycles=12341 "
         "dve6.stall.busy=3400 dve6.stall.misc=114 "
         "dve6.stall.raw_mem=7187 dve6.stall.simd=48 "
         "dve6.stall.struct=1592 dve6.uops=3400 dve7.cycles=12341 "
         "dve7.stall.busy=3400 dve7.stall.misc=114 "
         "dve7.stall.raw_mem=7227 dve7.stall.struct=1600 dve7.uops=3400 "},
};

class EngineTimingPinTest : public ::testing::TestWithParam<TimingPin>
{};

TEST_P(EngineTimingPinTest, CountersMatchPins)
{
    const TimingPin &pin = GetParam();
    VEngineParams ep = pin.design == Design::d1b4VL ? vlittlePreset()
                     : pin.design == Design::d1bIV ? integratedVuPreset()
                                                   : decoupledVePreset();
    RunResult r = runWorkload(pin.design, pin.workload, Scale::tiny);
    ASSERT_EQ(r.status, RunStatus::ok) << r.message;
    EXPECT_EQ(r.ns, pin.ns);

    std::map<std::string, std::uint64_t> expected, actual;
    std::istringstream toks(pin.counters);
    for (std::string tok; toks >> tok;) {
        auto eq = tok.find('=');
        expected[tok.substr(0, eq)] = std::stoull(tok.substr(eq + 1));
    }
    const std::string engine = ep.name + ".";
    for (const auto &[name, value] : r.stats) {
        bool lane = name.rfind(ep.lanePrefix, 0) == 0 &&
                    name.size() > ep.lanePrefix.size() &&
                    std::isdigit(static_cast<unsigned char>(
                        name[ep.lanePrefix.size()]));
        if (value && (lane || name.rfind(engine, 0) == 0))
            actual[name] = value;
    }
    for (const auto &[name, value] : expected)
        EXPECT_EQ(actual.count(name) ? actual[name] : 0, value) << name;
    for (const auto &[name, value] : actual)
        EXPECT_TRUE(expected.count(name)) << name << "=" << value;
}

INSTANTIATE_TEST_SUITE_P(
    TinyCells, EngineTimingPinTest, ::testing::ValuesIn(timingPins),
    [](const ::testing::TestParamInfo<TimingPin> &info) {
        std::string name = std::string(info.param.workload) + "_" +
                           designName(info.param.design);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace bvl
