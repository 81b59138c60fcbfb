/**
 * @file
 * Allocation gate: heap allocations inside Soc::runUntil per retired
 * big-core instruction on fixed tiny cells, scalar and vector, and
 * the exact number of events each run executes.
 *
 * The executable replaces the global operator new with a counting one
 * (counting_new.cc), so it is a test binary of its own. For one
 * toolchain the counts do not depend on the machine, so the gate
 * cannot flake on a slow or busy host.
 */

#include <gtest/gtest.h>

#include <string>

#include "counting_new.hh"
#include "soc/soc.hh"
#include "workloads/workload.hh"

namespace bvl
{
namespace
{

struct AllocCell
{
    const char *workload;
    Design design;
    /** Bound on runUntil allocations per retired instruction. */
    double maxPerInst;
    /** Exact count of events runUntil executes: the same-tick event
     *  order and count are part of the simulated bytes. */
    std::uint64_t events;
};

// Printed by name: gtest's byte dump would put string addresses into
// the discovered ctest names.
void
PrintTo(const AllocCell &cell, std::ostream *os)
{
    *os << cell.workload << "/" << designName(cell.design);
}

// Bounds are about twice what these cells read with reused engine
// slots, ring queues and a fixed MSHR file:
//   mmult/1b      701 allocations over 55,862 instructions (0.013)
//   vvadd/1b      351 over 4,108 (0.085)
//   vvadd/1b-4VL  895 over 390 (2.3)
//   mmult/1bDV    1,201 over 6,198 (0.19)
// At tiny the vector cells are mostly warm-up: each ROB slot and each
// of the engine's record slots allocates its buffers once, and the
// L2 directory adds a node per line. A node per cache miss and per
// engine record and queue entry reads 0.32, 5.5 and 1.3 on the last
// three and fails each bound. The event counts read the same either
// way.
const AllocCell cells[] = {
    {"mmult", Design::d1b, 0.04, 74459},
    {"vvadd", Design::d1b, 0.17, 8400},
    {"vvadd", Design::d1b4VL, 4.6, 4067},
    {"mmult", Design::d1bDV, 0.4, 28685},
};

class AllocGateTest : public ::testing::TestWithParam<AllocCell>
{};

TEST_P(AllocGateTest, RunAllocationsPerInstructionStayBounded)
{
    const AllocCell &cell = GetParam();
    WorkloadPtr w = makeWorkload(cell.workload, Scale::tiny);
    Soc soc(cell.design);
    w->init(soc.backing);
    bool done = false;
    ProgramPtr prog = designHasVector(cell.design) ? w->vectorProgram()
                                                   : w->scalarProgram();
    ASSERT_NE(prog, nullptr);
    soc.big->runProgram(prog, w->fullRangeArgs(), [&] { done = true; });

    std::uint64_t eventsBefore = soc.eq.executed();
    allocCalls = 0;
    allocCounting = true;
    bool finished = soc.runUntil([&] { return done; });
    allocCounting = false;
    std::uint64_t events = soc.eq.executed() - eventsBefore;

    ASSERT_TRUE(finished);
    EXPECT_TRUE(w->verify(soc.backing));
    ASSERT_GT(soc.big->retired(), 0u);
    double perInst = static_cast<double>(allocCalls) /
                     static_cast<double>(soc.big->retired());
    EXPECT_LE(perInst, cell.maxPerInst)
        << allocCalls << " allocations over " << soc.big->retired()
        << " retired instructions";
    EXPECT_EQ(events, cell.events);
    RecordProperty("allocations", std::to_string(allocCalls));
}

INSTANTIATE_TEST_SUITE_P(
    TinyBig, AllocGateTest, ::testing::ValuesIn(cells),
    [](const ::testing::TestParamInfo<AllocCell> &info) {
        // "1b-4VL" -> "1b4VL": gtest names take no '-'.
        std::string name = std::string(info.param.workload) + "_";
        for (const char *c = designName(info.param.design); *c; ++c)
            if (*c != '-')
                name += *c;
        return name;
    });

} // namespace
} // namespace bvl
