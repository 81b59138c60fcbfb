/**
 * @file
 * Allocation gate: heap allocations inside Soc::runUntil per retired
 * instruction on fixed tiny cells of the big core.
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
    /** Bound on runUntil allocations per retired instruction. */
    double maxPerInst;
};

// Printed by name: gtest's byte dump would put string addresses into
// the discovered ctest names.
void
PrintTo(const AllocCell &cell, std::ostream *os)
{
    *os << cell.workload << "/1b";
}

// About twice what these cells read with the big core's fixed ROB
// ring, ready bitmap and store-line table: mmult 1,052 allocations
// over 55,862 instructions (0.019 each), vvadd 1,317 over 4,108 (0.32,
// about one per L1D miss). A big core with a heap node per ROB entry
// and per ready instruction reads 3.05 and 3.07 and fails both.
const AllocCell cells[] = {
    {"mmult", 0.04},
    {"vvadd", 0.65},
};

class AllocGateTest : public ::testing::TestWithParam<AllocCell>
{};

TEST_P(AllocGateTest, RunAllocationsPerInstructionStayBounded)
{
    const AllocCell &cell = GetParam();
    WorkloadPtr w = makeWorkload(cell.workload, Scale::tiny);
    Soc soc(Design::d1b);
    w->init(soc.backing);
    bool done = false;
    soc.big->runProgram(w->scalarProgram(), w->fullRangeArgs(),
                        [&] { done = true; });

    allocCalls = 0;
    allocCounting = true;
    bool finished = soc.runUntil([&] { return done; });
    allocCounting = false;

    ASSERT_TRUE(finished);
    EXPECT_TRUE(w->verify(soc.backing));
    ASSERT_GT(soc.big->retired(), 0u);
    double perInst = static_cast<double>(allocCalls) /
                     static_cast<double>(soc.big->retired());
    EXPECT_LE(perInst, cell.maxPerInst)
        << allocCalls << " allocations over " << soc.big->retired()
        << " retired instructions";
    RecordProperty("allocations", std::to_string(allocCalls));
}

INSTANTIATE_TEST_SUITE_P(
    TinyBig, AllocGateTest, ::testing::ValuesIn(cells),
    [](const ::testing::TestParamInfo<AllocCell> &info) {
        return std::string(info.param.workload) + "_1b";
    });

} // namespace
} // namespace bvl
