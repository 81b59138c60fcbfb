/**
 * @file
 * Metric arithmetic of the benchmark: medians over passes, the
 * simulated counts read from RunResult::stats, and the derived rates.
 * Everything here is a pure function, so the self-test can pin it.
 */

#ifndef BVL_PERF_METRICS_HH
#define BVL_PERF_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "soc/run_driver.hh"

namespace perf
{

/** Median; the mean of the middle two for an even count; 0 if empty. */
double median(std::vector<double> v);

/** @p num per thousand @p den (0 when @p den is 0). */
double perKilo(double num, double den);

/** @p num host seconds per @p den units, in ns (0 when @p den is 0). */
double nsPer(double seconds, double den);

/**
 * Millions of retired instructions per host second spent simulating:
 * retired ÷ (wall − setup). 0 when no simulation time is left.
 */
double simMips(double retired, double wall, double setup);

/** Simulated counts of one cell or a sum over cells. */
struct SimCounts
{
    std::uint64_t bigRetired = 0;     ///< big.retired
    std::uint64_t littleRetired = 0;  ///< Σ littleN.retired
    std::uint64_t bigCycles = 0;      ///< big.cycles
    std::uint64_t littleCycles = 0;   ///< Σ littleN.cycles
    std::uint64_t coreUops = 0;       ///< vlittle./dve.uopsBroadcast
    std::uint64_t coreCycles = 0;     ///< vlittle./dve.cycles
    std::uint64_t vmuLineReqs = 0;    ///< vlittle./dve. load+store lines
    std::uint64_t l1dAccesses = 0;    ///< Σ *.l1d.accesses
    std::uint64_t l2Accesses = 0;     ///< l2.accesses
    std::uint64_t dramReads = 0;      ///< dram.reads
    std::uint64_t steals = 0;         ///< runtime.steals
    std::uint64_t pops = 0;           ///< runtime.pops
    std::uint64_t overheadCycles = 0; ///< runtime.overheadCycles

    std::uint64_t retired() const { return bigRetired + littleRetired; }
    std::uint64_t memAccesses() const { return l1dAccesses + l2Accesses; }

    SimCounts &operator+=(const SimCounts &o);
};

SimCounts countsOf(const bvl::RunResult &r);

} // namespace perf

#endif // BVL_PERF_METRICS_HH
