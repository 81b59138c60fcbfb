/**
 * @file
 * Heap-allocation counter of the benchmark's own executables.
 *
 * alloc_count.cc replaces the global operator new/delete. While
 * counting is enabled, every allocation made by any thread adds to
 * two relaxed atomic totals (calls and bytes), so the counter is safe
 * under the sweep service's worker threads. Counting is off by
 * default so untraced runs pay only one relaxed load per allocation.
 */

#ifndef BVL_PERF_ALLOC_COUNT_HH
#define BVL_PERF_ALLOC_COUNT_HH

#include <cstdint>

namespace perf
{

struct AllocTotals
{
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
};

void setAllocCounting(bool on);
AllocTotals allocTotals();

} // namespace perf

#endif // BVL_PERF_ALLOC_COUNT_HH
