/**
 * @file
 * Front-end fetch line buffer with next-line prefetch.
 *
 * Holds a small window of instruction-cache lines that have completed
 * their L1I access. A demand request for a new line also prefetches
 * the sequential next line, modelling a pipelined front end: straight-
 * line code streams at full fetch width, while taken branches to cold
 * lines pay the L1I (or miss) latency.
 */

#ifndef BVL_CPU_FETCH_BUFFER_HH
#define BVL_CPU_FETCH_BUFFER_HH

#include <deque>
#include <unordered_set>

#include "mem/mem_system.hh"
#include "sim/clock_domain.hh"
#include "sim/stats.hh"

namespace bvl
{

class FetchBuffer
{
  public:
    FetchBuffer(MemSystem &mem, unsigned coreId, StatGroup &stats,
                std::string statPrefix, unsigned capacity = 8,
                unsigned prefetchDepth = 3)
        : mem(mem), coreId(coreId), stats(stats),
          prefix(std::move(statPrefix)),
          sLineReqs(stats.handle(prefix + "fetchLineReqs")),
          sPrefetches(stats.handle(prefix + "fetchPrefetches")),
          capacity(capacity), prefetchDepth(prefetchDepth)
    {}

    /**
     * True if the line containing @p addr is in the buffer. If not,
     * issues a demand fetch (plus a next-line prefetch) and arranges
     * for @p waker (when non-null) to be re-activated when the demand
     * line arrives. A Clocked pointer rather than a callable: both
     * cores wake the same way, and the completion closure stays a
     * fixed 24-byte capture.
     */
    bool
    lineReady(Addr addr, Clocked *waker)
    {
        Addr line = lineOf(addr);
        if (line == settledLine)
            return true;
        if (ready.count(line)) {
            for (unsigned d = 1; d <= prefetchDepth; ++d)
                prefetch(line + d);
            settledLine = line;
            return true;
        }
        if (!pending.count(line)) {
            sLineReqs++;
            request(line, waker);
            for (unsigned d = 1; d <= prefetchDepth; ++d)
                prefetch(line + d);
        }
        return false;
    }

    void
    reset()
    {
        settledLine = noLine;
        ready.clear();
        readyOrder.clear();
        // Pending requests may still complete; their callbacks tolerate
        // a reset because they only insert into the (cleared) sets.
        pending.clear();
    }

  private:
    void
    prefetch(Addr line)
    {
        if (ready.count(line) || pending.count(line))
            return;
        sPrefetches++;
        request(line, nullptr);
    }

    void
    request(Addr line, Clocked *waker)
    {
        pending.insert(line);
        mem.fetchInst(coreId, line << lineShift, [this, line, waker] {
            pending.erase(line);
            insertReady(line);
            if (waker)
                waker->activate();
        });
    }

    void
    insertReady(Addr line)
    {
        settledLine = noLine;
        if (ready.insert(line).second)
            readyOrder.push_back(line);
        while (readyOrder.size() > capacity) {
            ready.erase(readyOrder.front());
            readyOrder.pop_front();
        }
    }

    MemSystem &mem;
    unsigned coreId;
    StatGroup &stats;
    std::string prefix;
    StatHandle sLineReqs, sPrefetches;
    unsigned capacity;
    unsigned prefetchDepth;

    std::unordered_set<Addr> ready;
    std::deque<Addr> readyOrder;
    std::unordered_set<Addr> pending;
    /**
     * The last line lineReady() found ready, after which it and its
     * prefetch lines were all in ready or pending. Lines leave those
     * sets only in insertReady() and reset(), which clear it, so a
     * repeated ask for this line can return at once with the same
     * answer and the same stats.
     */
    static constexpr Addr noLine = ~Addr(0);
    Addr settledLine = noLine;
};

} // namespace bvl

#endif // BVL_CPU_FETCH_BUFFER_HH
