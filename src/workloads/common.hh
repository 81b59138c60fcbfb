/**
 * @file
 * Shared helpers for workload implementations: text-segment
 * allocation, standard data-region addresses, range chunking into
 * task graphs, and float comparison for verification.
 */

#ifndef BVL_WORKLOADS_COMMON_HH
#define BVL_WORKLOADS_COMMON_HH

#include <cmath>

#include "workloads/progutil.hh"
#include "workloads/workload.hh"

namespace bvl
{

/** Standard data-region bases (each Soc has a private address space). */
constexpr Addr regionA = 0x01000000;
constexpr Addr regionB = 0x02000000;
constexpr Addr regionC = 0x03000000;
constexpr Addr regionD = 0x04000000;
constexpr Addr regionE = 0x05000000;

class WorkloadBase : public Workload
{
  public:
    /** All but the Ligra apps (GraphWorkloadBase) are data-parallel. */
    bool isDataParallel() const override { return true; }

  protected:
    /** Finish a program and place its text uniquely in this workload. */
    ProgramPtr
    finishProg(Asm &a)
    {
        auto prog = a.finish();
        prog->setTextBase(nextTextBase());
        return prog;
    }

    /**
     * Single-phase task graph: the range [0, n) split into
     * @p numChunks contiguous chunks over the given programs.
     */
    static TaskGraph
    rangeChunks(ProgramPtr scalar, ProgramPtr vector_, std::uint64_t n,
                unsigned numChunks)
    {
        TaskGraph g;
        g.phases.emplace_back();
        std::uint64_t per = (n + numChunks - 1) / numChunks;
        for (std::uint64_t s = 0; s < n; s += per) {
            Task t;
            t.scalar = scalar;
            t.vector = vector_;
            t.args = {{xreg(10), s}, {xreg(11), std::min(n, s + per)}};
            g.phases.back().tasks.push_back(std::move(t));
        }
        return g;
    }

    static bool
    closeEnough(float got, float want, float relTol = 1e-3f)
    {
        float mag = std::max(std::fabs(want), 1.0f);
        return std::fabs(got - want) <= relTol * mag;
    }

    /**
     * Default chunk count: work-stealing runtimes over-decompose so
     * the fast (vector-capable) worker can absorb most of the work;
     * a slow worker's single chunk must not dominate the critical
     * path.
     */
    static constexpr unsigned defaultChunks = 64;
};

/** Build a @p W at @p scale: the body of every registry factory. */
template <class W>
WorkloadPtr
make(Scale scale)
{
    return std::make_unique<W>(scale);
}

} // namespace bvl

#endif // BVL_WORKLOADS_COMMON_HH
