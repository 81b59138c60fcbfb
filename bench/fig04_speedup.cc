/**
 * @file
 * Figure 4: speedup over 1L of all seven systems, for the 8
 * task-parallel (Ligra) and 11 data-parallel (kernels + apps)
 * workloads. The paper's headline numbers are the geometric means:
 * 1b-4VL ~1.6x over 1bIV-4L on data-parallel work and 1bIV-4L/1b-4VL
 * ~1.7x over 1bDV on task-parallel work.
 */

#include <cmath>

#include "bench/bench_util.hh"

using namespace bvlbench;

namespace
{

void
runSuite(const char *label, const std::vector<std::string> &names,
         Scale scale, SweepService &pool)
{
    const Design designs[] = {Design::d1b, Design::d1bIV, Design::d1b4L,
                              Design::d1bIV4L, Design::d1bDV,
                              Design::d1b4VL};

    // Submit the whole (workload x design) grid up front; results come
    // back in submission order no matter when each job finishes.
    SweepResults runs(pool);
    for (const auto &name : names) {
        runs.push(Design::d1L, name, scale);
        for (Design d : designs)
            runs.push(d, name, scale);
    }

    std::printf("\n[%s]\n", label);
    std::printf("%-14s", "workload");
    std::printf(" %8s", "1L");
    for (Design d : designs)
        std::printf(" %8s", designName(d));
    std::printf("\n");

    std::vector<double> logsum(6, 0.0);
    std::vector<unsigned> counted(6, 0);
    for (const auto &name : names) {
        auto base = runs.pop();
        std::printf("%-14s %8.2f", name.c_str(), 1.0);
        unsigned i = 0;
        for (Design d : designs) {
            (void)d;
            auto r = runs.pop();
            double speedup = speedupOf(base, r);
            if (speedup > 0.0) {
                logsum[i] += std::log(speedup);
                ++counted[i];
                std::printf(" %8.2f", speedup);
            } else {
                // Failed runs are excluded from the geomean.
                std::printf(" %8s", runStatusName(r.status));
            }
            ++i;
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    std::printf("%-14s %8.2f", "geomean", 1.0);
    for (unsigned i = 0; i < 6; ++i)
        std::printf(" %8.2f",
                    counted[i] ? std::exp(logsum[i] / counted[i]) : 0.0);
    std::printf("\n");
}

} // namespace

int
main()
{
    setVerbose(false);
    Scale scale = chosenScale(Scale::small);
    SweepService pool(SweepServiceOptions::fromEnv("fig04_speedup"));
    printHeader("Figure 4: speedup over 1L", scale);
    return finishSweep(pool, [&] {
        runSuite("task-parallel (Ligra)", taskParallelNames(), scale,
                 pool);
        runSuite("data-parallel (kernels + apps)", dataParallelNames(),
                 scale, pool);
    });
}
