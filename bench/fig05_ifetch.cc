/**
 * @file
 * Figure 5: number of instruction-fetch requests to memory for the
 * data-parallel workloads on 1bIV-4L, 1bDV and 1b-4VL, normalized to
 * 1bDV. Long hardware vectors amortize the front end, so 1bDV and
 * 1b-4VL fetch far less than 1bIV-4L's four independently fetching
 * little cores plus its short-vector big core.
 */

#include "bench/bench_util.hh"

using namespace bvlbench;

int
main()
{
    setVerbose(false);
    Scale scale = chosenScale(Scale::small);
    printHeader("Figure 5: instruction fetch requests to memory "
                "(normalized to 1bDV)", scale);

    const Design designs[] = {Design::d1bIV4L, Design::d1bDV,
                              Design::d1b4VL};
    SweepService pool(SweepServiceOptions::fromEnv("fig05_ifetch"));
    return finishSweep(pool, [&] {
        SweepResults runs(pool);
        for (const auto &name : dataParallelNames())
            for (Design d : designs)
                runs.push(d, name, scale);

        std::printf("%-14s %10s %10s %10s\n", "workload", "1bIV-4L",
                    "1bDV", "1b-4VL");
        for (const auto &name : dataParallelNames()) {
            double vals[3];
            for (int i = 0; i < 3; ++i)
                vals[i] = static_cast<double>(runs.pop().ifetchReqs);
            double base = vals[1] > 0 ? vals[1] : 1.0;
            std::printf("%-14s %10.2f %10.2f %10.2f\n", name.c_str(),
                        vals[0] / base, vals[1] / base, vals[2] / base);
            std::fflush(stdout);
        }
    });
}
