/**
 * @file
 * Figure 6: number of data requests to memory, normalized to 1bDV.
 * Wide engines fetch whole cache lines per request; 1bIV-4L's scalar
 * little cores and 128-bit integrated unit issue many more, smaller
 * requests.
 */

#include "bench/bench_util.hh"

using namespace bvlbench;

int
main()
{
    setVerbose(false);
    Scale scale = chosenScale(Scale::small);
    printHeader("Figure 6: data requests to memory "
                "(normalized to 1bDV)", scale);

    const Design designs[] = {Design::d1bIV4L, Design::d1bDV,
                              Design::d1b4VL};
    SweepService pool(SweepServiceOptions::fromEnv("fig06_dreq"));
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
                vals[i] = static_cast<double>(runs.pop().dataReqs);
            double base = vals[1] > 0 ? vals[1] : 1.0;
            std::printf("%-14s %10.2f %10.2f %10.2f\n", name.c_str(),
                        vals[0] / base, vals[1] / base, vals[2] / base);
            std::fflush(stdout);
        }
    });
}
