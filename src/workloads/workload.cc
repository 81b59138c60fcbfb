#include "workloads/workload.hh"

#include <set>

#include "sim/logging.hh"

namespace bvl
{

// Factories defined next to their workload classes, grouped by file.
WorkloadPtr makeVvadd(Scale), makeMmult(Scale), makeSaxpy(Scale);
WorkloadPtr makeIdct8(Scale), makeYcbcr(Scale), makeConv2d(Scale),
    makeGemm8(Scale), makeBytescan(Scale);
WorkloadPtr makeBackprop(Scale), makeKmeans(Scale), makeBlackscholes(Scale),
    makeParticlefilter(Scale);
WorkloadPtr makeJacobi2d(Scale), makePathfinder(Scale), makeLavamd(Scale);
WorkloadPtr makeSw(Scale);
WorkloadPtr makeBfs(Scale), makeBc(Scale), makeTc(Scale), makeRadii(Scale);
WorkloadPtr makeComponents(Scale), makePagerank(Scale), makeMis(Scale),
    makeKcore(Scale);

namespace
{

const WorkloadEntry registry[] = {
    {"vvadd", Suite::kernel, makeVvadd},
    {"mmult", Suite::kernel, makeMmult},
    {"saxpy", Suite::kernel, makeSaxpy},
    {"idct8", Suite::mobile, makeIdct8},
    {"ycbcr", Suite::mobile, makeYcbcr},
    {"conv2d", Suite::mobile, makeConv2d},
    {"gemm8", Suite::mobile, makeGemm8},
    {"bytescan", Suite::mobile, makeBytescan},
    {"backprop", Suite::dataParallel, makeBackprop},
    {"kmeans", Suite::dataParallel, makeKmeans},
    {"blackscholes", Suite::dataParallel, makeBlackscholes},
    {"particlefilter", Suite::dataParallel, makeParticlefilter},
    {"jacobi-2d", Suite::dataParallel, makeJacobi2d},
    {"pathfinder", Suite::dataParallel, makePathfinder},
    {"lavamd", Suite::dataParallel, makeLavamd},
    {"sw", Suite::dataParallel, makeSw},
    {"bfs", Suite::taskParallel, makeBfs},
    {"bc", Suite::taskParallel, makeBc},
    {"tc", Suite::taskParallel, makeTc},
    {"radii", Suite::taskParallel, makeRadii},
    {"components", Suite::taskParallel, makeComponents},
    {"pagerank", Suite::taskParallel, makePagerank},
    {"mis", Suite::taskParallel, makeMis},
    {"kcore", Suite::taskParallel, makeKcore},
};

} // namespace

Addr
Workload::nextTextBase()
{
    Addr base = nextText;
    nextText += 0x10000;
    return base;
}

std::span<const WorkloadEntry>
workloadTable()
{
    // Diagnose a duplicated name once, on first use.
    [[maybe_unused]] static const bool checked =
        (checkUniqueNames(registry), true);
    return registry;
}

void
checkUniqueNames(std::span<const WorkloadEntry> table)
{
    std::set<std::string> seen;
    for (const auto &e : table) {
        if (!seen.insert(e.name).second) {
            fatal("duplicate workload name '%s': two registry rows "
                  "share it; rename one (names key sweep journals, "
                  "result caches and checkpoint farms)",
                  e.name);
        }
    }
}

WorkloadPtr
makeWorkload(const std::string &name, Scale scale)
{
    for (const auto &e : workloadTable()) {
        if (name != e.name)
            continue;
        WorkloadPtr w = e.factory(scale);
        bvl_assert(w->name() == name,
                   "registry row '%s' builds workload '%s'", e.name,
                   w->name().c_str());
        return w;
    }
    return nullptr;
}

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names;
    for (const auto &e : workloadTable())
        names.push_back(e.name);
    return names;
}

} // namespace bvl
