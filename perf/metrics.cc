#include "metrics.hh"

#include <algorithm>
#include <cctype>

namespace perf
{

namespace
{

bool
endsWith(const std::string &s, const std::string &tail)
{
    return s.size() >= tail.size() &&
           s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

/** "littleN.<field>" with N all digits (not "little0.l1d.x"). */
bool
isLittle(const std::string &key, const std::string &field)
{
    const std::string head = "little";
    if (key.compare(0, head.size(), head) != 0 ||
        !endsWith(key, "." + field))
        return false;
    std::size_t end = key.size() - field.size() - 1;
    if (end <= head.size())
        return false;
    for (std::size_t i = head.size(); i < end; ++i)
        if (!std::isdigit(static_cast<unsigned char>(key[i])))
            return false;
    return true;
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
perKilo(double num, double den)
{
    return den > 0.0 ? num * 1000.0 / den : 0.0;
}

double
nsPer(double seconds, double den)
{
    return den > 0.0 ? seconds * 1e9 / den : 0.0;
}

double
simMips(double retired, double wall, double setup)
{
    double simSec = wall - setup;
    return simSec > 0.0 ? retired / simSec / 1e6 : 0.0;
}

SimCounts &
SimCounts::operator+=(const SimCounts &o)
{
    bigRetired += o.bigRetired;
    littleRetired += o.littleRetired;
    bigCycles += o.bigCycles;
    littleCycles += o.littleCycles;
    coreUops += o.coreUops;
    coreCycles += o.coreCycles;
    vmuLineReqs += o.vmuLineReqs;
    l1dAccesses += o.l1dAccesses;
    l2Accesses += o.l2Accesses;
    dramReads += o.dramReads;
    steals += o.steals;
    pops += o.pops;
    overheadCycles += o.overheadCycles;
    return *this;
}

SimCounts
countsOf(const bvl::RunResult &r)
{
    SimCounts c;
    c.bigRetired = r.stat("big.retired");
    c.bigCycles = r.stat("big.cycles");
    for (const char *engine : {"vlittle.", "dve."}) {
        std::string e = engine;
        c.coreUops += r.stat(e + "uopsBroadcast");
        c.coreCycles += r.stat(e + "cycles");
        c.vmuLineReqs +=
            r.stat(e + "loadLineReqs") + r.stat(e + "storeLineReqs");
    }
    c.l2Accesses = r.stat("l2.accesses");
    c.dramReads = r.stat("dram.reads");
    c.steals = r.stat("runtime.steals");
    c.pops = r.stat("runtime.pops");
    c.overheadCycles = r.stat("runtime.overheadCycles");
    for (const auto &kv : r.stats) {
        if (isLittle(kv.first, "retired"))
            c.littleRetired += kv.second;
        else if (isLittle(kv.first, "cycles"))
            c.littleCycles += kv.second;
        else if (endsWith(kv.first, ".l1d.accesses"))
            c.l1dAccesses += kv.second;
    }
    return c;
}

} // namespace perf
