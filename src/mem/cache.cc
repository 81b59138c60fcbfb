#include "mem/cache.hh"

#include <algorithm>

#include "sim/check/invariants.hh"
#include "sim/fault.hh"
#include "sim/trace/tracer.hh"
#include "sim/watchdog.hh"

namespace bvl
{

Cache::Cache(ClockDomain &cd, StatGroup &sg, CacheParams params,
             MemLevel *next_level, int l1_id)
    : clock(cd), stats(sg), p(std::move(params)), next(next_level),
      l1Id(l1_id),
      sAccesses(sg.handle(p.name + ".accesses")),
      sHits(sg.handle(p.name + ".hits")),
      sMisses(sg.handle(p.name + ".misses")),
      sFills(sg.handle(p.name + ".fills")),
      sEvictions(sg.handle(p.name + ".evictions")),
      sWritebacks(sg.handle(p.name + ".writebacks")),
      sInvalidations(sg.handle(p.name + ".invalidations")),
      sMshrFull(sg.handle(p.name + ".mshrFull"))
{
    bvl_assert(p.sizeBytes % (p.assoc * lineBytes) == 0,
               "%s: size not divisible by assoc*line", p.name.c_str());
    numSets = p.sizeBytes / (p.assoc * lineBytes);
    bvl_assert((numSets & (numSets - 1)) == 0,
               "%s: set count must be a power of two", p.name.c_str());
    sets.assign(numSets, std::vector<Way>(p.assoc));
    mshrs.resize(p.numMshrs);
}

unsigned
Cache::setIndex(Addr lineNum) const
{
    return setIndexIn(indexMode, lineNum);
}

unsigned
Cache::setIndexIn(IndexMode mode, Addr lineNum) const
{
    if (mode == IndexMode::vectorBanked)
        return static_cast<unsigned>((lineNum / p.numBanks) % numSets);
    return static_cast<unsigned>(lineNum % numSets);
}

Cache::Way *
Cache::findWay(Addr lineNum, unsigned set)
{
    for (auto &way : sets[set])
        if (way.valid && way.line == lineNum)
            return &way;
    return nullptr;
}

const Cache::Way *
Cache::findWay(Addr lineNum, unsigned set) const
{
    for (const auto &way : sets[set])
        if (way.valid && way.line == lineNum)
            return &way;
    return nullptr;
}

bool
Cache::probe(Addr addr) const
{
    Addr lineNum = lineOf(lineAlign(addr));
    return findWay(lineNum, setIndex(lineNum)) != nullptr;
}

const Cache::Way *
Cache::findResident(Addr lineNum) const
{
    if (const Way *way = findWay(
            lineNum, setIndexIn(IndexMode::scalarPrivate, lineNum)))
        return way;
    return findWay(lineNum, setIndexIn(IndexMode::vectorBanked, lineNum));
}

bool
Cache::residentAnywhere(Addr addr) const
{
    return findResident(lineOf(lineAlign(addr))) != nullptr;
}

bool
Cache::dropLine(Addr lineNum)
{
    Way *way = const_cast<Way *>(findResident(lineNum));
    if (!way)
        return false;
    way->valid = false;
    way->dirty = false;
    return true;
}

void
Cache::invalidate(Addr lineAddr)
{
    if (dropLine(lineOf(lineAlign(lineAddr))))
        sInvalidations++;
}

void
Cache::warmInvalidate(Addr lineAddr)
{
    dropLine(lineOf(lineAlign(lineAddr)));
}

Cache::Mshr *
Cache::findMshr(Addr lineNum)
{
    for (Mshr &m : mshrs)
        if (m.valid && m.line == lineNum)
            return &m;
    return nullptr;
}

void
Cache::registerInvariants(InvariantRegistry &reg)
{
    // O(1) structural checks only: invariant sweeps run at retire
    // granularity, so no per-set/per-way walks here.
    reg.add(p.name + ".mshr.bound", [this]() -> std::string {
        if (mshrsUsed <= p.numMshrs)
            return "";
        return std::to_string(mshrsUsed) +
               " MSHRs allocated, capacity " +
               std::to_string(p.numMshrs);
    });
    reg.add(p.name + ".mshr.stall", [this]() -> std::string {
        // A request may only stall in pendingQueue while the MSHR
        // file is genuinely full.
        if (pendingQueue.empty() || mshrsUsed >= p.numMshrs)
            return "";
        return std::to_string(pendingQueue.size()) +
               " requests stalled with only " +
               std::to_string(mshrsUsed) + "/" +
               std::to_string(p.numMshrs) + " MSHRs busy";
    });
}

void
Cache::setTracer(Tracer *t)
{
    trace = t;
    if (trace)
        traceTid = trace->track(p.name);
}

void
Cache::registerProgress(Watchdog &wd)
{
    // Hits and fills together advance on every serviced access; the
    // MSHR table is the in-flight request state worth dumping.
    wd.addSource(p.name,
                 [this] { return sHits.value() + sFills.value(); },
                 [this] { return mshrReport(); });
}

std::string
Cache::mshrReport() const
{
    if (mshrsUsed == 0 && pendingQueue.empty())
        return "";
    std::string out = "mshrs " + std::to_string(mshrsUsed) + "/" +
                      std::to_string(p.numMshrs) + " stalled " +
                      std::to_string(pendingQueue.size()) + " lines";
    unsigned listed = 0;
    for (const Mshr &m : mshrs) {
        if (!m.valid)
            continue;
        out += (listed == 0 ? ": " : " ");
        out += std::to_string(m.line);
        out += m.isWrite ? "(w," : "(r,";
        out += std::to_string(m.waiters.size()) + "w)";
        if (++listed == 8) {
            out += " ...";
            break;
        }
    }
    return out;
}

void
Cache::access(Addr addr, bool isWrite, MemCallback done)
{
    Addr lineNum = lineOf(lineAlign(addr));
    auto &eq = clock.eventQueue();

    // Tag-port occupancy: portsPerCycle lookups per cycle.
    Tick start = std::max(eq.now(), portNextFree);
    portNextFree = start + clock.periodPs() / p.portsPerCycle;

    Tick tagDone = start + clock.cyclesToTicks(p.hitLatency);
    sAccesses++;

    unsigned set = setIndex(lineNum);
    if (Way *way = findWay(lineNum, set)) {
        way->lastUse = eq.now();
        way->dirty |= isWrite;
        sHits++;
        if (done)
            eq.scheduleAt(tagDone, std::move(done));
        return;
    }

    sMisses++;
    handleMiss(lineNum, isWrite, std::move(done), tagDone);
}

void
Cache::handleMiss(Addr lineNum, bool isWrite, MemCallback done,
                  Tick readyTick)
{
    auto &eq = clock.eventQueue();

    if (Mshr *pending = findMshr(lineNum)) {
        // Secondary miss: piggyback on the outstanding request.
        pending->isWrite |= isWrite;
        if (done)
            pending->waiters.push_back(std::move(done));
        return;
    }

    if (mshrsUsed >= p.numMshrs) {
        sMshrFull++;
        pendingQueue.push_back(PendingReq{lineNum, isWrite, std::move(done)});
        return;
    }

    Mshr &mshr = *std::find_if(mshrs.begin(), mshrs.end(),
                               [](const Mshr &m) { return !m.valid; });
    ++mshrsUsed;
    mshr.valid = true;
    mshr.line = lineNum;
    mshr.isWrite = isWrite;
    mshr.allocTick = trace ? eq.now() : 0;
    if (done)
        mshr.waiters.push_back(std::move(done));

    Tick delay = readyTick > eq.now() ? readyTick - eq.now() : 0;
    // Injected transient: the miss response is stretched by a few
    // cycles, as if the fill got stuck behind unrelated traffic.
    if (injector)
        delay += clock.cyclesToTicks(
            injector->cacheResponseDelay(eq.now()));
    auto send = [this, lineNum] { sendMiss(lineNum); };
    static_assert(SmallFn::fitsInline<decltype(send)>(),
                  "miss capture must fit SmallFn inline");
    eq.schedule(delay, std::move(send));
}

void
Cache::sendMiss(Addr lineNum)
{
    Mshr *mshr = findMshr(lineNum);
    bvl_assert(mshr, "%s: lost MSHR", p.name.c_str());
    auto filled = [this, lineNum] { completeMiss(lineNum); };
    static_assert(SmallFn::fitsInline<decltype(filled)>(),
                  "fill capture must fit SmallFn inline");
    next->request(l1Id, lineNum << lineShift, mshr->isWrite,
                  std::move(filled));
}

void
Cache::completeMiss(Addr lineNum)
{
    auto &eq = clock.eventQueue();
    Mshr *mshr = findMshr(lineNum);
    bvl_assert(mshr, "%s: MSHR vanished", p.name.c_str());
    bool isWrite = mshr->isWrite;
    fillWaiters.swap(mshr->waiters);
    if (trace && trace->wants(TraceCat::cache)) {
        // Miss lifetimes overlap (non-blocking cache), so MSHR
        // allocate -> fill pairs as async events.
        std::uint64_t id = trace->nextAsyncId();
        Json args = Json::object();
        args.set("line", lineNum);
        args.set("write", isWrite);
        args.set("waiters", static_cast<unsigned>(fillWaiters.size()));
        trace->asyncBegin(TraceCat::cache, traceTid, "miss", id,
                          mshr->allocTick, std::move(args));
        trace->asyncEnd(TraceCat::cache, traceTid, "miss", id,
                        eq.now());
    }
    mshr->valid = false;
    --mshrsUsed;
    fill(lineNum, isWrite);
    // One-cycle fill-forward latency to the waiting requests.
    Tick respond = eq.now() + clock.cyclesToTicks(1);
    for (auto &w : fillWaiters)
        eq.scheduleAt(respond, std::move(w));
    fillWaiters.clear();
    issuePending();
}

void
Cache::fill(Addr lineNum, bool isWrite)
{
    installLine(lineNum, isWrite, /*warm=*/false);
}

void
Cache::installLine(Addr lineNum, bool isWrite, bool warm)
{
    // If this cache already holds the line under the *other* indexing
    // mode (mode switched while it was resident), drop the stale copy:
    // the coherence protocol migrates the line to its new home set.
    dropLine(lineNum);

    unsigned set = setIndex(lineNum);
    Way *victim = nullptr;
    for (auto &way : sets[set]) {
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (!victim || way.lastUse < victim->lastUse)
            victim = &way;
    }
    bvl_assert(victim, "%s: no victim way", p.name.c_str());

    if (victim->valid) {
        next->evicted(l1Id, victim->line << lineShift);
        if (!warm)
            sEvictions++;
        if (victim->dirty) {
            if (warm) {
                next->warmRequest(l1Id, victim->line << lineShift,
                                  true);
            } else {
                sWritebacks++;
                next->request(l1Id, victim->line << lineShift, true,
                              MemCallback());
            }
        }
    }

    victim->valid = true;
    victim->line = lineNum;
    victim->dirty = isWrite;
    victim->lastUse = clock.eventQueue().now();
    if (!warm)
        sFills++;
}

void
Cache::warmAccess(Addr addr, bool isWrite)
{
    Addr lineNum = lineOf(lineAlign(addr));
    unsigned set = setIndex(lineNum);
    if (Way *way = findWay(lineNum, set)) {
        way->lastUse = clock.eventQueue().now();
        way->dirty |= isWrite;
        return;
    }
    // Mirror the timed miss path's directory order: the next level
    // sees the line request before this cache installs it.
    next->warmRequest(l1Id, lineNum << lineShift, isWrite);
    installLine(lineNum, isWrite, /*warm=*/true);
}

void
Cache::issuePending()
{
    while (!pendingQueue.empty() && mshrsUsed < p.numMshrs) {
        PendingReq &front = pendingQueue.front();
        Addr lineNum = front.line;
        bool isWrite = front.isWrite;
        MemCallback done = std::move(front.done);
        pendingQueue.pop_front();
        // Re-check the tags: the line may have been filled meanwhile.
        unsigned set = setIndex(lineNum);
        if (Way *way = findWay(lineNum, set)) {
            way->dirty |= isWrite;
            way->lastUse = clock.eventQueue().now();
            if (done)
                clock.eventQueue().schedule(clock.cyclesToTicks(1),
                                            std::move(done));
            continue;
        }
        handleMiss(lineNum, isWrite, std::move(done),
                   clock.eventQueue().now());
    }
}

} // namespace bvl
