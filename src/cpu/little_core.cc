#include "cpu/little_core.hh"

#include "sim/check/check_context.hh"
#include "sim/trace/tracer.hh"
#include "sim/watchdog.hh"

namespace bvl
{

LittleCore::LittleCore(ClockDomain &cd, StatGroup &sg, MemSystem &ms,
                       BackingStore &bs, unsigned core_id,
                       unsigned vlen_bits, LittleCoreParams params)
    : Clocked(cd, "little" + std::to_string(core_id)),
      stats(sg), mem(ms), backing(bs), id(core_id), p(params),
      prefix("little" + std::to_string(core_id) + "."),
      sFetched(sg.handle(prefix + "fetched")),
      sRetired(sg.handle(prefix + "retired")),
      sCycles(sg.handle(prefix + "cycles")),
      arch(vlen_bits),
      fetchBuf(ms, core_id, sg, prefix)
{
    for (unsigned c = 0; c < numStallCauses; ++c)
        sStall[c] = sg.handle(prefix + "stall." +
                              stallName(StallCause(c)));
    regReadyAt.fill(0);
    regProducer.fill(ProducerKind::none);
    fuBusyUntil.fill(0);
}

void
LittleCore::beginWindow(ProgramPtr program, std::uint64_t maxFetch,
                        std::function<void()> done)
{
    bvl_assert(!running, "little%u: window start while busy", id);
    prog = std::move(program);
    onDone = std::move(done);
    running = true;
    haltSeen = false;
    haltIssued = false;
    fetchStopAt = maxFetch;
    windowFetched_ = 0;
    markFetchAt = 0;
    windowLastFetch_ = clock().eventQueue().now();
    windowMark_ = 0;
    fetchQueue.clear();
    fetchBuf.reset();
    fetchStallUntil = 0;
    regReadyAt.fill(0);
    regProducer.fill(ProducerKind::none);
    fuBusyUntil.fill(0);
    outstandingLoads = 0;
    outstandingStores = 0;
    activate();
}

void
LittleCore::runProgram(ProgramPtr program,
                       const std::vector<std::pair<RegId, std::uint64_t>>
                           &args,
                       std::function<void()> done)
{
    arch.reset();
    for (const auto &[reg, value] : args) {
        if (isFReg(reg))
            arch.setF(reg, value);
        else
            arch.setX(reg, value);
    }
    beginWindow(std::move(program), 0, std::move(done));
    if (check)
        check->onProgramStart(this, prog.get(), arch);
}

void
LittleCore::runWindow(ProgramPtr program, std::uint64_t maxFetch,
                      std::function<void()> done,
                      std::uint64_t markFetch)
{
    // Architectural state is left exactly as the caller seeded it
    // (fast-forward / checkpoint restore).
    beginWindow(std::move(program), maxFetch, std::move(done));
    markFetchAt = markFetch;
}

void
LittleCore::recordStall(StallCause cause)
{
    sStall[unsigned(cause)]++;
}

void
LittleCore::fetchStage()
{
    auto &eq = clock().eventQueue();
    if (haltSeen || fetchLimitHit() || fetchStallUntil > eq.now() ||
        fetchQueue.size() >= p.fetchQueueDepth) {
        return;
    }
    if (arch.pc >= prog->size())
        return;

    Addr instAddr = prog->instAddr(arch.pc);
    if (!fetchBuf.lineReady(instAddr, this))
        return;

    // Functional-first execution at fetch (oracle EX), straight into
    // the reused queue slot.
    PendingInst &pi = fetchQueue.pushSlot();
    stepOne(arch, *prog, backing, pi.trace);
    pi.fetchTick = trace ? eq.now() : 0;
    if (check)
        check->onFetchExecuted(this, arch, pi.trace, backing, eq.now());
    sFetched++;
    ++windowFetched_;
    windowLastFetch_ = eq.now();
    if (windowFetched_ == markFetchAt)
        windowMark_ = eq.now();

    const ExecTrace &t = fetchQueue.back().trace;
    if (t.inst->op == Op::halt)
        haltSeen = true;
    if (t.isBranch && t.taken)
        fetchStallUntil =
            eq.now() + clock().cyclesToTicks(p.takenBranchPenalty);
}

bool
LittleCore::issueStage()
{
    auto &eq = clock().eventQueue();
    Tick now = eq.now();

    if (fetchQueue.empty()) {
        recordStall(StallCause::misc);
        return false;
    }

    const ExecTrace &t = fetchQueue.front().trace;
    const Instr &in = *t.inst;
    bvl_assert(!in.isVector(),
               "little%u executed vector instruction in scalar mode", id);

    FuClass fu = in.traits().fu;

    // Source operand readiness.
    for (RegId r : {in.rs1, in.rs2, in.rs3}) {
        if (r == regIdInvalid || r >= 64)
            continue;
        if (regReadyAt[r] > now) {
            recordStall(regProducer[r] == ProducerKind::memory
                        ? StallCause::rawMem : StallCause::rawLlfu);
            return false;
        }
    }

    // Structural: FU occupancy and LSQ space.
    if (fu != FuClass::nop && fuBusyUntil[unsigned(fu)] > now) {
        recordStall(StallCause::structural);
        return false;
    }
    if (in.op == Op::load && outstandingLoads >= p.lsqEntries) {
        recordStall(StallCause::structural);
        return false;
    }
    if (in.op == Op::store && outstandingStores >= p.lsqEntries) {
        recordStall(StallCause::structural);
        return false;
    }

    // --- issue ---
    if (fu != FuClass::nop) {
        Cycles lat = p.fu.latency(fu);
        fuBusyUntil[unsigned(fu)] =
            now + clock().cyclesToTicks(p.fu.pipelined(fu) ? 1 : lat);
    }

    if (in.op == Op::halt) {
        haltIssued = true;
    } else if (in.op == Op::load) {
        RegId rd = in.rd;
        regReadyAt[rd] = maxTick;
        regProducer[rd] = ProducerKind::memory;
        ++outstandingLoads;
        ++regGen[rd];
        std::uint32_t gen = regGen[rd];
        mem.accessData(id, t.addr, false, [this, rd, gen] {
            --outstandingLoads;
            if (regGen[rd] == gen)
                regReadyAt[rd] = clock().eventQueue().now();
            activate();
            maybeFinish();
        });
    } else if (in.op == Op::store) {
        ++outstandingStores;
        mem.accessData(id, t.addr, true, [this] {
            --outstandingStores;
            activate();
            maybeFinish();
        });
    } else if (in.rd != regIdInvalid && in.rd < 64) {
        Cycles lat = p.fu.latency(fu);
        regReadyAt[in.rd] = now + clock().cyclesToTicks(lat);
        regProducer[in.rd] = FuLatencies::longLatency(fu)
            ? ProducerKind::longFu : ProducerKind::shortOp;
        ++regGen[in.rd];
    }

    if (trace && trace->wants(TraceCat::core)) {
        // Fetch-to-issue lifetimes of queued instructions overlap, so
        // they trace as async begin/end pairs.
        std::uint64_t aid = trace->nextAsyncId();
        Json args = Json::object();
        args.set("seq", numRetired + 1);
        args.set("op", opName(in.op));
        args.set("fetch", fetchQueue.front().fetchTick);
        args.set("issue", now);
        trace->asyncBegin(TraceCat::core, traceTid, opName(in.op), aid,
                          fetchQueue.front().fetchTick, std::move(args));
        trace->asyncEnd(TraceCat::core, traceTid, opName(in.op), aid,
                        now);
    }
    fetchQueue.pop_front();
    ++numRetired;
    sRetired++;
    if (check)
        check->onRetire(this, now);
    recordStall(StallCause::busy);
    return true;
}

void
LittleCore::setTracer(Tracer *t)
{
    trace = t;
    if (trace)
        traceTid = trace->track("little" + std::to_string(id));
}

void
LittleCore::maybeFinish()
{
    bool windowDone = fetchLimitHit() && fetchQueue.empty();
    if (!running || !(haltIssued || windowDone))
        return;
    if (outstandingLoads != 0 || outstandingStores != 0)
        return;
    running = false;
    if (check)
        check->onDrain(this, clock().eventQueue().now());
    if (onDone) {
        // Defer: the callback may immediately start another program.
        auto done = std::move(onDone);
        onDone = nullptr;
        clock().eventQueue().schedule(clock().cyclesToTicks(1),
                                      std::move(done));
    }
}

bool
LittleCore::tick()
{
    if (!running)
        return false;
    ++numCycles;
    sCycles++;
    fetchStage();
    if (!haltIssued)
        issueStage();
    else
        recordStall(StallCause::misc);   // draining memory
    maybeFinish();
    return running;
}

void
LittleCore::registerInvariants(InvariantRegistry &reg)
{
    reg.add(prefix + "fetchQ.bound", [this]() -> std::string {
        if (fetchQueue.size() <= p.fetchQueueDepth)
            return "";
        return "fetch queue holds " +
               std::to_string(fetchQueue.size()) + " entries, depth " +
               std::to_string(p.fetchQueueDepth);
    });
    reg.add(prefix + "lsq.bound", [this]() -> std::string {
        if (outstandingLoads <= p.lsqEntries &&
            outstandingStores <= p.lsqEntries) {
            return "";
        }
        return "LSQ credit overflow: " +
               std::to_string(outstandingLoads) + " loads, " +
               std::to_string(outstandingStores) + " stores, " +
               std::to_string(p.lsqEntries) + " entries each";
    });
}

void
LittleCore::registerProgress(Watchdog &wd)
{
    wd.addSource(prefix + "retire", [this] { return numRetired; },
                 [this] { return progressDetail(); });
}

std::string
LittleCore::progressDetail() const
{
    if (!running)
        return "";
    return "fetchQ " + std::to_string(fetchQueue.size()) + " ld " +
           std::to_string(outstandingLoads) + " st " +
           std::to_string(outstandingStores) +
           (haltSeen ? " halting" : "");
}

} // namespace bvl
