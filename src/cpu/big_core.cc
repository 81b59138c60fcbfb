#include "cpu/big_core.hh"

#include <algorithm>
#include <bit>

#include "sim/check/check_context.hh"
#include "sim/trace/tracer.hh"
#include "sim/watchdog.hh"

namespace bvl
{

namespace
{

/** Map a FuClass to its pool index / size lookup. */
unsigned
poolSize(const BigCoreParams &p, FuClass fu)
{
    switch (fu) {
      case FuClass::intAlu: return p.numIntAlu;
      case FuClass::intMul:
      case FuClass::intDiv: return p.numMulDiv;
      case FuClass::fpAdd:
      case FuClass::fpMul:
      case FuClass::fpDiv: return p.numFp;
      case FuClass::mem: return p.numMemPorts;
      case FuClass::branch: return p.numBranch;
      default: return 1000;   // nop class: unconstrained
    }
}

} // namespace

BigCore::BigCore(ClockDomain &cd, StatGroup &sg, MemSystem &ms,
                 BackingStore &bs, unsigned vlen_bits,
                 BigCoreParams params)
    : Clocked(cd, "big"), stats(sg), mem(ms), backing(bs),
      p(params),
      sFetched(sg.handle(prefix + "fetched")),
      sRetired(sg.handle(prefix + "retired")),
      sCycles(sg.handle(prefix + "cycles")),
      sMispredicts(sg.handle(prefix + "mispredicts")),
      sVecDispatched(sg.handle(prefix + "vecDispatched")),
      arch(vlen_bits), bpred(params.bpredIndexBits),
      fetchBuf(ms, ms.bigCoreId(), sg, prefix), rob(params.robEntries),
      storeLines(std::bit_ceil(2 * params.robEntries)),
      readyBits((params.robEntries + 63) / 64)
{
    lastWriter.fill(nullptr);
    storeLineShift = 64 - std::countr_zero(storeLines.size());
}

void
BigCore::beginWindow(ProgramPtr program, std::uint64_t maxFetch,
                     std::function<void()> done)
{
    bvl_assert(!running, "big core: window start while busy");
    prog = std::move(program);
    onDone = std::move(done);
    running = true;
    haltSeen = false;
    fetchStopAt = maxFetch;
    windowFetched_ = 0;
    markFetchAt = 0;
    windowLastFetch_ = clock().eventQueue().now();
    windowMark_ = 0;
    fetchBuf.reset();
    fetchStallUntil = 0;
    blockingBranch = nullptr;
    robHead = 0;
    robCount = 0;
    lastWriter.fill(nullptr);
    std::fill(storeLines.begin(), storeLines.end(), StoreLine{});
    std::fill(readyBits.begin(), readyBits.end(), 0);
    readyCount = 0;
    fuInUseThisCycle.fill(0);
    unpipedBusyUntil.fill(0);
    loadsInFlight = 0;
    storesInFlight = 0;
    vecOutstanding = 0;
    vecQueue.clear();
    activate();
}

void
BigCore::runProgram(ProgramPtr program,
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
    bpred.reset();
    beginWindow(std::move(program), 0, std::move(done));
    if (check)
        check->onProgramStart(this, prog.get(), arch);
}

void
BigCore::runWindow(ProgramPtr program, std::uint64_t maxFetch,
                   std::function<void()> done, std::uint64_t markFetch)
{
    // Architectural state and the predictor are left exactly as the
    // caller seeded them (fast-forward / checkpoint restore).
    beginWindow(std::move(program), maxFetch, std::move(done));
    markFetchAt = markFetch;
}

void
BigCore::fetchStage()
{
    auto &eq = clock().eventQueue();
    for (unsigned n = 0; n < p.fetchWidth; ++n) {
        if (haltSeen || fetchLimitHit() || blockingBranch ||
            fetchStallUntil > eq.now() || robCount >= p.robEntries) {
            return;
        }
        if (arch.pc >= prog->size())
            return;

        Addr instAddr = prog->instAddr(arch.pc);
        if (!fetchBuf.lineReady(instAddr, this))
            return;

        // Execute straight into the tail slot. stepOne and the cleared
        // consumer list keep their buffers, so steady-state fetch
        // allocates nothing here.
        std::uint64_t fetchPc = arch.pc;
        RobInst *inst = &robAt(robCount);
        stepOne(arch, *prog, backing, inst->trace);
        sFetched++;
        ++windowFetched_;
        windowLastFetch_ = eq.now();
        if (windowFetched_ == markFetchAt)
            windowMark_ = eq.now();
        if (check)
            check->onFetchExecuted(this, arch, inst->trace, backing,
                                   eq.now());

        inst->seq = nextSeq++;
        inst->pendingSrcs = 0;
        inst->issued = false;
        inst->complete = false;
        inst->vecDispatched = false;
        inst->predictedWrong = false;
        inst->consumers.clear();
        inst->fetchTick = trace ? eq.now() : 0;
        inst->issueTick = 0;
        inst->completeTick = 0;
        const Instr &in = *inst->trace.inst;

        // Register (scalar) source dependences.
        auto addDep = [&](RegId r) {
            if (r == regIdInvalid || r >= 64)
                return;
            RobInst *producer = lastWriter[r];
            if (producer && !producer->complete) {
                ++inst->pendingSrcs;
                producer->consumers.push_back(inst);
            }
        };
        addDep(in.rs1);
        // rs2 is a scalar source for scalar ops and .vx/.vf forms.
        if (!in.isVector() || in.vsrc == VSrc2::vx || in.vsrc == VSrc2::vf)
            addDep(in.rs2);
        addDep(in.rs3 < 64 ? in.rs3 : regIdInvalid);

        // Store -> load ordering through memory (scalar only; the
        // vector engines order their own memory, vmfence orders the
        // scalar/vector boundary).
        if (!in.isVector() && inst->trace.isMem) {
            Addr lnum = lineOf(inst->trace.addr);
            StoreLine &entry = storeLines[storeLineSlot(lnum)];
            if (inst->trace.isStore) {
                entry = {lnum, inst};
            } else if (entry.store && !entry.store->complete) {
                ++inst->pendingSrcs;
                entry.store->consumers.push_back(inst);
            }
        }

        // Rename the destination.
        if (in.rd != regIdInvalid && in.rd < 64 && in.op != Op::store)
            lastWriter[in.rd] = inst;

        // Branch prediction (conditional branches only).
        if (inst->trace.isBranch && in.op != Op::jump) {
            bool predicted = bpred.predict(fetchPc);
            bpred.update(fetchPc, inst->trace.taken);
            if (predicted != inst->trace.taken) {
                inst->predictedWrong = true;
                blockingBranch = inst;
                sMispredicts++;
            }
        }

        if (in.op == Op::halt)
            haltSeen = true;

        if (in.isVector()) {
            vecQueue.push_back(inst);
            if (check)
                check->onVecQueued(this);
        }

        if (in.traits().fu == FuClass::nop) {
            // li/nop/halt: complete at dispatch, no FU needed.
            inst->issued = true;
            inst->complete = true;
            if (trace)
                inst->issueTick = inst->completeTick = eq.now();
        } else if (!in.isVector() && inst->pendingSrcs == 0) {
            markReady(inst);
        }

        ++robCount;
    }
}

bool
BigCore::fuAvailable(FuClass fu, Tick now)
{
    if (fu == FuClass::nop)
        return true;
    if (!p.fu.pipelined(fu) && unpipedBusyUntil[unsigned(fu)] > now)
        return false;
    return fuInUseThisCycle[unsigned(fu)] < poolSize(p, fu);
}

void
BigCore::consumeFu(FuClass fu, Tick now)
{
    if (fu == FuClass::nop)
        return;
    ++fuInUseThisCycle[unsigned(fu)];
    if (!p.fu.pipelined(fu))
        unpipedBusyUntil[unsigned(fu)] =
            now + clock().cyclesToTicks(p.fu.latency(fu));
}

void
BigCore::issueStage()
{
    auto &eq = clock().eventQueue();
    Tick now = eq.now();

    if (fuCycleTick != now) {
        fuInUseThisCycle.fill(0);
        fuCycleTick = now;
    }

    if (readyCount == 0)
        return;
    // Oldest first: robHead to the end of the ring, then the wrapped
    // part. nextReady() re-reads the bitmap after every issue, so an
    // instruction an issue makes ready is seen if it is younger.
    unsigned issued = 0;
    unsigned end = p.robEntries;
    for (unsigned slot = nextReady(robHead, end); issued < p.issueWidth;
         slot = nextReady(slot + 1, end)) {
        if (slot == end) {
            if (end != p.robEntries || robHead == 0)
                break;
            end = robHead;
            slot = nextReady(0, end);
            if (slot == end)
                break;
        }
        RobInst *inst = &rob[slot];
        const Instr &in = *inst->trace.inst;
        FuClass fu = in.traits().fu;

        if (!fuAvailable(fu, now))
            continue;
        if (in.op == Op::load && loadsInFlight >= p.lsqLoads)
            continue;
        if (in.op == Op::store && storesInFlight >= p.lsqStores)
            continue;

        // Issue.
        consumeFu(fu, now);
        inst->issued = true;
        if (trace)
            inst->issueTick = now;
        readyBits[slot / 64] &= ~(std::uint64_t(1) << (slot % 64));
        --readyCount;
        ++issued;

        if (in.op == Op::load) {
            ++loadsInFlight;
            mem.accessData(mem.bigCoreId(), inst->trace.addr, false,
                           [this, inst] {
                --loadsInFlight;
                completeInst(inst);
            });
        } else if (in.op == Op::store) {
            ++storesInFlight;
            mem.accessData(mem.bigCoreId(), inst->trace.addr, true,
                           [this, inst] {
                --storesInFlight;
                completeInst(inst);
            });
        } else {
            Cycles lat = p.fu.latency(fu);
            eq.schedule(clock().cyclesToTicks(lat), [this, inst] {
                completeInst(inst);
            });
        }
    }
}

void
BigCore::markReady(RobInst *inst)
{
    unsigned slot = slotOf(inst);
    readyBits[slot / 64] |= std::uint64_t(1) << (slot % 64);
    ++readyCount;
}

unsigned
BigCore::nextReady(unsigned from, unsigned end) const
{
    while (from < end) {
        std::uint64_t bits = readyBits[from / 64] >> (from % 64);
        if (bits) {
            unsigned slot = from + std::countr_zero(bits);
            return std::min(slot, end);
        }
        from = (from / 64 + 1) * 64;
    }
    return end;
}

std::size_t
BigCore::storeLineSlot(Addr line) const
{
    std::size_t mask = storeLines.size() - 1;
    std::size_t i = storeLineHome(line);
    while (storeLines[i].store && storeLines[i].line != line)
        i = (i + 1) & mask;
    return i;
}

void
BigCore::eraseStoreLine(Addr line, const RobInst *store)
{
    std::size_t i = storeLineSlot(line);
    if (storeLines[i].store != store)
        return;
    // Backward-shift deletion: an entry later in the probe run moves
    // into the hole unless its home slot lies between the hole and it.
    std::size_t mask = storeLines.size() - 1;
    for (std::size_t j = (i + 1) & mask; storeLines[j].store;
         j = (j + 1) & mask) {
        if (((j - storeLineHome(storeLines[j].line)) & mask) >=
            ((j - i) & mask)) {
            storeLines[i] = storeLines[j];
            i = j;
        }
    }
    storeLines[i].store = nullptr;
}

void
BigCore::completeInst(RobInst *inst)
{
    if (inst->complete)
        return;
    inst->complete = true;
    if (trace)
        inst->completeTick = clock().eventQueue().now();

    if (inst->predictedWrong && blockingBranch == inst) {
        blockingBranch = nullptr;
        fetchStallUntil = clock().eventQueue().now() +
                          clock().cyclesToTicks(p.redirectPenalty);
    }

    for (RobInst *consumer : inst->consumers) {
        bvl_assert(consumer->pendingSrcs > 0, "wakeup underflow");
        if (--consumer->pendingSrcs == 0 && !consumer->issued &&
            !consumer->trace.inst->isVector()) {
            markReady(consumer);
        }
    }
    inst->consumers.clear();
    activate();
}

void
BigCore::vecDispatchStage()
{
    // Vector instructions dispatch in program order among themselves.
    // Decoupled engines additionally require the ROB head (paper
    // Section III-A); the integrated unit dispatches as soon as the
    // scalar operands are ready. vmfence always waits for the head
    // and for outstanding scalar memory (paper Section III-B).
    while (vengine && !vecQueue.empty()) {
        RobInst *inst = vecQueue.front();
        const Instr &in = *inst->trace.inst;
        if (inst->pendingSrcs != 0)
            return;
        bool needHead = vengine->dispatchAtHead() ||
                        in.op == Op::vmfence;
        if (needHead && (robCount == 0 || &robAt(0) != inst))
            return;
        if (in.op == Op::vmfence &&
            (loadsInFlight != 0 || storesInFlight != 0)) {
            return;
        }
        if (!vengine->canAccept(inst->trace))
            return;

        inst->vecDispatched = true;
        ++vecOutstanding;
        sVecDispatched++;
        if (trace && trace->wants(TraceCat::big)) {
            Json args = Json::object();
            args.set("seq", inst->seq);
            args.set("op", opName(in.op));
            args.set("robHead", robCount != 0 && &robAt(0) == inst);
            trace->instant(TraceCat::big, traceTid, "vecDispatch",
                           clock().eventQueue().now(), std::move(args));
        }
        if (in.traits().writesScalar) {
            vengine->dispatch(inst->trace, [this, inst] {
                --vecOutstanding;
                completeInst(inst);
            });
        } else {
            vengine->dispatch(inst->trace, [this] {
                --vecOutstanding;
                activate();
                maybeFinish();
            });
            inst->complete = true;
        }
        vecQueue.pop_front();
        // Only one dispatch per cycle (vector dispatch unit port).
        return;
    }
}

void
BigCore::commitStage()
{
    for (unsigned n = 0; n < p.commitWidth && robCount != 0; ++n) {
        RobInst *head = &robAt(0);
        const Instr &in = *head->trace.inst;

        if (in.isVector()) {
            // Dispatch happens in vecDispatchStage; the ROB head only
            // waits here for dispatch (and, for scalar-writing ops,
            // for the engine's response).
            if (!head->vecDispatched || !head->complete)
                return;
        } else if (!head->complete) {
            return;
        }

        // Retire.
        if (in.rd != regIdInvalid && in.rd < 64 &&
            lastWriter[in.rd] == head) {
            lastWriter[in.rd] = nullptr;
        }
        if (head->trace.isMem && head->trace.isStore && !in.isVector())
            eraseStoreLine(lineOf(head->trace.addr), head);
        if (trace && trace->wants(TraceCat::big)) {
            // Instruction lifetimes overlap (out-of-order core), so
            // they trace as async begin/end pairs, not complete spans.
            Tick now = clock().eventQueue().now();
            std::uint64_t id = trace->nextAsyncId();
            Json args = Json::object();
            args.set("seq", head->seq);
            args.set("op", opName(in.op));
            args.set("fetch", head->fetchTick);
            args.set("issue", head->issueTick);
            args.set("complete", head->completeTick);
            args.set("retire", now);
            trace->asyncBegin(TraceCat::big, traceTid, opName(in.op),
                              id, head->fetchTick, std::move(args));
            trace->asyncEnd(TraceCat::big, traceTid, opName(in.op),
                            id, now);
        }
        robHead = (robHead + 1) % p.robEntries;
        --robCount;
        ++numRetired;
        sRetired++;
        if (check)
            check->onRetire(this, clock().eventQueue().now());
    }
}

void
BigCore::setTracer(Tracer *t)
{
    trace = t;
    if (trace)
        traceTid = trace->track("big");
}

void
BigCore::registerInvariants(InvariantRegistry &reg)
{
    reg.add("big.rob.bound", [this]() -> std::string {
        if (robCount <= p.robEntries)
            return "";
        return "ROB holds " + std::to_string(robCount) +
               " entries, capacity " + std::to_string(p.robEntries);
    });
    reg.add("big.lsq.bound", [this]() -> std::string {
        if (loadsInFlight <= p.lsqLoads && storesInFlight <= p.lsqStores)
            return "";
        return "LSQ credit overflow: " + std::to_string(loadsInFlight) +
               "/" + std::to_string(p.lsqLoads) + " loads, " +
               std::to_string(storesInFlight) + "/" +
               std::to_string(p.lsqStores) + " stores";
    });
    // Vector instructions dispatch in program order, and with a
    // head-dispatch engine an incomplete dispatched instruction can
    // only be the ROB head (paper Section III-A).
    reg.add("big.vec.dispatchOrder", [this]() -> std::string {
        bool headDispatch = vengine && vengine->dispatchAtHead();
        bool sawUndispatched = false;
        for (unsigned i = 0; i < robCount; ++i) {
            const RobInst &inst = robAt(i);
            if (!inst.trace.inst || !inst.trace.inst->isVector())
                continue;
            if (!inst.vecDispatched) {
                sawUndispatched = true;
                continue;
            }
            if (sawUndispatched) {
                return "seq " + std::to_string(inst.seq) +
                       " dispatched before an older vector instruction";
            }
            if (headDispatch && i > 0 && !inst.complete) {
                return "seq " + std::to_string(inst.seq) +
                       " dispatched while not at the ROB head";
            }
        }
        return "";
    });
}

void
BigCore::registerProgress(Watchdog &wd)
{
    wd.addSource(prefix + "retire", [this] { return numRetired; },
                 [this] { return progressDetail(); });
}

std::string
BigCore::progressDetail() const
{
    if (!running)
        return "";
    std::string out = "rob " + std::to_string(robCount) + "/" +
                      std::to_string(p.robEntries) + " ready " +
                      std::to_string(readyCount) + " vecQ " +
                      std::to_string(vecQueue.size()) + " vecOut " +
                      std::to_string(vecOutstanding) + " ld " +
                      std::to_string(loadsInFlight) + " st " +
                      std::to_string(storesInFlight);
    if (robCount != 0) {
        const RobInst &head = robAt(0);
        out += " | head v" + std::to_string(head.seq) + " " +
               opName(head.trace.inst->op) +
               (head.complete ? " complete" : " pending") +
               (head.trace.inst->isVector() && !head.vecDispatched
                    ? " awaitingDispatch" : "");
    }
    if (blockingBranch)
        out += " | blocked on branch v" +
               std::to_string(blockingBranch->seq);
    return out;
}

void
BigCore::maybeFinish()
{
    if (!running || !(haltSeen || fetchLimitHit()) || robCount != 0)
        return;
    if (loadsInFlight != 0 || storesInFlight != 0 || vecOutstanding != 0)
        return;
    if (vengine && !vengine->idle())
        return;
    running = false;
    if (check)
        check->onDrain(this, clock().eventQueue().now());
    if (onDone) {
        auto done = std::move(onDone);
        onDone = nullptr;
        clock().eventQueue().schedule(clock().cyclesToTicks(1),
                                      std::move(done));
    }
}

bool
BigCore::tick()
{
    if (!running)
        return false;
    ++numCycles;
    sCycles++;
    vecDispatchStage();
    commitStage();
    issueStage();
    fetchStage();
    maybeFinish();
    return running;
}

} // namespace bvl
