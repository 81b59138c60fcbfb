/**
 * @file
 * In-order single-issue little core (scalar mode).
 *
 * Functional-first: instructions are executed against the shared
 * backing store at fetch time (oracle EX); the pipeline model then
 * schedules their timing through a scoreboard with per-register ready
 * times, a small non-blocking load/store queue, and the FuLatencies
 * table. Every stall cycle is attributed to one StallCause so the
 * paper's Figure-7 breakdown can be reported.
 *
 * In vector mode the core's pipeline is modelled by core::VectorLane
 * (paper: the core's front end is disabled and its back end executes
 * VCU micro-ops); this class then sits idle.
 */

#ifndef BVL_CPU_LITTLE_CORE_HH
#define BVL_CPU_LITTLE_CORE_HH

#include <array>
#include <functional>

#include "cpu/fetch_buffer.hh"
#include "cpu/fu_params.hh"
#include "isa/arch_state.hh"
#include "mem/mem_system.hh"
#include "sim/clock_domain.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"

namespace bvl
{

class Watchdog;
class CheckContext;
class InvariantRegistry;
class Tracer;

struct LittleCoreParams
{
    FuLatencies fu{};
    unsigned lsqEntries = 4;
    Cycles takenBranchPenalty = 2;
    unsigned fetchQueueDepth = 4;
};

class LittleCore : public Clocked
{
  public:
    LittleCore(ClockDomain &cd, StatGroup &stats, MemSystem &mem,
               BackingStore &backing, unsigned coreId, unsigned vlenBits,
               LittleCoreParams params = {});

    /**
     * Start executing @p prog with argument registers @p args; @p done
     * fires when the program halts and all memory has drained.
     */
    void runProgram(ProgramPtr prog,
                    const std::vector<std::pair<RegId, std::uint64_t>>
                        &args,
                    std::function<void()> done);

    /**
     * Run a detailed window over at most @p maxFetch dynamic
     * instructions without resetting architectural state; the
     * fast-forward engine seeds ArchState functionally first
     * (DESIGN.md §15). @p maxFetch == 0 means run to the halt.
     */
    void runWindow(ProgramPtr prog, std::uint64_t maxFetch,
                   std::function<void()> done,
                   std::uint64_t markFetch = 0);

    bool busy() const { return running; }
    unsigned coreId() const { return id; }
    ArchState &archState() { return arch; }

    /** Instructions fetched by the current/last window. */
    std::uint64_t windowFetched() const { return windowFetched_; }
    /**
     * Tick of the window's last fetch. Sampled measurement spans
     * window start to here, so the end-of-window drain — simulated
     * only to leave consistent state behind — is not attributed to
     * the measured instructions.
     */
    Tick windowLastFetchTick() const { return windowLastFetch_; }
    /** Tick of the runWindow() markFetch'th fetch (0 = never hit). */
    Tick windowMarkTick() const { return windowMark_; }

    /** Dynamic instructions retired by this core. */
    std::uint64_t retired() const { return numRetired; }

    /** Total cycles this core was running a program. */
    std::uint64_t activeCycles() const { return numCycles; }

    /** Register the retire stage's heartbeat with a watchdog. */
    void registerProgress(Watchdog &wd);

    /** Attach the checker front end (nullptr = disarmed). */
    void setCheckContext(CheckContext *cc) { check = cc; }

    /** Register fetch-queue/LSQ structural invariants. */
    void registerInvariants(InvariantRegistry &reg);

    /** Attach the tracer (nullptr = disarmed) and register the
     *  "little<id>" track. */
    void setTracer(Tracer *t);

    /** Pipeline occupancy snapshot for deadlock diagnostics. */
    std::string progressDetail() const;

  protected:
    bool tick() override;

  private:
    struct PendingInst
    {
        ExecTrace trace;
        /** Fetch timestamp, recorded only while tracing. */
        Tick fetchTick = 0;
    };

    /** Shared pipeline reset + start of runProgram()/runWindow(). */
    void beginWindow(ProgramPtr prog, std::uint64_t maxFetch,
                     std::function<void()> done);
    /** True once the window's fetch budget is spent. */
    bool fetchLimitHit() const
    { return fetchStopAt != 0 && windowFetched_ >= fetchStopAt; }

    void fetchStage();
    bool issueStage();
    void recordStall(StallCause cause);
    void maybeFinish();

    StatGroup &stats;
    MemSystem &mem;
    BackingStore &backing;
    unsigned id;
    LittleCoreParams p;
    std::string prefix;
    /** Interned counters (DESIGN.md §11); sStall is indexed by
     *  StallCause so recordStall() is a single pointer add. */
    StatHandle sFetched, sRetired, sCycles;
    std::array<StatHandle, numStallCauses> sStall;

    ProgramPtr prog;
    ArchState arch;
    std::function<void()> onDone;
    CheckContext *check = nullptr;
    Tracer *trace = nullptr;
    unsigned traceTid = 0;
    bool running = false;
    bool haltSeen = false;     ///< halt fetched; stop fetching
    bool haltIssued = false;
    /** Window fetch budget (0 = unlimited) and fetches so far. */
    std::uint64_t fetchStopAt = 0;
    std::uint64_t windowFetched_ = 0;
    std::uint64_t markFetchAt = 0;
    Tick windowLastFetch_ = 0;
    Tick windowMark_ = 0;

    // fetch state
    Ring<PendingInst> fetchQueue;
    FetchBuffer fetchBuf;
    Tick fetchStallUntil = 0;

    // scoreboard
    std::array<Tick, 64> regReadyAt{};          // x0-x31, f0-f31
    std::array<ProducerKind, 64> regProducer{};
    /** Write generation per register: a load callback only marks its
     *  destination ready if no younger producer overwrote it. */
    std::array<std::uint32_t, 64> regGen{};
    std::array<Tick, 16> fuBusyUntil{};          // per FuClass
    unsigned outstandingLoads = 0;
    unsigned outstandingStores = 0;

    std::uint64_t numRetired = 0;
    std::uint64_t numCycles = 0;
};

} // namespace bvl

#endif // BVL_CPU_LITTLE_CORE_HH
