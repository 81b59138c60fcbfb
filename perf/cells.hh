/**
 * @file
 * The benchmark's workloads and the decomposed cell runner.
 *
 * A cell is one (workload, design) simulation. runCell() performs the
 * same public calls runWorkload() makes for a default-option run —
 * makeWorkload, Soc construction, Workload::init, the design's
 * dispatch (runProgram / WsRuntime::run), Soc::runUntil and
 * Workload::verify — and times each one, so set-up, simulation and
 * verification are separated without adding anything to the library.
 * Its RunResult must equal runWorkload()'s exactly (sameSimulation).
 */

#ifndef BVL_PERF_CELLS_HH
#define BVL_PERF_CELLS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "alloc_count.hh"
#include "soc/run_driver.hh"

namespace perf
{

using bvl::Design;
using bvl::RunResult;
using bvl::Scale;

struct Cell
{
    std::string workload;
    Design design = Design::d1b;
};

/** One benchmark workload: a closed batch of cells at one input size. */
struct Grid
{
    std::string name;
    Scale scale = Scale::tiny;
    std::vector<Cell> cells;
    /** Cells go through SweepService instead of runCell(). */
    bool viaService = false;
};

/** The grid of workload @p name; nullopt if unknown. */
std::optional<Grid> makeGrid(const std::string &name);

const char *scaleName(Scale s);

/** Seconds on the steady clock. */
double nowSec();

/**
 * Host seconds of the host-speed probe: a fixed loop of random
 * read-modify-writes over 16 MiB, run in a child process so its
 * memory never counts toward the benchmark's peak RSS. No change to
 * the simulator can alter it. Passes interleave it with their cells
 * and scale their host times by kProbeRefSec ÷ the probe's time, so a
 * period when other tenants slow the whole host moves the probe too
 * and cancels out.
 */
double probeSeconds();

/** The probe's time on the host that defined the benchmark. */
constexpr double kProbeRefSec = 0.04;

/**
 * Spans kept in memory and written once, as Chrome-trace JSON. Every
 * span of one cell carries the cell's trace id; a child names the
 * span that contains it.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;   ///< 0 = root
        std::uint64_t trace = 0;    ///< cell the span belongs to
        double start = 0.0;         ///< nowSec()
        double end = 0.0;
    };

    /** Record a finished span; returns its id (never 0). */
    std::uint64_t add(std::string name, std::uint64_t parent,
                      std::uint64_t trace, double start, double end);

    /** Σ duration of every span called @p name (seconds). */
    double total(const std::string &name) const;

    const std::vector<Span> &spans() const { return all; }

    /** Chrome trace-event JSON ("X" events, microseconds). */
    std::string chromeJson() const;

  private:
    std::vector<Span> all;
};

/**
 * runCell()'s result: the run plus its set-up phases and wall. The
 * spans carry every phase.
 */
struct CellRun
{
    RunResult result;
    double build = 0.0;      ///< makeWorkload
    double construct = 0.0;  ///< Soc::Soc
    double init = 0.0;       ///< Workload::init
    double wall = 0.0;       ///< whole cell, teardown included
    std::uint64_t events = 0;     ///< EventQueue::executed()
    AllocTotals runAllocs;        ///< heap allocations in Soc::runUntil

    double setup() const { return build + construct + init; }
};

/**
 * Run @p cell with default RunOptions (watchdog armed, no
 * fast-forward, empty caches), timing each public call. With
 * @p spans, also records a root span and one child per call under
 * trace id @p trace.
 */
CellRun runCell(const Cell &cell, Scale scale, SpanLog *spans = nullptr,
                std::uint64_t trace = 0);

/** True if both results describe the same simulation (ns and every
 *  stat); otherwise explains the first difference in @p why. */
bool sameSimulation(const RunResult &a, const RunResult &b,
                    std::string *why);

/** ok and verified. */
bool cellPassed(const RunResult &r);

/**
 * SHA-256 over every cell's (workload, design, status, simulated ns,
 * full stat map), sorted by (workload, design) so cell order does not
 * matter. A host-speed-only change leaves it byte-identical.
 */
std::string digestOf(std::vector<RunResult> results);

} // namespace perf

#endif // BVL_PERF_CELLS_HH
