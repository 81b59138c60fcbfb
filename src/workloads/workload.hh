/**
 * @file
 * Workload interface and registry.
 *
 * A Workload owns its dataset layout in the simulated address space,
 * builds the scalar and vectorized programs that compute it (Table IV
 * and V of the paper), decomposes itself into a TaskGraph for the
 * multi-core configurations, and self-verifies its output against a
 * host-side reference after a run.
 *
 * All programs are range-parameterized: x10 = start, x11 = end, so
 * the serial run and every task chunk share the same Program objects.
 *
 * The registry is one table in workload.cc: a row per workload giving
 * its name, suite and factory. To add a workload, define its class
 * and a one-line factory next to its suite-mates, add one row to the
 * table, then re-pin the figure baselines (DESIGN.md §18).
 */

#ifndef BVL_WORKLOADS_WORKLOAD_HH
#define BVL_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "mem/backing_store.hh"
#include "runtime/task_graph.hh"
#include "sim/name_table.hh"
#include "sim/rng.hh"

namespace bvl
{

/** Problem-size scaling knob for the whole suite. */
enum class Scale
{
    tiny,     ///< smoke-test sizes (CI)
    small,    ///< benchmark sizes (default for figure regeneration)
    medium,   ///< closer-to-paper sizes
};

inline constexpr NameTable<Scale, std::size_t(Scale::medium) + 1>
    scaleNames{"tiny", "small", "medium"};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /** Data-parallel (Rodinia/RiVec/genomics) vs task-parallel (Ligra). */
    virtual bool isDataParallel() const = 0;

    /** Populate input data; called once per simulation run. */
    virtual void init(BackingStore &mem) = 0;

    /** Scalar whole-problem program (runs on 1L / 1b). */
    virtual ProgramPtr scalarProgram() = 0;

    /** Arguments for the whole-problem programs. */
    virtual ProgArgs fullRangeArgs() const = 0;

    /** Vectorized whole-problem program (nullptr if not vectorizable). */
    virtual ProgramPtr vectorProgram() { return nullptr; }

    /** Task decomposition for the multi-core runs. */
    virtual TaskGraph taskGraph() = 0;

    /** Check the output in @p mem against the host reference. */
    virtual bool verify(const BackingStore &mem) const = 0;

  protected:
    /**
     * Allocate a text-segment base for the next program this workload
     * builds. The allocator is per-instance, so a workload's program
     * addresses depend only on the order it builds its own programs —
     * never on what else the process (or another thread) has
     * constructed. Each Soc has a private address space and runs one
     * workload, so instances never collide.
     */
    Addr nextTextBase();

  private:
    /** Text segments live far above all data regions and are spaced a
     *  page apart so instruction lines of different programs never
     *  alias in confusing ways. */
    Addr nextText = 0x40000000;
};

using WorkloadPtr = std::unique_ptr<Workload>;

/** The evaluation suite a workload belongs to. */
enum class Suite
{
    kernel,         ///< the 3 kernels of Table IV
    mobile,         ///< the Swan-style mobile tier (DESIGN.md §18)
    dataParallel,   ///< the 8 data-parallel applications of Table V
    taskParallel,   ///< the 8 Ligra-style task-parallel graph apps
};

/** One registry row: a workload's name, suite and factory. */
struct WorkloadEntry
{
    const char *name;
    Suite suite;
    WorkloadPtr (*factory)(Scale);
};

/**
 * The registry: one row per workload, in suite order (kernels,
 * mobile, data-parallel, task-parallel). Reading it constructs
 * nothing.
 */
std::span<const WorkloadEntry> workloadTable();

/**
 * fatal() with a one-line actionable error if two rows of @p table
 * share a name. The registry runs its table through this once, so a
 * colliding name fails loudly instead of silently shadowing the later
 * workload (names key sweep journals, result caches and checkpoint
 * farms).
 */
void checkUniqueNames(std::span<const WorkloadEntry> table);

/** Construct one workload by name (nullptr if unknown). */
WorkloadPtr makeWorkload(const std::string &name, Scale scale);

/** Names of everything in the suite. */
std::vector<std::string> allWorkloadNames();

} // namespace bvl

#endif // BVL_WORKLOADS_WORKLOAD_HH
