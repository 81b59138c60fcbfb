/**
 * @file
 * Failure forensics: structured reports and replay recipes.
 *
 * Any non-ok run can be serialized to a JSON failure report
 * (schema "bvl-failure-report-v1") capturing what is needed to
 * understand and reproduce it: the run configuration including the
 * fault plan and checker flags, the final per-component heartbeat
 * table, queue occupancies, the first lockstep divergence if one was
 * caught, the captured diagnostic log, and a replay recipe. Feeding
 * the recipe back through runReplay() re-executes the identical
 * deterministic run; every RunOptions field round-trips, including
 * the engine-parameter override of the Figure 7/8 sweeps (see
 * soc/run_io.hh, which owns the serialization).
 *
 * scaleName() lives here rather than next to Scale: perf/ declares its
 * own scaleName(Scale), so the headers it includes must not declare
 * bvl::scaleName, or argument-dependent lookup makes calls ambiguous.
 */

#ifndef BVL_SIM_CHECK_FORENSICS_HH
#define BVL_SIM_CHECK_FORENSICS_HH

#include <string>

#include "sim/check/json.hh"
#include "soc/run_driver.hh"
#include "workloads/workload.hh"

namespace bvl
{

inline const char *
scaleName(Scale s)
{
    return scaleNames.name(s);
}

/** Build the full "bvl-failure-report-v1" document for @p r. */
Json buildFailureReport(const RunResult &r, const SweepJob &recipe);

/**
 * Serialize @p r to @p path. Returns false (with a warn()) when the
 * file cannot be written; forensics must never turn a diagnosable
 * failure into a crash.
 */
bool writeFailureReport(const std::string &path, const RunResult &r,
                        const SweepJob &recipe);

/**
 * Load the replay recipe from @p path, accepting either a full
 * failure report (its "replay" member) or a bare recipe document.
 * Throws SimFatalError on unreadable or malformed files.
 */
SweepJob loadReplayJob(const std::string &path);

/**
 * Re-run the recipe's workload/design/options. The recipe's
 * forensicsPath is cleared first so a replay never overwrites the
 * report it came from.
 */
RunResult runReplay(const SweepJob &recipe);

} // namespace bvl

#endif // BVL_SIM_CHECK_FORENSICS_HH
