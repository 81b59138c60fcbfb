/**
 * @file
 * JSON serialization of the persisted run structs: RunOptions (with
 * its check/trace/sampling/checkpoint blocks, the engine-parameter
 * override and the fault plan), RunResult (with heartbeats and the
 * lockstep divergence) and the replay-recipe SweepJob.
 *
 * Failure forensics (replay recipes in "bvl-failure-report-v1"
 * reports) and the crash-safe sweep service (write-ahead journal,
 * result cache and job hash, DESIGN.md §14) must both reproduce a run
 * exactly. So each struct has one field list in run_io.cc that names
 * every member once, in document order, and drives both the writer
 * and the reader; enum members go through their enum's NameTable. A
 * serialized RunResult re-serializes byte-identically (the JSON layer
 * prints doubles with %.17g, exact for IEEE doubles).
 *
 * The reader is lenient about what is missing and strict about what
 * is there. An absent or null member keeps its default, so older
 * documents stay loadable; only RunResult.status and a recipe's
 * design/workload/scale are required. A member of the wrong JSON
 * kind, a negative or out-of-range number for an integer field, or an
 * unknown enum name throws SimFatalError naming the member's path
 * (e.g. "options.faults.vmuMaxRetries"), as does malformed JSON in
 * Json::parse.
 */

#ifndef BVL_SOC_RUN_IO_HH
#define BVL_SOC_RUN_IO_HH

#include "sim/check/json.hh"
#include "soc/run_driver.hh"

namespace bvl
{

Json runOptionsToJson(const RunOptions &o);
RunOptions runOptionsFromJson(const Json &j);

Json runResultToJson(const RunResult &r);
RunResult runResultFromJson(const Json &j);

/** Heartbeat/divergence members of failure reports. */
Json heartbeatsToJson(const std::vector<Watchdog::Heartbeat> &beats);
Json divergenceToJson(const DivergenceRecord &d);

/**
 * JSON <-> replay recipe: the SweepJob that deterministically re-runs
 * one failing run.
 */
Json replayRecipeToJson(const SweepJob &recipe);
SweepJob replayRecipeFromJson(const Json &j);

} // namespace bvl

#endif // BVL_SOC_RUN_IO_HH
