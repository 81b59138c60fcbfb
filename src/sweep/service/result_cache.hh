/**
 * @file
 * Content-addressed result cache: the RunResult format layer over the
 * "result_cache" ContentStore (sim/io/content_store.hh), which owns
 * sharding, atomic publish, quarantine, the stale-temp sweep and the
 * degradation policy. One entry per job hash, <dir>/<hh>/<hash>.json:
 *
 *   {"schema":"bvl-result-cache-v1","hash":"...","revision":"...",
 *    "digest":"<sha256 of the compact result serialization>",
 *    "result":{...}}
 *
 * Only ok results are cached — failures stay a per-sweep journal
 * concern so a transient failure never poisons future sweeps.
 * lookup() re-serializes the embedded result and checks its SHA-256
 * against the stored digest, so a truncated, bit-flipped or
 * hand-edited entry is quarantined and misses, and the service
 * transparently re-simulates and re-stores.
 */

#ifndef BVL_SWEEP_SERVICE_RESULT_CACHE_HH
#define BVL_SWEEP_SERVICE_RESULT_CACHE_HH

#include <string>

#include "sim/io/content_store.hh"
#include "soc/run_driver.hh"

namespace bvl
{

class ResultCache
{
  public:
    /** Store kind: injection-site prefix and counters name. */
    static constexpr const char *kKind = "result_cache";

    /**
     * Enable the cache rooted at @p dir (created on first store).
     * Sweeps stale temp files orphaned under @p dir by dead writers.
     */
    void setDir(std::string dir);

    bool enabled() const { return !_store.dir().empty(); }

    /** Entry file path for @p hash (valid whether or not it exists). */
    std::string entryPath(const std::string &hash) const
    {
        return _store.entryPath(hash);
    }

    /**
     * Load and verify the entry for @p hash. Returns false on miss,
     * or — after quarantining the file — on any integrity failure.
     */
    bool lookup(const std::string &hash, RunResult *out);

    /** Atomically persist an ok @p result under @p hash. */
    void store(const std::string &hash, const RunResult &result);

  private:
    ContentStore _store{kKind, "", ".json"};
};

} // namespace bvl

#endif // BVL_SWEEP_SERVICE_RESULT_CACHE_HH
