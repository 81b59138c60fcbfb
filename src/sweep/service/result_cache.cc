#include "sweep/service/result_cache.hh"

#include "sim/io/io_fault.hh"
#include "sim/logging.hh"
#include "soc/run_io.hh"
#include "sweep/service/digest.hh"
#include "sweep/service/job_hash.hh"

namespace bvl
{

constexpr const char *kCacheSchema = "bvl-result-cache-v1";

void
ResultCache::setDir(std::string dir)
{
    _store = ContentStore(kKind, std::move(dir), ".json");
    if (enabled())
        _store.sweepStaleOnce();
}

bool
ResultCache::lookup(const std::string &hash, RunResult *out)
{
    std::string text;
    if (!enabled() || !_store.read(hash, &text))
        return false;

    // Any structural problem from here on is an integrity failure:
    // quarantine the entry and miss so the job re-simulates.
    try {
        Json doc = Json::parse(text);
        if (doc["schema"].asString() != kCacheSchema ||
            doc["hash"].asString() != hash)
            throw SimFatalError("schema/hash mismatch");
        std::string payload = doc["result"].dump(0);
        if (sha256Hex(payload) != doc["digest"].asString())
            throw SimFatalError("digest mismatch");
        *out = runResultFromJson(doc["result"]);
    } catch (const io::IoCrashError &) {
        throw;
    } catch (const SimError &e) {
        warn("result cache: corrupt entry %s (%s); quarantined and "
             "re-simulating", entryPath(hash).c_str(), e.what());
        _store.quarantine(hash);
        return false;
    }
    return true;
}

void
ResultCache::store(const std::string &hash, const RunResult &result)
{
    if (!enabled())
        return;
    Json doc = Json::object();
    doc.set("schema", kCacheSchema);
    doc.set("hash", hash);
    doc.set("revision", kLibraryRevision);
    Json payload = runResultToJson(result);
    doc.set("digest", sha256Hex(payload.dump(0)));
    doc.set("result", std::move(payload));
    std::string text = doc.dump(0);
    text += '\n';
    _store.put(hash, text);
}

} // namespace bvl
