#include "sim/io/content_store.hh"

#include <algorithm>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <tuple>
#include <vector>

#include "sim/io/sim_io.hh"
#include "sim/logging.hh"

namespace bvl
{

namespace
{

// Process-wide, so the sweep summary can report every store without
// threading store objects through the cells. Isolate-mode children
// lose theirs at exit; their log lines still tell the story.
struct Registry
{
    std::mutex mu;
    std::map<std::string, ContentStore::Counters> kinds;
    std::set<std::string> swept;  ///< dirs swept for stale temps
};

Registry &
registry()
{
    static Registry r;
    return r;
}

} // namespace

ContentStore::Counters &
ContentStore::counters(const std::string &kind)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    return r.kinds[kind];
}

void
ContentStore::resetForTest()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto &[kind, c] : r.kinds) {
        c.hits = c.produced = c.corrupt = c.evicted = 0;
        c.storesDisabled = false;
    }
    r.swept.clear();
}

bool
ContentStore::quarantineFile(const std::string &kind,
                             const std::string &path)
{
    std::string err;
    if (io::renameFile((kind + ".quarantine.rename").c_str(), path,
                       path + ".corrupt", &err))
        return true;
    warn("%s: cannot quarantine %s: %s", kind.c_str(), path.c_str(),
         err.c_str());
    return false;
}

ContentStore::ContentStore(std::string kind, std::string dir,
                           std::string ext)
    : _kind(std::move(kind)), _dir(std::move(dir)),
      _ext(std::move(ext)), _counters(&counters(_kind))
{
}

std::string
ContentStore::shardDir(const std::string &hash) const
{
    return _dir + "/" + hash.substr(0, 2);
}

std::string
ContentStore::entryPath(const std::string &hash) const
{
    return shardDir(hash) + "/" + hash + _ext;
}

bool
ContentStore::read(const std::string &hash, std::string *out) const
{
    std::string path = entryPath(hash);
    bool missing = false;
    std::string err;
    if (io::readFile(site("lookup.read").c_str(), path, out, &missing,
                     &err))
        return true;
    if (!missing)
        warn("%s: cannot read %s (%s); treating it as a miss",
             _kind.c_str(), path.c_str(), err.c_str());
    return false;
}

bool
ContentStore::put(const std::string &hash, const std::string &data) const
{
    if (_counters->storesDisabled)
        return false;
    std::string path = entryPath(hash);
    std::string err;
    if (io::mkdirs(site("store.mkdir").c_str(), shardDir(hash), &err) &&
        io::writeFileAtomic(site("store").c_str(), path, data, &err)) {
        ++_counters->produced;
        return true;
    }
    // One failed put very likely means they all fail (disk full,
    // directory unwritable): warn once, not once per entry.
    if (!_counters->storesDisabled.exchange(true))
        warn("%s: cannot store %s (%s); %s stores DISABLED for the "
             "rest of this process", _kind.c_str(), path.c_str(),
             err.c_str(), _kind.c_str());
    return false;
}

void
ContentStore::quarantine(const std::string &hash) const
{
    if (quarantineFile(_kind, entryPath(hash)))
        ++_counters->corrupt;
}

void
ContentStore::touch(const std::string &hash) const
{
    std::error_code ec;
    std::filesystem::last_write_time(
        entryPath(hash), std::filesystem::file_time_type::clock::now(),
        ec);
}

unsigned
ContentStore::sweepStaleOnce() const
{
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        if (!r.swept.insert(_dir).second)
            return 0;
    }
    // Nothing of ours can be mid-publish before the first use of a
    // directory, so our own pid's temps are orphans too.
    return io::sweepStaleTemps(site("sweep").c_str(), _dir,
                               /*selfStale=*/true);
}

unsigned
ContentStore::evictOverBudget(std::uint64_t budgetBytes,
                              const std::string &keepHash) const
{
    if (budgetBytes == 0)
        return 0;
    namespace fs = std::filesystem;
    // (mtime, bytes, path): sorting puts the least recently used first.
    std::vector<std::tuple<fs::file_time_type, std::uint64_t, fs::path>>
        entries;
    std::uint64_t total = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(
             _dir, fs::directory_options::skip_permission_denied, ec),
         end;
         !ec && it != end; it.increment(ec)) {
        // A failed stat skips this entry only, never the rest of the
        // walk.
        std::error_code statEc;
        if (it->path().extension() != _ext ||
            !it->is_regular_file(statEc))
            continue;
        auto mtime = it->last_write_time(statEc);
        std::uint64_t bytes = it->file_size(statEc);
        if (statEc)
            continue;
        entries.emplace_back(mtime, bytes, it->path());
        total += bytes;
    }
    std::sort(entries.begin(), entries.end());

    const fs::path keep = keepHash + _ext;
    unsigned removed = 0;
    for (const auto &[mtime, bytes, path] : entries) {
        if (total <= budgetBytes)
            break;
        if (path.filename() != keep && fs::remove(path, ec)) {
            total -= bytes;
            ++removed;
        }
    }
    _counters->evicted += removed;
    return removed;
}

ContentStore::Claim::Claim(const ContentStore &store,
                           const std::string &hash, long long timeoutMs)
{
    io::mkdirs(store.site("claim.mkdir").c_str(), store.shardDir(hash));
    std::string entry = store.entryPath(hash);
    // Each Claim opens its own file description, so the flock contends
    // between threads as well as processes. The kernel drops it when a
    // holder dies, so a timeout means a live-but-wedged holder.
    std::string diag;
    fd = io::lockExclusive(store.site("lock").c_str(), entry + ".lock",
                           timeoutMs, &diag);
    if (fd < 0) {
        warn("%s: %s; producing without single-flight",
             store._kind.c_str(), diag.c_str());
        return;
    }
    // The claim serializes writers, so any "<entry>.tmp.*" now is an
    // orphan. If the sweep throws (injected crash) the destructor never
    // runs: release the flock here, or a later claimant in this process
    // would wait out the whole deadline on it.
    try {
        io::sweepTempsFor(store.site("claim.sweep").c_str(), entry);
    } catch (...) {
        io::unlockAndClose(fd);
        fd = -1;
        throw;
    }
}

ContentStore::Claim::~Claim()
{
    io::unlockAndClose(fd);
}

} // namespace bvl
