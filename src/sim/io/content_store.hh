/**
 * @file
 * One content-addressed on-disk store, shared by the sweep service's
 * result cache (kind "result_cache", DESIGN.md §14) and the
 * checkpoint-prefix farm (kind "ckpt_farm", §16).
 *
 * An entry is one file, "<dir>/<hash[0:2]>/<hash><ext>", published
 * atomically and never modified in place. What an entry holds and how
 * it is verified stay with the caller, which hands a bad entry back
 * through quarantine(). Every filesystem call goes through the sim/io
 * seam, and the kind prefixes each injection-site label
 * ("<kind>.lookup.read", "<kind>.store.rename", "<kind>.lock", ...).
 *
 * Degradation policy (DESIGN.md §17), once per kind and process-wide:
 * a store is a pure accelerator. An absent entry is a quiet miss, an
 * unreadable one a miss with a warning, and the first failed put()
 * disables puts of that kind for the rest of the process with one
 * warning; reads keep working.
 */

#ifndef BVL_SIM_IO_CONTENT_STORE_HH
#define BVL_SIM_IO_CONTENT_STORE_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace bvl
{

class ContentStore
{
  public:
    /** Process-wide telemetry and degradation state of one kind. */
    struct Counters
    {
        std::atomic<std::uint64_t> hits{0};     ///< noted by callers
        std::atomic<std::uint64_t> produced{0}; ///< successful put()s
        std::atomic<std::uint64_t> corrupt{0};  ///< entries quarantined
        std::atomic<std::uint64_t> evicted{0};  ///< evictOverBudget()
        std::atomic<bool> storesDisabled{false};
    };

    /** The counters of store kind @p kind (created on first use). */
    static Counters &counters(const std::string &kind);

    /** Zero all counters, re-enable puts, forget swept dirs (tests). */
    static void resetForTest();

    /**
     * Rename a bad artifact to "<path>.corrupt" (site
     * "<kind>.quarantine.rename") so a retry never picks it up again.
     * Warns and returns false if the rename failed.
     */
    static bool quarantineFile(const std::string &kind,
                               const std::string &path);

    ContentStore(std::string kind, std::string dir, std::string ext);

    const std::string &dir() const { return _dir; }
    Counters &counters() const { return *_counters; }

    /** Path of entry @p hash (valid whether or not it exists). */
    std::string entryPath(const std::string &hash) const;

    /**
     * Read entry @p hash into @p out; false on a miss. An unreadable
     * entry warns and stays in place: a transient I/O error is not
     * proof of corruption.
     */
    bool read(const std::string &hash, std::string *out) const;

    /**
     * Publish @p data as entry @p hash (temp + fsync + rename). False
     * when puts are disabled or this one failed, which disables them.
     * Racing writers of one hash write identical bytes, so either
     * rename winning is correct.
     */
    bool put(const std::string &hash, const std::string &data) const;

    /** Quarantine entry @p hash, counting it once the rename lands. */
    void quarantine(const std::string &hash) const;

    /** Mark entry @p hash recently used (best effort, for LRU). */
    void touch(const std::string &hash) const;

    /** Remove dead writers' "*.tmp.*", once per dir per process. */
    unsigned sweepStaleOnce() const;

    /**
     * Delete oldest-mtime entries until the store fits @p budgetBytes
     * (0 = unlimited), never entry @p keepHash. An entry that cannot
     * be stat'ed (a concurrent evictor removed it, or a dangling link)
     * is skipped. Returns the number removed.
     */
    unsigned evictOverBudget(std::uint64_t budgetBytes,
                             const std::string &keepHash) const;

    /**
     * RAII single-flight claim: an exclusive flock on "<entry>.lock",
     * waited for at most @p timeoutMs and released on destruction or
     * process death. held() is false when the lock file could not be
     * created or the wait timed out (one warning names the holder
     * pid); callers then produce unshared, which is still correct. A
     * held claim also removes the entry's orphaned "<entry>.tmp.*".
     */
    class Claim
    {
      public:
        Claim(const ContentStore &store, const std::string &hash,
              long long timeoutMs);
        ~Claim();
        Claim(const Claim &) = delete;
        Claim &operator=(const Claim &) = delete;

        bool held() const { return fd >= 0; }

      private:
        int fd = -1;
    };

  private:
    std::string site(const char *op) const { return _kind + "." + op; }
    std::string shardDir(const std::string &hash) const;

    std::string _kind;
    std::string _dir;
    std::string _ext;
    Counters *_counters;
};

} // namespace bvl

#endif // BVL_SIM_IO_CONTENT_STORE_HH
