/**
 * @file
 * Persistent content-addressed result cache: the "never simulate the
 * same job twice" store behind sacsimd and sacsim --cache.
 *
 * Layout: one flat directory, one JSON file per cached job, named by
 * the job's 64-bit content hash in zero-padded hex
 * ("<016x-hash>.json"). Each entry is a sac.cache.v2 document:
 *
 *   { "schema": "sac.cache.v2",
 *     "plan":   "<planSchemaVersion>",
 *     "key":    "<canonicalJobKey(job)>",
 *     "record": { ...RunRecord, canonical (no timing)... },
 *     "sum":    "<016x FNV-1a 64 of every byte before ,"sum">" }
 *
 * The full canonical key is stored next to the hash, so a lookup
 * verifies the key byte-for-byte: a hash collision or an entry
 * written under a different plan schema is rejected and re-simulated
 * instead of served wrong. The sum catches damage the JSON parser
 * cannot see, such as a flipped byte inside a string value.
 *
 * Writes are atomic: each store serializes to a private temporary in
 * the same directory and rename()s it over the final name, so a
 * reader never sees a torn entry and concurrent writers of the same
 * key resolve to one winner (last rename wins — both wrote the same
 * bytes by construction). The reader is tolerant in the
 * sac.checkpoint.v1 idiom: an unreadable, unparseable, wrong-schema,
 * checksum-failing or key-mismatched entry is counted and treated as
 * a miss; the next store overwrites it.
 *
 * Eviction: a byte/entry Budget with LRU-by-mtime pruning (lookup
 * hits touch the entry's mtime). prune() runs under an advisory
 * flock() on <dir>/.prune.lock — flock releases on process death, so
 * a pruner SIGKILLed mid-run never wedges the cache — and removes
 * entries with atomic unlink()s only, oldest mtime first, until the
 * store fits the budget. Concurrent stores during a prune are safe
 * (an entry is either fully present or absent, never partial); they
 * can momentarily push the store back over budget, which the next
 * prune corrects. The store stays an idempotent flat CAS — every
 * pruned entry regenerates by re-simulation; see docs/SERVICE.md.
 *
 * Warm tier: an entry that passed every check above on a disk read is
 * kept decoded in memory, indexed by its canonical key, with the
 * identity of the file it was read from (device, inode, size, mtime,
 * ctime). A later lookup of the same key serves it from memory only
 * when an fstat() of the freshly opened entry file still shows that
 * identity; it touches the file as a disk hit would and records the
 * new identity. A missing file is a miss; any other difference (a
 * rename over the entry, a truncation, an in-place write, another
 * process's touch) falls back to the disk read, which re-validates
 * everything. store() never fills the tier: only bytes read back and
 * checked do. The tier holds a fixed number of entries and drops the
 * least recently served.
 */

#ifndef SAC_SERVICE_RESULT_CACHE_HH
#define SAC_SERVICE_RESULT_CACHE_HH

#include <sys/stat.h>

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "sim/engine.hh"
#include "sim/plan.hh"

namespace sac::service {

/** On-disk JobCache implementation (see sim/engine.hh). */
class ResultCache : public JobCache
{
  public:
    /** Cumulative counters over this instance's lifetime. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;
        /** Entries present but unusable (torn, corrupt, wrong
         *  schema, checksum or key mismatch); each also counts as a
         *  miss. */
        std::uint64_t rejected = 0;
        /** Hits served from the in-memory warm tier (a subset of
         *  hits). */
        std::uint64_t warmHits = 0;
    };

    /** Size bound for prune(); zero fields are unbounded. */
    struct Budget
    {
        /** Max total bytes of cache entries (0 = unbounded). */
        std::uint64_t maxBytes = 0;
        /** Max number of cache entries (0 = unbounded). */
        std::uint64_t maxEntries = 0;

        bool any() const { return maxBytes > 0 || maxEntries > 0; }
    };

    /** What one prune() pass saw and did. */
    struct PruneReport
    {
        /** False when the pass was skipped: no budget configured, or
         *  another process held the prune lock. */
        bool ran = false;
        std::uint64_t scannedEntries = 0;
        std::uint64_t scannedBytes = 0;
        std::uint64_t removedEntries = 0;
        std::uint64_t removedBytes = 0;
        /** Abandoned temporaries from crashed writers cleaned up. */
        std::uint64_t staleTmps = 0;
    };

    /** Full-store integrity scan result (see verify()). */
    struct VerifyReport
    {
        std::uint64_t entries = 0;
        std::uint64_t bytes = 0;
        /** Entries the tolerant reader would reject: checksum
         *  mismatch, unparseable, wrong schema, or filename !=
         *  hash(stored key). */
        std::uint64_t rejected = 0;
    };

    /** Entries the in-memory warm tier holds at most. */
    static constexpr std::size_t warmCapacity = 1024;

    /**
     * Opens (and creates, including parents) the cache directory.
     * Throws ValidationError when the directory cannot be created.
     */
    explicit ResultCache(std::string dir);

    /**
     * The cached record for @p job, or nullopt. Served records are
     * byte-identical (canonical fields) to the run that stored them;
     * the engine re-stamps jobIndex/label/source for this run.
     */
    std::optional<RunRecord> lookup(const ExperimentJob &job) override;

    /**
     * Persists an ok record under the job's content hash; non-ok
     * records are ignored. IO failures warn and drop the entry —
     * the cache is an optimization, never a correctness dependency.
     */
    void store(const ExperimentJob &job, const RunRecord &record) override;

    Stats stats() const;

    /** Sets the size budget prune() enforces (default: unbounded). */
    void setBudget(const Budget &budget);
    Budget budget() const;

    /**
     * Prunes the store to the configured budget, least-recently-used
     * (by mtime; lookup touches entries) first. Serialized across
     * processes by flock() on <dir>/.prune.lock — when another pruner
     * holds the lock the pass is skipped (ran = false) rather than
     * waited for. Uses atomic unlink()s only and tolerates being
     * killed at any point: survivors are always complete entries.
     * Also sweeps temporaries abandoned by crashed writers. No-op
     * without a budget; prune(budget) overrides the configured one
     * for maintenance tooling (sacsimd --prune-only).
     */
    PruneReport prune();
    PruneReport prune(const Budget &budget);

    /**
     * Tolerant integrity scan of every entry on disk: checks each
     * one's checksum, parses it, checks the schema and that the
     * filename matches the hash of the stored canonical key. Counts
     * — never throws, never repairs. The CI soak asserts rejected == 0
     * after concurrent sessions, a mid-sweep SIGTERM and a SIGKILLed
     * prune.
     */
    VerifyReport verify() const;

    const std::string &directory() const { return dir_; }

    /** Entry file path for @p job (exposed for tests and tooling). */
    std::string entryPath(const ExperimentJob &job) const;

    /** The prune lockfile path (exposed for tests and tooling). */
    std::string pruneLockPath() const;

    /** Entries the warm tier holds now (never above its capacity). */
    std::size_t warmEntries() const;

  private:
    /** What an entry file looked like when its bytes were checked. */
    struct FileIdentity
    {
        dev_t dev = 0;
        ino_t ino = 0;
        off_t size = 0;
        timespec mtime{};
        timespec ctime{};

        static FileIdentity of(const struct stat &st);
        bool operator==(const FileIdentity &o) const;
    };

    /** One validated entry, decoded. */
    struct WarmEntry
    {
        std::string key;
        /** contentHashOfKey(key): names the entry file. */
        std::uint64_t hash;
        RunRecord record;
        FileIdentity file;
    };

    std::string entryPathOfHash(std::uint64_t hash) const;
    /** Records (or refreshes) a validated entry, most recent first. */
    void remember(WarmEntry entry);

    std::string dir_;
    mutable std::mutex mutex_;
    Stats stats_;
    Budget budget_;
    std::atomic<std::uint64_t> tmpSerial_{0};

    /** Most recently served first; guarded by mutex_. */
    std::list<WarmEntry> warm_;
    /** By canonical key, viewing each entry's own key string. */
    std::unordered_map<std::string_view, std::list<WarmEntry>::iterator>
        warmIndex_;
};

} // namespace sac::service

#endif // SAC_SERVICE_RESULT_CACHE_HH
