#include "service/result_cache.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "sim/result_io.hh"

namespace sac::service {

namespace fs = std::filesystem;

namespace {

const char *const cacheSchema = "sac.cache.v2";

/** A 64-bit value as 16 zero-padded hex digits. */
std::string
hex16(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
hexHashName(std::uint64_t hash)
{
    return hex16(hash) + ".json";
}

/** The entry's last field; the checksum covers every byte before it. */
constexpr std::string_view sumField = ",\"sum\":\"";

/** Appends the checksum field to an entry body and closes it. */
std::string
sealEntry(std::string body)
{
    const std::string sum = hex16(contentHashOfKey(body));
    body += sumField;
    body += sum;
    body += "\"}\n";
    return body;
}

/** True when @p text ends in a sum field that matches its body: a
 *  flipped byte anywhere in the entry, even one that keeps the JSON
 *  well-formed, fails this. */
bool
sealIntact(std::string_view text)
{
    constexpr std::size_t sumDigits = 16;
    constexpr std::string_view close = "\"}\n";
    const std::size_t tail = sumField.size() + sumDigits + close.size();
    if (text.size() < tail)
        return false;
    const std::string_view body = text.substr(0, text.size() - tail);
    const std::string_view seal = text.substr(body.size());
    return seal.substr(0, sumField.size()) == sumField &&
           seal.substr(sumField.size() + sumDigits) == close &&
           seal.substr(sumField.size(), sumDigits) ==
               hex16(contentHashOfKey(body));
}

/** True for "<hex>.json" entry files; temporaries ("*.tmp.*") and
 *  the lockfile never match. */
bool
isEntryName(const std::string &name)
{
    return name.size() > 5 &&
           name.compare(name.size() - 5, 5, ".json") == 0 &&
           name.find(".tmp.") == std::string::npos;
}

/** True for store() temporaries left behind by a crashed writer. */
bool
isTmpName(const std::string &name)
{
    return name.find(".tmp.") != std::string::npos;
}

/** Owns an open file descriptor. */
class Fd
{
  public:
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    int get() const { return fd_; }

  private:
    int fd_;
};

/** Reads the rest of @p fd into @p out; false on a read error. */
bool
readAll(int fd, std::size_t sizeHint, std::string &out)
{
    out.resize(sizeHint + 1);
    std::size_t used = 0;
    for (;;) {
        if (used == out.size())
            out.resize(out.size() * 2);
        const ssize_t n = ::read(fd, out.data() + used, out.size() - used);
        if (n == 0)
            break;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        used += static_cast<std::size_t>(n);
    }
    out.resize(used);
    return true;
}

/** RAII advisory lock: flock(LOCK_EX | LOCK_NB) on @p path. The
 *  kernel releases flocks when the holder dies, so a SIGKILLed
 *  pruner never leaves the lock stuck — the crash-safety property a
 *  lockfile created with O_EXCL could not give. */
class PruneLock
{
  public:
    explicit PruneLock(const std::string &path)
        : fd_(::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644))
    {
        if (fd_ >= 0 && ::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~PruneLock()
    {
        if (fd_ >= 0)
            ::close(fd_); // closing drops the flock
    }

    bool held() const { return fd_ >= 0; }

  private:
    int fd_;
};

} // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_))
        invalid(dir_, "cannot create cache directory");
}

ResultCache::FileIdentity
ResultCache::FileIdentity::of(const struct stat &st)
{
    return {st.st_dev, st.st_ino, st.st_size, st.st_mtim, st.st_ctim};
}

bool
ResultCache::FileIdentity::operator==(const FileIdentity &o) const
{
    return dev == o.dev && ino == o.ino && size == o.size &&
           mtime.tv_sec == o.mtime.tv_sec &&
           mtime.tv_nsec == o.mtime.tv_nsec &&
           ctime.tv_sec == o.ctime.tv_sec &&
           ctime.tv_nsec == o.ctime.tv_nsec;
}

std::string
ResultCache::entryPathOfHash(std::uint64_t hash) const
{
    return (fs::path(dir_) / hexHashName(hash)).string();
}

std::string
ResultCache::entryPath(const ExperimentJob &job) const
{
    return entryPathOfHash(contentHash(job));
}

std::size_t
ResultCache::warmEntries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return warm_.size();
}

void
ResultCache::remember(WarmEntry entry)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto found = warmIndex_.find(entry.key);
    if (found != warmIndex_.end()) {
        // Keep the stored key: the index views its characters.
        WarmEntry &held = *found->second;
        held.hash = entry.hash;
        held.record = std::move(entry.record);
        held.file = entry.file;
        warm_.splice(warm_.begin(), warm_, found->second);
        return;
    }
    if (warm_.size() >= warmCapacity) {
        warmIndex_.erase(warm_.back().key);
        warm_.pop_back();
    }
    warm_.push_front(std::move(entry));
    warmIndex_.emplace(warm_.front().key, warm_.begin());
}

std::optional<RunRecord>
ResultCache::lookup(const ExperimentJob &job)
{
    std::string key = canonicalJobKey(job);

    // Warm tier, first pass: a known key also knows its file name, so
    // a warm hit never hashes the key.
    std::optional<FileIdentity> expected;
    std::uint64_t hash = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto found = warmIndex_.find(key);
            found != warmIndex_.end()) {
            expected = found->second->file;
            hash = found->second->hash;
        }
    }
    if (!expected)
        hash = contentHashOfKey(key);

    // A miss also drops the tier's copy: its file is gone or bad.
    const auto miss = [&](bool rejected) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto found = warmIndex_.find(key);
            found != warmIndex_.end()) {
            const auto entry = found->second;
            warmIndex_.erase(found);
            warm_.erase(entry);
        }
        stats_.rejected += rejected ? 1 : 0;
        ++stats_.misses;
        return std::nullopt;
    };
    const Fd fd(::open(entryPathOfHash(hash).c_str(), O_RDONLY | O_CLOEXEC));
    struct stat st;
    if (fd.get() < 0 || ::fstat(fd.get(), &st) != 0)
        return miss(false);
    const FileIdentity seen = FileIdentity::of(st);

    // Touch the entry so prune()'s mtime order is LRU, not FIFO, and
    // return what the file looks like now. Best effort: the touch
    // fails quietly on a read-only store. Through the descriptor, so
    // a concurrent rename over the path cannot redirect it.
    const auto touch = [&]() {
        timespec times[2] = {{0, UTIME_OMIT}, {}};
        ::clock_gettime(CLOCK_REALTIME, &times[1]);
        (void)::futimens(fd.get(), times);
        if (::fstat(fd.get(), &st) != 0)
            return FileIdentity{};
        return FileIdentity::of(st);
    };

    // Second pass: serve from memory when the file is the one whose
    // bytes were checked, unchanged since.
    std::optional<RunRecord> rec;
    if (expected && *expected == seen) {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto found = warmIndex_.find(key);
        if (found != warmIndex_.end() && found->second->file == seen) {
            rec = found->second->record;
            warm_.splice(warm_.begin(), warm_, found->second);
        }
    }
    if (rec) {
        const FileIdentity now = touch();
        std::lock_guard<std::mutex> lock(mutex_);
        const auto found = warmIndex_.find(key);
        if (found != warmIndex_.end() && found->second->file == seen)
            found->second->file = now;
        ++stats_.hits;
        ++stats_.warmHits;
        return rec;
    }

    // Tolerant read: anything unusable — a torn write from a crashed
    // process, a corrupted byte, a stale schema, a hash collision —
    // is a miss; the job re-simulates and the store overwrites it.
    try {
        std::string text;
        if (!readAll(fd.get(), static_cast<std::size_t>(st.st_size), text))
            throw FatalError("unreadable cache entry");
        if (!sealIntact(text))
            throw FatalError("cache entry checksum mismatch");
        const json::Value doc = json::parse(text);
        if (!doc.has("schema") ||
            doc.at("schema").asString() != cacheSchema) {
            throw FatalError("wrong cache entry schema");
        }
        if (!doc.has("plan") ||
            doc.at("plan").asString() != planSchemaVersion) {
            throw FatalError("stale plan schema");
        }
        if (!doc.has("key") || doc.at("key").asString() != key)
            throw FatalError("canonical key mismatch");
        rec = result_io::recordFromValue(doc.at("record"));
    } catch (const std::exception &) {
        return miss(true);
    }
    remember({std::move(key), hash, *rec, touch()});
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return rec;
}

void
ResultCache::store(const ExperimentJob &job, const RunRecord &record)
{
    if (record.result.status != RunStatus::Ok)
        return;

    const std::string key = canonicalJobKey(job);
    json::Builder doc('{');
    doc.field("schema", json::escape(cacheSchema))
        .field("plan", json::escape(planSchemaVersion))
        .field("key", json::escape(key))
        .field("record", result_io::recordToJson(record));
    std::string body = doc.close('}');
    body.pop_back(); // the sum field closes the object

    const std::string path = entryPathOfHash(contentHashOfKey(key));
    const std::string tmp =
        path + ".tmp." +
        std::to_string(static_cast<unsigned long long>(::getpid())) +
        "." + std::to_string(tmpSerial_.fetch_add(1));
    {
        std::ofstream os(tmp);
        if (!os) {
            warn("result cache: cannot write '", tmp, "'");
            return;
        }
        os << sealEntry(std::move(body));
        os.flush();
        if (!os) {
            warn("result cache: short write to '", tmp, "'");
            std::error_code ec;
            fs::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        warn("result cache: rename to '", path, "' failed: ",
             ec.message());
        fs::remove(tmp, ec);
        return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.stores;
}

ResultCache::Stats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
ResultCache::setBudget(const Budget &budget)
{
    std::lock_guard<std::mutex> lock(mutex_);
    budget_ = budget;
}

ResultCache::Budget
ResultCache::budget() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return budget_;
}

std::string
ResultCache::pruneLockPath() const
{
    return (fs::path(dir_) / ".prune.lock").string();
}

ResultCache::PruneReport
ResultCache::prune()
{
    return prune(budget());
}

ResultCache::PruneReport
ResultCache::prune(const Budget &budget)
{
    PruneReport report;
    if (!budget.any())
        return report;

    // One pruner at a time, across processes. Skipping on contention
    // is correct: whoever holds the lock is enforcing the same
    // budget, and this pass's caller retries after its next plan.
    PruneLock lock(pruneLockPath());
    if (!lock.held())
        return report;
    report.ran = true;

    struct Entry
    {
        fs::path path;
        std::uint64_t bytes;
        fs::file_time_type mtime;
    };
    std::vector<Entry> entries;

    std::error_code ec;
    // Writer temporaries older than this are from dead processes —
    // live stores rename within milliseconds of creating theirs.
    const auto stale_before =
        fs::file_time_type::clock::now() - std::chrono::minutes(15);
    for (fs::directory_iterator it(dir_, ec), end;
         !ec && it != end; it.increment(ec)) {
        const fs::path path = it->path();
        const std::string name = path.filename().string();
        std::error_code stat_ec;
        if (!it->is_regular_file(stat_ec) || stat_ec)
            continue;
        const auto mtime = fs::last_write_time(path, stat_ec);
        if (stat_ec)
            continue; // raced with a concurrent unlink
        if (isTmpName(name)) {
            if (mtime < stale_before && fs::remove(path, stat_ec))
                ++report.staleTmps;
            continue;
        }
        if (!isEntryName(name))
            continue;
        const auto bytes = fs::file_size(path, stat_ec);
        if (stat_ec)
            continue;
        entries.push_back({path, bytes, mtime});
    }

    report.scannedEntries = entries.size();
    for (const Entry &e : entries)
        report.scannedBytes += e.bytes;

    const auto over = [&](std::uint64_t n, std::uint64_t bytes) {
        return (budget.maxEntries > 0 && n > budget.maxEntries) ||
               (budget.maxBytes > 0 && bytes > budget.maxBytes);
    };
    if (!over(entries.size(), report.scannedBytes))
        return report;

    // Oldest mtime first. Every removal is a single atomic unlink:
    // there is no moment, SIGKILL included, at which a reader can
    // observe a partial entry — only "present" or "gone".
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime < b.mtime;
              });
    std::uint64_t live = entries.size();
    std::uint64_t liveBytes = report.scannedBytes;
    for (const Entry &e : entries) {
        if (!over(live, liveBytes))
            break;
        std::error_code rm_ec;
        if (fs::remove(e.path, rm_ec)) {
            ++report.removedEntries;
            report.removedBytes += e.bytes;
        }
        // Count a raced-away entry as gone either way: a concurrent
        // store replacing it bumped its mtime to "newest", so
        // re-evaluating it would be wrong.
        --live;
        liveBytes -= e.bytes;
    }
    return report;
}

ResultCache::VerifyReport
ResultCache::verify() const
{
    VerifyReport report;
    std::error_code ec;
    for (fs::directory_iterator it(dir_, ec), end;
         !ec && it != end; it.increment(ec)) {
        const fs::path path = it->path();
        const std::string name = path.filename().string();
        std::error_code stat_ec;
        if (!it->is_regular_file(stat_ec) || stat_ec ||
            !isEntryName(name)) {
            continue;
        }
        ++report.entries;
        const auto bytes = fs::file_size(path, stat_ec);
        if (!stat_ec)
            report.bytes += bytes;

        // The same tolerance as lookup(), minus the job to compare
        // against: instead, the filename must equal the hash of the
        // canonical key the entry itself stores.
        try {
            std::ifstream is(path);
            if (!is)
                throw FatalError("unreadable");
            std::ostringstream buf;
            buf << is.rdbuf();
            const std::string text = buf.str();
            if (!sealIntact(text))
                throw FatalError("checksum mismatch");
            const json::Value doc = json::parse(text);
            if (!doc.has("schema") ||
                doc.at("schema").asString() != cacheSchema) {
                throw FatalError("wrong cache entry schema");
            }
            if (!doc.has("plan") || !doc.has("key") ||
                !doc.has("record")) {
                throw FatalError("missing field");
            }
            (void)result_io::recordFromValue(doc.at("record"));
            if (hexHashName(contentHashOfKey(doc.at("key").asString())) !=
                name) {
                throw FatalError("filename / key hash mismatch");
            }
        } catch (const std::exception &) {
            ++report.rejected;
        }
    }
    return report;
}

} // namespace sac::service
