/**
 * @file
 * Tests for the persistent content-addressed result cache: hit
 * byte-identity across every organization and both sharing shapes,
 * precise invalidation on content changes, tolerance of torn and
 * corrupted entries, atomicity under concurrent writers, the
 * eligibility rules, and the in-memory warm tier's validation against
 * the entry file.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "service/result_cache.hh"
#include "sim/engine.hh"
#include "sim/fault_injection.hh"
#include "sim/plan.hh"
#include "sim/result_io.hh"
#include "workload/suite.hh"

namespace sac {
namespace {

using service::ResultCache;

/** Small but real configuration so plans finish in milliseconds. */
GpuConfig
tinyConfig()
{
    GpuConfig cfg = GpuConfig::scaled(8);
    cfg.warpsPerCluster = 4;
    cfg.sac.profileWindow = 512;
    cfg.sac.profileMinRequests = 400;
    return cfg;
}

WorkloadProfile
tinyProfile(const std::string &name, std::uint64_t apw = 32)
{
    WorkloadProfile p = findBenchmark(name);
    p.numKernels = 1;
    p.phases[0].accessesPerWarp = apw;
    return p;
}

/** Self-deleting temp directory, one per test. */
struct TempDir
{
    explicit TempDir(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {
        std::filesystem::remove_all(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    const std::string path;
};

/** One benchmark of each sharing shape (SM-side and memory-side
 *  preferred), so both reconfiguration behaviours hit the cache. */
std::vector<std::string>
bothSharingShapes()
{
    std::string sp, mp;
    for (const auto &p : benchmarkSuite()) {
        (p.smSidePreferred ? sp : mp) = p.name;
        if (!sp.empty() && !mp.empty())
            break;
    }
    return {sp, mp};
}

/** All five organizations for both sharing shapes: 10 jobs. */
ExperimentPlan
fullPlan()
{
    ExperimentPlan plan;
    for (const auto &name : bothSharingShapes())
        plan.addOrgSweep(tinyProfile(name), tinyConfig());
    return plan;
}

std::string
docOf(const std::vector<RunRecord> &records)
{
    return result_io::toJson(records);
}

std::vector<RunRecord>
runWithCache(const ExperimentPlan &plan, ResultCache &cache,
             unsigned threads = 2, EngineTelemetry *tm = nullptr)
{
    ExperimentEngine engine(threads);
    engine.setCache(&cache);
    return engine.run(plan, tm);
}

TEST(ResultCache, HitsAreByteIdenticalAcrossAllOrgsAndShapes)
{
    const ExperimentPlan plan = fullPlan();
    const std::string reference = docOf(ExperimentEngine(2).run(plan));

    TempDir dir("sac_cache_identity");
    ResultCache cache(dir.path);
    EngineTelemetry cold_tm;
    EXPECT_EQ(docOf(runWithCache(plan, cache, 2, &cold_tm)), reference);
    EXPECT_EQ(cold_tm.cacheHits, 0u);
    EXPECT_EQ(cold_tm.cacheMisses, plan.size());
    EXPECT_EQ(cache.stats().stores, plan.size());

    // Second run through a *fresh* cache instance on the same
    // directory: everything is served from disk, nothing simulates,
    // and the document is byte-identical.
    ResultCache warm(dir.path);
    const std::uint64_t runs = ExperimentEngine::simulatedSystemRuns();
    EngineTelemetry warm_tm;
    EXPECT_EQ(docOf(runWithCache(plan, warm, 2, &warm_tm)), reference);
    EXPECT_EQ(ExperimentEngine::simulatedSystemRuns(), runs);
    EXPECT_EQ(warm_tm.cacheHits, plan.size());
    EXPECT_EQ(warm_tm.cacheMisses, 0u);
    EXPECT_EQ(warm.stats().hits, plan.size());
}

TEST(ResultCache, ChangedConfigFieldMissesOnlyTheChangedJobs)
{
    TempDir dir("sac_cache_invalidate");
    ResultCache cache(dir.path);
    ExperimentPlan plan;
    plan.addOrgSweep(tinyProfile("RN"), tinyConfig(),
                     {OrgKind::MemorySide, OrgKind::SmSide,
                      OrgKind::Sac});
    runWithCache(plan, cache);

    // Same three jobs, but the SM-side one now runs with hardware
    // coherence: exactly that job re-simulates, the others hit.
    ExperimentPlan changed;
    GpuConfig hw = tinyConfig();
    hw.coherence = CoherenceKind::Hardware;
    changed.add(tinyProfile("RN"), tinyConfig(), OrgKind::MemorySide);
    changed.add(tinyProfile("RN"), hw, OrgKind::SmSide);
    changed.add(tinyProfile("RN"), tinyConfig(), OrgKind::Sac);

    const std::uint64_t runs = ExperimentEngine::simulatedSystemRuns();
    EngineTelemetry tm;
    const auto records = runWithCache(changed, cache, 2, &tm);
    EXPECT_EQ(ExperimentEngine::simulatedSystemRuns(), runs + 1);
    EXPECT_EQ(tm.cacheHits, 2u);
    EXPECT_EQ(tm.cacheMisses, 1u);
    for (const auto &rec : records)
        EXPECT_EQ(rec.result.status, RunStatus::Ok);
    EXPECT_EQ(records[1].source, RecordSource::Simulated);
    EXPECT_EQ(records[0].source, RecordSource::Cache);
}

TEST(ResultCache, TornCorruptAndWrongSchemaEntriesReSimulate)
{
    const ExperimentPlan plan = [] {
        ExperimentPlan p;
        p.addOrgSweep(tinyProfile("GEMM"), tinyConfig(),
                      {OrgKind::MemorySide, OrgKind::SmSide,
                       OrgKind::Sac});
        return p;
    }();
    const std::string reference = docOf(ExperimentEngine(1).run(plan));

    TempDir dir("sac_cache_damage");
    {
        ResultCache cache(dir.path);
        EXPECT_EQ(docOf(runWithCache(plan, cache)), reference);
    }

    // Damage all three entries differently: truncate one mid-record
    // (a torn write without the rename protocol), flip a byte in
    // another, and rewrite the third with a stale schema tag.
    ResultCache cache(dir.path);
    const auto entry = [&](std::size_t i) {
        return cache.entryPath(plan[i]);
    };
    fault_injection::truncateFile(entry(0), 40);
    fault_injection::corruptFile(
        entry(1), std::filesystem::file_size(entry(1)) / 2);
    {
        std::ofstream os(entry(2));
        os << "{\"schema\":\"sac.cache.v1\",\"record\":{}}\n";
    }

    const auto records = runWithCache(plan, cache);
    EXPECT_EQ(docOf(records), reference);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().rejected, 3u); // the checksum sees any flip
    EXPECT_EQ(cache.stats().stores, 3u);   // all three re-persisted

    // The repaired entries serve the next run.
    ResultCache repaired(dir.path);
    EXPECT_EQ(docOf(runWithCache(plan, repaired)), reference);
    EXPECT_EQ(repaired.stats().hits, 3u);
}

TEST(ResultCache, KeyMismatchedEntryIsRejectedNotServed)
{
    ExperimentPlan plan;
    plan.add(tinyProfile("RN"), tinyConfig(), OrgKind::MemorySide);
    plan.add(tinyProfile("RN"), tinyConfig(), OrgKind::Sac);
    const std::string reference = docOf(ExperimentEngine(1).run(plan));

    TempDir dir("sac_cache_collision");
    ResultCache cache(dir.path);
    runWithCache(plan, cache);

    // Simulate a hash collision: put the Memory-side entry's bytes at
    // the SAC job's path. The stored canonical key exposes the lie.
    std::filesystem::copy_file(
        cache.entryPath(plan[0]), cache.entryPath(plan[1]),
        std::filesystem::copy_options::overwrite_existing);

    ResultCache fresh(dir.path);
    EXPECT_EQ(docOf(runWithCache(plan, fresh)), reference);
    EXPECT_EQ(fresh.stats().hits, 1u);
    EXPECT_EQ(fresh.stats().rejected, 1u);
}

/** Replaces the first @p from in @p path's bytes with @p to (same
 *  length, so the file stays well-formed JSON). */
void
rewriteInPlace(const std::string &path, const std::string &from,
               const std::string &to)
{
    ASSERT_EQ(from.size(), to.size());
    std::string text;
    {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        text = buf.str();
    }
    const auto at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from << " not in " << path;
    text.replace(at, from.size(), to);
    std::fstream os(path, std::ios::binary | std::ios::in | std::ios::out);
    os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

TEST(ResultCache, FlippedByteInsideAStringValueIsRejected)
{
    // "RN" -> "R\xb1": still valid JSON with every field in place,
    // so only the entry checksum can tell the record was damaged.
    ExperimentPlan plan;
    plan.add(tinyProfile("RN"), tinyConfig(), OrgKind::MemorySide);
    TempDir dir("sac_cache_flipped_string");
    {
        ResultCache cache(dir.path);
        runWithCache(plan, cache);
    }
    ResultCache cache(dir.path);
    rewriteInPlace(cache.entryPath(plan[0]), "\"benchmark\":\"RN\"",
                   "\"benchmark\":\"R\xb1\"");
    EXPECT_EQ(cache.verify().rejected, 1u);
    EXPECT_FALSE(cache.lookup(plan[0]).has_value());
    EXPECT_EQ(cache.stats().rejected, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ResultCache, ConcurrentWritersDoNotCorruptEntries)
{
    ExperimentJob job{tinyProfile("RN"), tinyConfig(), OrgKind::Sac};
    const RunRecord record = ExperimentEngine::runJob(job);

    TempDir dir("sac_cache_racing");
    ResultCache cache(dir.path);
    std::vector<std::thread> writers;
    for (int t = 0; t < 8; ++t) {
        writers.emplace_back(
            [&] {
                for (int i = 0; i < 25; ++i)
                    cache.store(job, record);
            });
    }
    for (auto &w : writers)
        w.join();

    // Every store atomically renamed a complete file into place, so
    // the entry parses and round-trips no matter how the writes raced.
    EXPECT_EQ(cache.stats().stores, 200u);
    ResultCache reader(dir.path);
    const auto hit = reader.lookup(job);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(result_io::toJson(hit->result),
              result_io::toJson(record.result));
    // No temporary files left behind.
    std::size_t files = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(dir.path)) {
        (void)e;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST(ResultCache, TelemetryAndFaultJobsBypassTheCache)
{
    ExperimentJob plain{tinyProfile("RN"), tinyConfig(), OrgKind::Sac};
    EXPECT_TRUE(cacheEligible(plain));

    ExperimentJob telemetered = plain;
    telemetered.telemetry.epoch = 512;
    EXPECT_FALSE(cacheEligible(telemetered));

    ExperimentJob faulted = plain;
    faulted.fault = FaultSpec::fatalAt(100);
    EXPECT_FALSE(cacheEligible(faulted));

    // A telemetry-enabled sweep never touches the cache in either
    // direction — a cached plain record must not be served where a
    // timeline is expected, and timelines must not be persisted.
    TempDir dir("sac_cache_bypass");
    ResultCache cache(dir.path);
    ExperimentPlan plan;
    plan.add(tinyProfile("RN"), tinyConfig(), OrgKind::Sac);
    telemetry::Options topts;
    topts.epoch = 512;
    plan.enableTelemetry(topts);
    for (int pass = 0; pass < 2; ++pass) {
        const auto records = runWithCache(plan, cache);
        ASSERT_TRUE(records[0].result.timeline.has_value());
    }
    EXPECT_EQ(cache.stats().hits + cache.stats().misses +
                  cache.stats().stores,
              0u);
}

TEST(ResultCache, FailedRecordsAreNotCached)
{
    TempDir dir("sac_cache_failures");
    ResultCache cache(dir.path);

    // The faulted job bypasses the cache entirely; a watchdog-limited
    // job is eligible, but its timed-out record must not persist.
    ExperimentPlan plan;
    ExperimentJob job;
    job.profile = tinyProfile("RN", 4096);
    job.config = tinyConfig();
    job.org = OrgKind::MemorySide;
    job.limits.maxCycles = 500;
    plan.add(std::move(job));

    const auto first = runWithCache(plan, cache);
    EXPECT_EQ(first[0].result.status, RunStatus::TimedOut);
    EXPECT_EQ(cache.stats().stores, 0u);
    EXPECT_FALSE(std::filesystem::exists(cache.entryPath(plan[0])));

    // Rerunning re-simulates (and times out again) instead of
    // serving a poisoned entry.
    const std::uint64_t runs = ExperimentEngine::simulatedSystemRuns();
    const auto second = runWithCache(plan, cache);
    EXPECT_EQ(second[0].result.status, RunStatus::TimedOut);
    EXPECT_EQ(ExperimentEngine::simulatedSystemRuns(), runs + 1);
}

TEST(ResultCache, CachedRecordsRestampVolatileFields)
{
    TempDir dir("sac_cache_restamp");
    ResultCache cache(dir.path);
    ExperimentPlan plan;
    plan.add(tinyProfile("RN"), tinyConfig(), OrgKind::Sac, 1,
             "first label");
    runWithCache(plan, cache);

    // Same content, different label and position: the served record
    // carries *this* plan's bookkeeping, not the storing run's.
    ExperimentPlan relabelled;
    relabelled.add(tinyProfile("GEMM"), tinyConfig(), OrgKind::Sac);
    relabelled.add(tinyProfile("RN"), tinyConfig(), OrgKind::Sac, 1,
                   "second label");
    const auto records = runWithCache(relabelled, cache);
    EXPECT_EQ(records[1].jobIndex, 1u);
    EXPECT_EQ(records[1].label, "second label");
    EXPECT_EQ(records[1].source, RecordSource::Cache);
    EXPECT_EQ(records[1].wallMs, 0.0);
    EXPECT_EQ(records[1].worker, 0u);
}

TEST(ResultCache, UnwritableDirectoryThrows)
{
    EXPECT_THROW(ResultCache("/proc/definitely/not/writable"),
                 ValidationError);
}

/** Stamps every entry of @p plan with a known age: job i's entry is
 *  (plan.size() - i) minutes old, so job 0 is the oldest. */
void
stampAges(ResultCache &cache, const ExperimentPlan &plan)
{
    namespace fs = std::filesystem;
    const auto now = fs::file_time_type::clock::now();
    for (std::size_t i = 0; i < plan.size(); ++i)
        fs::last_write_time(
            cache.entryPath(plan[i]),
            now - std::chrono::minutes(plan.size() - i));
}

TEST(ResultCachePrune, EvictsOldestEntriesFirstUnderAnEntryBudget)
{
    TempDir dir("sac_cache_prune_lru");
    ResultCache cache(dir.path);
    const ExperimentPlan plan = fullPlan(); // 10 jobs, 10 entries
    runWithCache(plan, cache);
    stampAges(cache, plan);

    const auto report =
        cache.prune(ResultCache::Budget{.maxEntries = 3});
    EXPECT_TRUE(report.ran);
    EXPECT_EQ(report.scannedEntries, plan.size());
    EXPECT_EQ(report.removedEntries, plan.size() - 3);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(std::filesystem::exists(cache.entryPath(plan[i])),
                  i >= plan.size() - 3)
            << "job " << i;
    }
    // Survivors are intact entries, never partially pruned ones.
    EXPECT_EQ(cache.verify().rejected, 0u);
}

TEST(ResultCachePrune, EnforcesTheByteBudgetTolerantly)
{
    TempDir dir("sac_cache_prune_bytes");
    ResultCache cache(dir.path);
    runWithCache(fullPlan(), cache);

    const auto before = cache.verify();
    ASSERT_GT(before.bytes, 0u);
    const std::uint64_t budget = before.bytes / 2;
    const auto report =
        cache.prune(ResultCache::Budget{.maxBytes = budget});
    EXPECT_TRUE(report.ran);
    EXPECT_GT(report.removedEntries, 0u);
    const auto after = cache.verify();
    EXPECT_LE(after.bytes, budget);
    EXPECT_EQ(after.rejected, 0u);
    EXPECT_EQ(after.bytes, before.bytes - report.removedBytes);
}

TEST(ResultCachePrune, LookupRefreshesAnEntrysAgeAgainstEviction)
{
    TempDir dir("sac_cache_prune_touch");
    ResultCache cache(dir.path);
    ExperimentPlan plan;
    plan.addOrgSweep(tinyProfile("RN"), tinyConfig());
    runWithCache(plan, cache);
    stampAges(cache, plan); // job 0 is the oldest on disk...

    // ...but a hit rejuvenates it, so the LRU pass evicts the others.
    ASSERT_TRUE(cache.lookup(plan[0]).has_value());
    const auto report =
        cache.prune(ResultCache::Budget{.maxEntries = 1});
    EXPECT_TRUE(report.ran);
    EXPECT_TRUE(std::filesystem::exists(cache.entryPath(plan[0])));
    EXPECT_EQ(cache.verify().entries, 1u);
}

TEST(ResultCachePrune, SkipsWhenAnotherProcessHoldsThePruneLock)
{
    TempDir dir("sac_cache_prune_locked");
    ResultCache cache(dir.path);
    ExperimentPlan plan;
    plan.add(tinyProfile("RN"), tinyConfig(), OrgKind::Sac);
    runWithCache(plan, cache);

    // Simulate a concurrent pruner: hold the advisory lock on our
    // own file description (flock contends across descriptions, so
    // this conflicts with the cache's lock just as a second process
    // would).
    const int fd =
        ::open(cache.pruneLockPath().c_str(), O_CREAT | O_RDWR, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::flock(fd, LOCK_EX), 0);

    const ResultCache::Budget budget{.maxEntries = 1};
    EXPECT_FALSE(cache.prune(budget).ran); // skipped, not waited for
    EXPECT_TRUE(std::filesystem::exists(cache.entryPath(plan[0])));

    ::flock(fd, LOCK_UN);
    ::close(fd);
    EXPECT_TRUE(cache.prune(budget).ran);
}

TEST(ResultCachePrune, SweepsAbandonedTemporariesButNotFreshOnes)
{
    TempDir dir("sac_cache_prune_tmps");
    ResultCache cache(dir.path);
    ExperimentPlan plan;
    plan.add(tinyProfile("RN"), tinyConfig(), OrgKind::Sac);
    runWithCache(plan, cache);

    // An hour-old temporary is a crashed writer's litter; a fresh one
    // may be a store in flight and must be left alone.
    namespace fs = std::filesystem;
    const std::string stale = dir.path + "/dead.json.tmp.1";
    const std::string fresh = dir.path + "/live.json.tmp.2";
    std::ofstream(stale) << "{torn";
    std::ofstream(fresh) << "{torn";
    fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                   std::chrono::hours(1));

    const auto report =
        cache.prune(ResultCache::Budget{.maxEntries = 100});
    EXPECT_TRUE(report.ran);
    EXPECT_EQ(report.staleTmps, 1u);
    EXPECT_FALSE(fs::exists(stale));
    EXPECT_TRUE(fs::exists(fresh));
    // Temporaries are invisible to the integrity scan either way.
    EXPECT_EQ(cache.verify().entries, 1u);
    EXPECT_EQ(cache.verify().rejected, 0u);
}

TEST(ResultCachePrune, ASigkilledPrunerNeverWedgesTheCache)
{
    TempDir dir("sac_cache_prune_sigkill");
    ResultCache cache(dir.path);
    const ExperimentPlan plan = fullPlan();
    runWithCache(plan, cache);

    // A child process takes the prune lock and is SIGKILLed while
    // "mid-prune". flock() is released by the kernel on process
    // death, so the parent's next pass must acquire it — no stale
    // lockfile ever wedges pruning.
    int ready[2];
    ASSERT_EQ(::pipe(ready), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        const int fd = ::open(cache.pruneLockPath().c_str(),
                              O_CREAT | O_RDWR, 0644);
        if (fd < 0 || ::flock(fd, LOCK_EX) != 0)
            ::_exit(1);
        char byte = 'k';
        if (::write(ready[1], &byte, 1) != 1)
            ::_exit(1);
        for (;;)
            ::pause();
    }
    char byte = 0;
    ASSERT_EQ(::read(ready[0], &byte, 1), 1);
    ::close(ready[0]);
    ::close(ready[1]);

    const ResultCache::Budget budget{.maxEntries = 2};
    EXPECT_FALSE(cache.prune(budget).ran); // the "pruner" holds it

    ASSERT_EQ(::kill(child, SIGKILL), 0);
    ASSERT_EQ(::waitpid(child, nullptr, 0), child);

    const auto report = cache.prune(budget);
    EXPECT_TRUE(report.ran);
    const auto after = cache.verify();
    EXPECT_LE(after.entries, 2u);
    EXPECT_EQ(after.rejected, 0u);
}

TEST(ResultCachePrune, ToleratesConcurrentStoresWithoutTornSurvivors)
{
    TempDir dir("sac_cache_prune_racing");
    ResultCache cache(dir.path);
    const ExperimentPlan plan = fullPlan();
    const auto records = ExperimentEngine(2).run(plan);

    // Four writers hammer stores of all ten entries while the main
    // thread prunes to a 4-entry budget over and over. Every survivor
    // must be a complete entry; the final pass lands under budget.
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
        writers.emplace_back([&] {
            while (!stop.load()) {
                for (std::size_t i = 0; i < plan.size(); ++i)
                    cache.store(plan[i], records[i]);
            }
        });
    }
    const ResultCache::Budget budget{.maxEntries = 4};
    for (int pass = 0; pass < 25; ++pass)
        EXPECT_TRUE(cache.prune(budget).ran);
    stop.store(true);
    for (auto &w : writers)
        w.join();

    EXPECT_EQ(cache.verify().rejected, 0u);
    EXPECT_TRUE(cache.prune(budget).ran);
    EXPECT_LE(cache.verify().entries, 4u);
    EXPECT_EQ(cache.verify().rejected, 0u);
}

// --- the in-memory warm tier ----------------------------------------------

/** Three GEMM jobs, simulated once through @p cache, then served twice
 *  more so every entry is in the warm tier. */
ExperimentPlan
warmPlan(ResultCache &cache, std::string *reference)
{
    ExperimentPlan plan;
    plan.addOrgSweep(tinyProfile("GEMM"), tinyConfig(),
                     {OrgKind::MemorySide, OrgKind::SmSide, OrgKind::Sac});
    *reference = docOf(runWithCache(plan, cache));
    EXPECT_EQ(cache.warmEntries(), 0u); // store() never fills the tier
    EXPECT_EQ(docOf(runWithCache(plan, cache)), *reference);
    EXPECT_EQ(cache.stats().warmHits, 0u); // read from disk, checked
    EXPECT_EQ(docOf(runWithCache(plan, cache)), *reference);
    EXPECT_EQ(cache.stats().warmHits, plan.size()); // served from memory
    return plan;
}

/** Waits out the file system's timestamp granularity, so an in-place
 *  write after it carries a new mtime. */
void
nextTimestampTick()
{
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
}

TEST(ResultCacheWarm, DamagedEntriesAfterAWarmHitAreRejected)
{
    TempDir dir("sac_cache_warm_damage");
    ResultCache cache(dir.path);
    std::string reference;
    const ExperimentPlan plan = warmPlan(cache, &reference);

    // The same instance, its tier holding all three: truncate one
    // entry, flip a byte of another in place (same size, same inode).
    nextTimestampTick();
    fault_injection::truncateFile(cache.entryPath(plan[0]), 40);
    fault_injection::corruptFile(
        cache.entryPath(plan[1]),
        std::filesystem::file_size(cache.entryPath(plan[1])) / 2);

    const auto before = cache.stats();
    const std::uint64_t runs = ExperimentEngine::simulatedSystemRuns();
    EXPECT_EQ(docOf(runWithCache(plan, cache)), reference);
    EXPECT_EQ(ExperimentEngine::simulatedSystemRuns(), runs + 2);
    EXPECT_EQ(cache.stats().warmHits, before.warmHits + 1);
    EXPECT_GE(cache.stats().rejected, before.rejected + 1);
    EXPECT_EQ(cache.stats().stores, before.stores + 2);
    EXPECT_EQ(cache.verify().rejected, 0u); // both re-persisted
}

TEST(ResultCacheWarm, FlippedStringByteAfterAWarmHitIsRejected)
{
    TempDir dir("sac_cache_warm_flipped_string");
    ResultCache cache(dir.path);
    std::string reference;
    const ExperimentPlan plan = warmPlan(cache, &reference);

    // An in-place flip inside a string value changes the file's
    // identity, so the tier falls back to the disk read, whose
    // checksum rejects the entry.
    nextTimestampTick();
    rewriteInPlace(cache.entryPath(plan[1]), "\"benchmark\":\"GEMM\"",
                   "\"benchmark\":\"G\xb1MM\"");
    const auto before = cache.stats();
    EXPECT_FALSE(cache.lookup(plan[1]).has_value());
    EXPECT_EQ(cache.stats().rejected, before.rejected + 1);
    EXPECT_EQ(cache.stats().misses, before.misses + 1);
    EXPECT_EQ(cache.warmEntries(), plan.size() - 1);
    EXPECT_TRUE(cache.lookup(plan[0]).has_value());
    EXPECT_EQ(cache.stats().warmHits, before.warmHits + 1);
}

TEST(ResultCacheWarm, DeletedEntryAfterAWarmHitIsAMiss)
{
    TempDir dir("sac_cache_warm_delete");
    ResultCache cache(dir.path);
    std::string reference;
    const ExperimentPlan plan = warmPlan(cache, &reference);

    std::filesystem::remove(cache.entryPath(plan[2]));
    const auto before = cache.stats();
    EXPECT_FALSE(cache.lookup(plan[2]).has_value());
    EXPECT_EQ(cache.stats().misses, before.misses + 1);
    EXPECT_EQ(cache.stats().rejected, before.rejected);
    EXPECT_EQ(cache.warmEntries(), plan.size() - 1);
    EXPECT_TRUE(cache.lookup(plan[0]).has_value());
}

TEST(ResultCacheWarm, EntryRenamedOverAfterAWarmHitFailsTheKeyCompare)
{
    TempDir dir("sac_cache_warm_rename");
    ResultCache cache(dir.path);
    std::string reference;
    const ExperimentPlan plan = warmPlan(cache, &reference);

    // Another job's complete, valid entry, moved into place the way a
    // writer would: a new inode under the SAC job's name.
    namespace fs = std::filesystem;
    const std::string tmp = dir.path + "/other.tmp";
    fs::copy_file(cache.entryPath(plan[0]), tmp);
    fs::rename(tmp, cache.entryPath(plan[2]));

    const auto before = cache.stats();
    EXPECT_FALSE(cache.lookup(plan[2]).has_value());
    EXPECT_EQ(cache.stats().rejected, before.rejected + 1);
    const std::uint64_t runs = ExperimentEngine::simulatedSystemRuns();
    EXPECT_EQ(docOf(runWithCache(plan, cache)), reference);
    EXPECT_EQ(ExperimentEngine::simulatedSystemRuns(), runs + 1);
}

TEST(ResultCacheWarm, AWarmHitStillRefreshesTheEntrysAge)
{
    namespace fs = std::filesystem;
    TempDir dir("sac_cache_warm_touch");
    ResultCache cache(dir.path);
    ExperimentPlan plan;
    plan.addOrgSweep(tinyProfile("RN"), tinyConfig());
    runWithCache(plan, cache);
    stampAges(cache, plan); // job 0 is the oldest on disk

    // The first hit reads the disk; then every other entry is made
    // younger than job 0 without touching job 0's file, so only the
    // second — warm — hit can make it the youngest again.
    ASSERT_TRUE(cache.lookup(plan[0]).has_value());
    const auto first = fs::last_write_time(cache.entryPath(plan[0]));
    nextTimestampTick();
    for (std::size_t i = 1; i < plan.size(); ++i)
        fs::last_write_time(cache.entryPath(plan[i]),
                            first + std::chrono::milliseconds(5));
    nextTimestampTick();
    ASSERT_TRUE(cache.lookup(plan[0]).has_value());
    EXPECT_EQ(cache.stats().warmHits, 1u);

    const auto report =
        cache.prune(ResultCache::Budget{.maxEntries = 1});
    EXPECT_TRUE(report.ran);
    EXPECT_TRUE(fs::exists(cache.entryPath(plan[0])));
    EXPECT_EQ(cache.verify().entries, 1u);
}

/** Stores @p n entries, one per seed 1..n of a tiny RN job; odd and
 *  even seeds carry different (real) records, so a lookup that serves
 *  the wrong entry shows. Returns the jobs and their records. */
std::pair<std::vector<ExperimentJob>, std::vector<RunRecord>>
storeManyEntries(ResultCache &cache, std::size_t n)
{
    ExperimentJob base{tinyProfile("RN"), tinyConfig(), OrgKind::Sac};
    ExperimentJob other = base;
    other.org = OrgKind::MemorySide;
    const RunRecord records[2] = {ExperimentEngine::runJob(base),
                                  ExperimentEngine::runJob(other)};
    std::vector<ExperimentJob> jobs;
    std::vector<RunRecord> stored;
    for (std::size_t i = 0; i < n; ++i) {
        ExperimentJob job = base;
        job.seed = i + 1;
        cache.store(job, records[i % 2]);
        jobs.push_back(job);
        stored.push_back(records[i % 2]);
    }
    return {jobs, stored};
}

TEST(ResultCacheWarm, TheTierHoldsAtMostItsCapacityLeastRecentFirstOut)
{
    constexpr std::size_t cap = ResultCache::warmCapacity;
    TempDir dir("sac_cache_warm_cap");
    ResultCache cache(dir.path);
    const auto jobs = storeManyEntries(cache, cap + 1).first;

    const auto warmHit = [&](std::size_t job) {
        const std::uint64_t before = cache.stats().warmHits;
        EXPECT_TRUE(cache.lookup(jobs[job]).has_value());
        EXPECT_LE(cache.warmEntries(), cap);
        return cache.stats().warmHits > before;
    };
    for (std::size_t i = 0; i < cap; ++i)
        EXPECT_FALSE(warmHit(i));
    EXPECT_EQ(cache.warmEntries(), cap);
    EXPECT_FALSE(warmHit(cap)); // evicts job 0, the least recent
    EXPECT_EQ(cache.warmEntries(), cap);
    EXPECT_TRUE(warmHit(1));  // job 1 refreshed: job 2 is now oldest...
    EXPECT_FALSE(warmHit(0)); // ...and goes for job 0
    EXPECT_FALSE(warmHit(2));
    EXPECT_TRUE(warmHit(1));
    EXPECT_TRUE(warmHit(0));
    EXPECT_EQ(cache.stats().hits, cap + 6);
    EXPECT_EQ(cache.stats().warmHits, 3u);
}

TEST(ResultCacheWarm, ConcurrentLookupsServeIdenticalRecords)
{
    // More entries than the tier holds, so the readers race evictions
    // as well as hits.
    TempDir dir("sac_cache_warm_threads");
    ResultCache cache(dir.path);
    const auto [jobs, records] =
        storeManyEntries(cache, ResultCache::warmCapacity + 76);

    std::atomic<int> wrong{0};
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
            for (int pass = 0; pass < 2; ++pass) {
                for (std::size_t n = 0; n < jobs.size(); ++n) {
                    const std::size_t i = (n + t * 300) % jobs.size();
                    const auto hit = cache.lookup(jobs[i]);
                    if (!hit || result_io::toJson(hit->result) !=
                                    result_io::toJson(records[i].result))
                        ++wrong;
                }
            }
        });
    }
    for (auto &r : readers)
        r.join();
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_EQ(cache.stats().hits, 4u * 2u * jobs.size());
    EXPECT_GT(cache.stats().warmHits, 0u);
    EXPECT_LE(cache.warmEntries(), ResultCache::warmCapacity);
}

} // namespace
} // namespace sac
