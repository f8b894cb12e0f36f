/**
 * @file
 * Metric helpers, the span log, the TraceSource timing wrapper and
 * the direct-System pass (see harness.hh).
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <emmintrin.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/json.hh"
#include "harness.hh"
#include "sim/result_io.hh"
#include "sim/runner.hh"
#include "sim/watchdog.hh"
#include "workload/suite.hh"
#include "workload/tracegen.hh"

namespace perfbench {

using namespace sac;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

void
Metrics::add(const std::string &name, double value, const std::string &unit)
{
    entries_.push_back({name, value, unit});
}

void
Outcome::check(bool ok, const std::string &what)
{
    if (!ok)
        failures.push_back(what);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

unsigned
hostProcs()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

double
clockSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

double
threadCpuSeconds()
{
    return clockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

// --- host speed ------------------------------------------------------------

double
processCpuSeconds()
{
    return clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

namespace {

/** Tag array of the probe: 2^18 sets x 8 ways x 8 B = 16 MiB. */
constexpr std::size_t probeSetBits = 18;
constexpr std::size_t probeWays = 8;
/** Lookups per probe. */
constexpr int probeLookups = 200000;
/**
 * Least time between two probes inside measure(): about one probe per
 * completed job, but not one per record of a plan served from cache.
 */
constexpr auto probeGap = std::chrono::milliseconds(20);

/**
 * One probe: LRU lookups into @p table for a fixed address stream
 * with some reuse. The work is the same on every call; the returned
 * hit count keeps the compiler from dropping it.
 */
std::uint64_t
probeKernel(std::vector<std::uint64_t> &table)
{
    const std::size_t set_mask = (std::size_t{1} << probeSetBits) - 1;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    std::uint64_t recent[64] = {};
    std::uint64_t hits = 0;
    for (int i = 0; i < probeLookups; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Three in four lookups revisit a recent line.
        const std::uint64_t line = (x & 3) ? recent[(x >> 2) & 63]
                                           : (x >> 8) & ((1ull << 24) - 1);
        recent[(x >> 8) & 63] = line;
        std::uint64_t *set = &table[(line & set_mask) * probeWays];
        std::size_t way = 0;
        while (way < probeWays && set[way] != line + 1)
            ++way;
        if (way < probeWays)
            ++hits;
        else
            way = probeWays - 1;
        for (; way > 0; --way)
            set[way] = set[way - 1];
        set[0] = line + 1;
    }
    return hits;
}

} // namespace

HostProbe::HostProbe()
    : table_((std::size_t{1} << probeSetBits) * probeWays, 0)
{
    // Fault the table in before the first timed probe.
    hits_ += probeKernel(table_);
}

void
HostProbe::probeLocked()
{
    // Start every probe from memory, whatever ran before it: a probe
    // right after a short plan would otherwise find its table cached.
    const double t0 = threadCpuSeconds();
    for (std::size_t i = 0; i < table_.size(); i += 64 / sizeof table_[0])
        _mm_clflush(&table_[i]);
    _mm_mfence();
    const double t1 = threadCpuSeconds();
    hits_ += probeKernel(table_);
    const double t2 = threadCpuSeconds();
    region_.push_back((t2 - t1) * 1e3);
    overheadS_ += t2 - t0;
    last_ = Clock::now();
}

void
HostProbe::tick()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (active_ && Clock::now() - last_ >= probeGap)
        probeLocked();
}

double
HostProbe::measure(const std::function<void()> &work)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        region_.clear();
        overheadS_ = 0.0;
        active_ = true;
        last_ = Clock::now();
    }
    const double t0 = processCpuSeconds();
    work();
    double cpu = processCpuSeconds() - t0;

    std::lock_guard<std::mutex> lock(mutex_);
    active_ = false;
    cpu -= overheadS_;
    probeLocked();
    ms_.insert(ms_.end(), region_.begin(), region_.end());
    lastFactor_ = referenceProbeMs / median(region_);
    return cpu * lastFactor_;
}

double
HostProbe::probeMs() const
{
    return median(ms_);
}

// --- spans -----------------------------------------------------------------

SpanLog::SpanLog() : epoch_(Clock::now()) {}

double
SpanLog::nowNs() const
{
    return std::chrono::duration<double, std::nano>(Clock::now() - epoch_)
        .count();
}

std::uint64_t
SpanLog::add(Span span)
{
    if (span.id == 0)
        span.id = nextId();
    const std::uint64_t id = span.id;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return id;
}

std::vector<std::pair<std::string, double>>
SpanLog::selfMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::uint64_t, double> child_ns;
    for (const auto &s : spans_)
        if (s.parent)
            child_ns[s.parent] += s.durNs;
    std::map<std::string, double> self;
    for (const auto &s : spans_) {
        const auto it = child_ns.find(s.id);
        const double children = it == child_ns.end() ? 0.0 : it->second;
        self[s.name] += (s.durNs - children) / 1e6;
    }
    return {self.begin(), self.end()};
}

void
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    for (const auto &s : spans_) {
        os << json::Builder('{')
                  .field("id", json::number(s.id))
                  .field("parent", json::number(s.parent))
                  .field("name", json::escape(s.name))
                  .field("tag", json::escape(s.tag))
                  .field("startNs", json::number(s.startNs))
                  .field("durNs", json::number(s.durNs))
                  .field("count", json::number(s.count))
                  .close('}')
           << '\n';
    }
}

// --- TraceSource wrapper ---------------------------------------------------

TimedTraceSource::TimedTraceSource(TraceSource &inner,
                                   std::vector<RecordedAccess> *record,
                                   std::size_t cap)
    : inner_(inner), record_(record), cap_(cap)
{
}

MemAccess
TimedTraceSource::next(ChipId chip, ClusterId cluster, int warp)
{
    const auto t0 = Clock::now();
    const MemAccess a = inner_.next(chip, cluster, warp);
    ns_ += std::chrono::duration<double, std::nano>(Clock::now() - t0)
               .count();
    ++calls_;
    if (record_ && record_->size() < cap_) {
        record_->push_back({a.lineAddr, a.sector,
                            a.type == AccessType::Write, chip});
    }
    return a;
}

void
TimedTraceSource::beginKernel(int kernel_index)
{
    inner_.beginKernel(kernel_index);
}

void
TimedTraceSource::beginStreamKernel(int stream, int kernel_index)
{
    inner_.beginStreamKernel(stream, kernel_index);
}

// --- direct-System pass ----------------------------------------------------

namespace {

/** The record ExperimentEngine delivers for a job that threw. */
RunRecord
failedRecord(const ExperimentJob &job, std::size_t index, RunStatus status,
             const std::string &diagnostic)
{
    RunRecord rec;
    rec.jobIndex = index;
    rec.label = job.label;
    rec.benchmark = job.benchmarkName();
    rec.seed = job.seed;
    rec.result.organization = toString(job.org);
    rec.result.status = status;
    rec.result.diagnostic = diagnostic;
    return rec;
}

GpuConfig
jobConfig(const ExperimentJob &job)
{
    GpuConfig cfg = job.config;
    cfg.seed = job.seed;
    cfg.validate();
    return cfg;
}

DirectRun
runOneDirect(const ExperimentJob &job, std::size_t index, SpanLog &log,
             std::vector<RecordedAccess> *recorded, std::size_t cap)
{
    const std::uint64_t job_id = log.nextId();
    const double job_start = log.nowNs();
    DirectRun out;
    std::unique_ptr<SharingTraceGen> gen;
    std::unique_ptr<TimedTraceSource> wrapper;
    std::uint64_t run_id = 0;
    double run_start = 0.0;
    try {
        const GpuConfig cfg = jobConfig(job);
        const WorkloadProfile scaled = job.profile.scaledData(dataScale(cfg));

        const double build_start = log.nowNs();
        gen = std::make_unique<SharingTraceGen>(scaled, cfg, job.seed);
        wrapper = std::make_unique<TimedTraceSource>(*gen, recorded, cap);
        System system(cfg, job.org, *wrapper);
        system.setFastForward(job.fastForward);
        system.setRunLimits(job.limits);
        const double build_end = log.nowNs();
        log.add({0, job_id, "system_build", job.label, build_start,
                 build_end - build_start, 1});
        out.buildMs = (build_end - build_start) / 1e6;

        run_id = log.nextId();
        run_start = log.nowNs();
        out.record.jobIndex = index;
        out.record.label = job.label;
        out.record.benchmark = job.benchmarkName();
        out.record.seed = job.seed;
        out.record.result = system.run(kernelsFor(scaled));
        out.ff = system.fastForwardStats();
    } catch (const std::exception &e) {
        RunStatus status = RunStatus::Failed;
        if (dynamic_cast<const LivelockError *>(&e))
            status = RunStatus::Livelocked;
        else if (dynamic_cast<const SimTimeoutError *>(&e))
            status = RunStatus::TimedOut;
        out.record = failedRecord(job, index, status, e.what());
    }
    const double end = log.nowNs();
    if (wrapper) {
        out.nextNs = wrapper->ns();
        out.nextCalls = wrapper->calls();
    }
    if (run_id) {
        out.runMs = (end - run_start) / 1e6;
        log.add({run_id, job_id, "system_run", job.label, run_start,
                 end - run_start, 1});
        log.add({0, run_id, "trace_next", job.label, run_start, out.nextNs,
                 out.nextCalls});
    }
    log.add({job_id, 0, "job", job.label, job_start, end - job_start, 1});
    out.record.wallMs = (end - job_start) / 1e6;
    return out;
}

} // namespace

std::vector<DirectRun>
runDirect(const ExperimentPlan &plan, unsigned threads, SpanLog &log,
          std::vector<RecordedAccess> &recorded, std::size_t record_cap)
{
    std::vector<DirectRun> runs(plan.size());
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        for (std::size_t i = next.fetch_add(1); i < plan.size();
             i = next.fetch_add(1)) {
            runs[i] = runOneDirect(plan[i], i, log,
                                   i == 0 ? &recorded : nullptr, record_cap);
        }
    };
    std::vector<std::thread> pool;
    const unsigned n = std::max(1u, std::min<unsigned>(
                                        threads,
                                        static_cast<unsigned>(plan.size())));
    for (unsigned t = 1; t < n; ++t)
        pool.emplace_back(worker);
    worker();
    for (auto &t : pool)
        t.join();
    return runs;
}

void
buildSystems(const ExperimentPlan &plan)
{
    for (const auto &job : plan.jobs()) {
        const GpuConfig cfg = jobConfig(job);
        const WorkloadProfile scaled = job.profile.scaledData(dataScale(cfg));
        SharingTraceGen gen(scaled, cfg, job.seed);
        System system(cfg, job.org, gen);
    }
}

std::uint64_t
expectedAccesses(const ExperimentJob &job)
{
    const GpuConfig cfg = jobConfig(job);
    std::uint64_t per_warp = 0;
    for (const auto &k : kernelsFor(job.profile.scaledData(dataScale(cfg))))
        per_warp += k.accessesPerWarp;
    return per_warp * static_cast<std::uint64_t>(cfg.warpsPerCluster) *
           static_cast<std::uint64_t>(cfg.totalClusters());
}

SimTotals
simTotals(const std::vector<RunRecord> &records)
{
    SimTotals t;
    for (const auto &r : records) {
        if (r.result.status != RunStatus::Ok)
            continue;
        t.accesses += static_cast<double>(r.result.accesses);
        t.cycles += static_cast<double>(r.result.cycles);
    }
    return t;
}

// --- Fig. 8 verdicts and simulated counts -----------------------------------

Verdicts
fig8Verdicts(const std::vector<RunRecord> &records, std::uint64_t seed)
{
    const std::vector<OrgKind> &orgs = ExperimentPlan::allOrganizations();
    // benchmark -> organization name -> result (ok or not)
    std::map<std::string, std::map<std::string, const RunResult *>> rows;
    for (const auto &r : records)
        if (r.seed == seed)
            rows[r.benchmark][r.result.organization] = &r.result;

    Verdicts v;
    std::map<OrgKind, std::vector<double>> speedups;
    for (const auto &[name, by_org] : rows) {
        bool sp = false;
        try {
            sp = findBenchmark(name).smSidePreferred;
        } catch (const std::exception &) {
            continue; // not a suite benchmark
        }
        const auto ok = [&](OrgKind k) -> const RunResult * {
            const auto it = by_org.find(toString(k));
            return it != by_org.end() && it->second->status == RunStatus::Ok &&
                           it->second->cycles > 0
                       ? it->second
                       : nullptr;
        };
        const RunResult *mem = ok(OrgKind::MemorySide);
        const RunResult *sm = ok(OrgKind::SmSide);
        const RunResult *sac = ok(OrgKind::Sac);

        v.total += 2;
        if (mem && sm && (sp ? sm->cycles < mem->cycles
                             : mem->cycles < sm->cycles))
            ++v.held;
        if (mem && sm && sac && !sac->sacDecisions.empty()) {
            int sm_votes = 0;
            for (const auto &d : sac->sacDecisions)
                sm_votes += d.chosen == LlcMode::SmSide ? 1 : -1;
            const bool chose_sm =
                sm_votes > 0 ||
                (sm_votes == 0 &&
                 sac->sacDecisions.front().chosen == LlcMode::SmSide);
            if (chose_sm == (sm->cycles < mem->cycles))
                ++v.held;
        }

        bool complete = true;
        for (const OrgKind k : orgs)
            complete = complete && ok(k);
        if (complete) {
            for (const OrgKind k : orgs)
                speedups[k].push_back(speedup(*mem, *ok(k)));
        }
    }

    v.total += 4;
    if (!speedups[OrgKind::Sac].empty()) {
        std::map<OrgKind, double> h;
        for (const OrgKind k : orgs)
            h[k] = harmonicMean(speedups[k]);
        v.hmeanSacVsMem = h[OrgKind::Sac];
        for (const OrgKind k : {OrgKind::MemorySide, OrgKind::SmSide,
                                OrgKind::StaticLlc, OrgKind::DynamicLlc})
            if (h[OrgKind::Sac] > h[k])
                ++v.held;
    }
    return v;
}

void
simulatedCounts(const std::vector<RunRecord> &records, Metrics &out)
{
    double l1_hits = 0, l1_all = 0, llc_hits = 0, llc_req = 0;
    double remote = 0, icn = 0, dram = 0, acc = 0, inval = 0, reconf = 0;
    double stall = 0, ok = 0;
    for (const auto &r : records) {
        const RunResult &x = r.result;
        if (x.status != RunStatus::Ok)
            continue;
        ++ok;
        l1_hits += static_cast<double>(x.l1Hits);
        l1_all += static_cast<double>(x.l1Hits + x.l1Misses);
        llc_hits += static_cast<double>(x.llcHits);
        llc_req += static_cast<double>(x.llcRequests);
        remote += x.llcRemoteFraction;
        icn += static_cast<double>(x.icnBytes);
        dram += static_cast<double>(x.dramBytes);
        acc += static_cast<double>(x.accesses);
        inval += static_cast<double>(x.invalidations);
        reconf += x.reconfigurations;
        stall += static_cast<double>(x.flushStallCycles);
    }
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    out.add("gpu.l1_hit_rate", ratio(l1_hits, l1_all), "frac");
    out.add("llc.hit_rate", ratio(llc_hits, llc_req), "frac");
    out.add("llc.remote_frac", ratio(remote, ok), "frac");
    out.add("llc.invalidations", inval, "count");
    out.add("noc.icn_bytes_per_access", ratio(icn, acc), "B");
    out.add("mem.dram_bytes_per_access", ratio(dram, acc), "B");
    out.add("sac.reconfigs", reconf, "count");
    out.add("sac.flush_stall_cycles", stall, "cycles");
}

void
directPassMetrics(const std::vector<DirectRun> &runs, Metrics &out)
{
    double next_ns = 0, calls = 0, run_ns = 0;
    System::FastForwardStats ff;
    std::vector<double> builds;
    for (const auto &r : runs) {
        if (r.record.result.status != RunStatus::Ok)
            continue;
        next_ns += r.nextNs;
        calls += static_cast<double>(r.nextCalls);
        builds.push_back(r.buildMs);
        run_ns += r.runMs * 1e6;
        ff.heapPops += r.ff.heapPops;
        ff.skips += r.ff.skips;
        ff.skippedCycles += r.ff.skippedCycles;
        ff.denseCycles += r.ff.denseCycles;
        ff.schedCycles += r.ff.schedCycles;
    }
    const double sched = static_cast<double>(ff.schedCycles);
    out.add("workload.next_calls", calls, "count");
    out.add("workload.next_ns", calls > 0 ? next_ns / calls : 0.0, "ns");
    out.add("workload.busy_frac", run_ns > 0 ? next_ns / run_ns : 0.0, "frac");
    out.add("sim.sched.heap_pops", static_cast<double>(ff.heapPops), "count");
    out.add("sim.sched.skips", static_cast<double>(ff.skips), "count");
    out.add("sim.sched.skipped_cycles", static_cast<double>(ff.skippedCycles),
            "cycles");
    out.add("sim.sched.dense_cycles", static_cast<double>(ff.denseCycles),
            "cycles");
    out.add("sim.run_ns_per_sched_cycle", sched > 0 ? run_ns / sched : 0.0,
            "ns");
    out.add("sim.system_build_ms", median(builds), "ms");
}

} // namespace perfbench
