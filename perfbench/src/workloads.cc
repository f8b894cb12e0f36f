/**
 * @file
 * The three benchmark workloads.
 *
 *  - paper-sweep: the Fig. 8 plan (16 Table-4 benchmarks x 5 LLC
 *    organizations) at the suite's default kernel lengths, run through
 *    ExperimentEngine. The per-access layers do the host work.
 *  - sparse-issue: the idle-heavy and issue-bound shapes of
 *    bench/perf_throughput.cc, lengthened, under memory-side and SAC.
 *    The scheduler's wake heap and skip path do the work.
 *  - daemon-replay: one in-process sacsimd client in a closed loop
 *    against a fresh cache directory: a cold plan, warm resubmissions
 *    served from the ResultCache, then a plan half of which is cached.
 *    The service layer does the work.
 *
 * Every workload reports the same end-to-end metrics. A "plan" is one
 * request its client waits on: the sweep, one pass over the shapes, or
 * one sac.sweep.v1 request. The traced run (--trace 1) runs the
 * workload's first plan once untraced, runs the same jobs again in a
 * direct-System pass with every layer call timed, checks the two
 * record sets are byte-identical and replays the recorded access
 * stream through the layer replays.
 */

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>

#include "common/json.hh"
#include "harness.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "service/result_cache.hh"
#include "sim/result_io.hh"
#include "workload/suite.hh"

namespace perfbench {

using namespace sac;
using service::ResultCache;

namespace {

/** Paper's average SAC speedup over the memory-side LLC (Fig. 8). */
constexpr double paperSacVsMem = 1.76;
/** Accesses of the first job kept for the layer replays. */
constexpr std::size_t replayCap = 1u << 20;

/**
 * One sac.sweep.v1 request line: every suite benchmark x all orgs for
 * each seed, seed-major; @p apw 0 keeps default kernel lengths. With
 * @p skip_bfs_sac the BFS/SAC job is left out (see daemonReplay).
 */
std::string
suiteRequest(const std::string &id, const std::vector<std::uint64_t> &seeds,
             std::uint64_t apw, bool skip_bfs_sac = false)
{
    json::Builder plan('[');
    const auto add = [&](const std::string &name, const char *org,
                         std::uint64_t seed) {
        json::Builder spec('{');
        spec.field("benchmark", json::escape(name))
            .field("org", json::escape(org))
            .field("seed", json::number(seed));
        if (apw)
            spec.field("apw", json::number(apw));
        plan.item(spec.close('}'));
    };
    for (const std::uint64_t seed : seeds) {
        for (const auto &name : benchmarkNames()) {
            if (skip_bfs_sac && name == "BFS") {
                for (const char *org : {"mem", "sm", "static", "dynamic"})
                    add(name, org, seed);
            } else {
                add(name, "all", seed);
            }
        }
    }
    return json::Builder('{')
        .field("schema", json::escape(service::requestSchema))
        .field("id", json::escape(id))
        .field("plan", plan.close(']'))
        .close('}');
}

/** Record-level output checks shared by every workload. */
void
checkRecords(const ExperimentPlan &plan, const std::vector<RunRecord> &recs,
             const std::string &what, Outcome &out)
{
    out.check(recs.size() == plan.size(), what + ": one record per job");
    for (std::size_t i = 0; i < recs.size() && i < plan.size(); ++i) {
        const RunRecord &r = recs[i];
        const std::string at = what + " job " + plan[i].label;
        out.check(r.label == plan[i].label && r.seed == plan[i].seed,
                  at + ": record in plan order");
        if (r.result.status == RunStatus::Ok) {
            out.check(r.result.cycles > 0 &&
                          r.result.accesses == expectedAccesses(plan[i]),
                      at + ": simulated every access");
        } else {
            out.check(!r.result.diagnostic.empty(),
                      at + ": failure carries a diagnostic");
        }
        const std::string text = result_io::recordToJson(r);
        out.check(result_io::recordToJson(result_io::recordFromJson(text)) ==
                      text,
                  at + ": record round-trips through result_io");
    }
}

/** Checks @p got equals @p want record for record, byte for byte. */
void
checkIdentical(const std::vector<RunRecord> &got,
               const std::vector<RunRecord> &want, const std::string &what,
               Outcome &out)
{
    out.check(got.size() == want.size(), what + ": one record per job");
    for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
        out.check(result_io::recordToJson(got[i]) ==
                      result_io::recordToJson(want[i]),
                  what + ": " + got[i].label + " identical");
    }
}

void
countJobs(const std::vector<RunRecord> &recs, Outcome &out)
{
    for (const auto &r : recs) {
        ++out.attempted;
        if (r.result.status != RunStatus::Ok)
            ++out.failed;
    }
}

/**
 * End-to-end measurements of one run. Times are CPU seconds of the
 * process, summed over its threads, in reference-host seconds (see
 * HostProbe).
 */
struct EndToEnd
{
    double setupCpu = 0.0;
    double coldCpu = 0.0;
    std::vector<double> planCpu;
    /** Wall time and unscaled CPU time of each timed plan, ms: printed,
     *  not metrics. */
    std::vector<double> planWallMs;
    std::vector<double> planRawCpuMs;
    double accesses = 0.0;
    double cycles = 0.0;
    /** CPU seconds of the plans that simulated those accesses. */
    double simCpu = 0.0;
    int verdicts = 0;
};

void
report(const EndToEnd &e, const HostProbe &probe, Outcome &out)
{
    Metrics &m = out.metrics;
    m.add("setup_s", e.setupCpu, "s");
    m.add("cold_plan_s", e.coldCpu, "s");
    m.add("plan_ms_p50", quantile(e.planCpu, 0.5) * 1e3, "ms");
    m.add("plan_ms_p90", quantile(e.planCpu, 0.9) * 1e3, "ms");
    m.add("accesses_per_s", e.simCpu > 0 ? e.accesses / e.simCpu : 0, "1/s");
    m.add("sim_cycles_per_s", e.simCpu > 0 ? e.cycles / e.simCpu : 0, "1/s");
    m.add("ok_frac",
          out.attempted ? static_cast<double>(out.attempted - out.failed) /
                              static_cast<double>(out.attempted)
                        : 0.0,
          "frac");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    m.add("verdicts_held", e.verdicts, "count");
    std::cout << "plans timed: " << e.planCpu.size()
              << ", wall ms p50 " << quantile(e.planWallMs, 0.5) << " p90 "
              << quantile(e.planWallMs, 0.9) << ", unscaled cpu ms p50 "
              << quantile(e.planRawCpuMs, 0.5) << "\n"
              << "host probes: " << probe.probes() << ", median "
              << probe.probeMs() << " ms (reference "
              << HostProbe::referenceProbeMs << " ms)\n";
}

void
addSimTotals(const std::vector<RunRecord> &recs, double cpu_s, EndToEnd &e)
{
    const SimTotals t = simTotals(recs);
    e.accesses += t.accesses;
    e.cycles += t.cycles;
    e.simCpu += cpu_s;
}

/** Engine metrics from one engine run's records and telemetry. */
void
engineMetrics(const std::vector<RunRecord> &recs, const EngineTelemetry &t,
              Metrics &m)
{
    std::vector<double> queue;
    double job_max = 0.0;
    for (const auto &r : recs) {
        if (r.source != RecordSource::Simulated)
            continue;
        queue.push_back(r.queueMs);
        job_max = std::max(job_max, r.wallMs);
    }
    m.add("engine.utilization", t.utilization(), "frac");
    m.add("engine.queue_ms_p50", median(queue), "ms");
    m.add("engine.job_ms_max", job_max, "ms");
}

/** Service-layer metrics; zero where a workload makes no such call. */
struct ServiceTimes
{
    std::vector<double> lookupUs;
    std::vector<double> storeUs;
    std::vector<double> encodeUs;
    std::vector<double> parseUs;
    ResultCache::Stats stats;
    double mixedPlanS = 0.0;
};

void
serviceMetrics(const ServiceTimes &s, Metrics &m)
{
    m.add("service.lookup_us", median(s.lookupUs), "us");
    m.add("service.store_us", median(s.storeUs), "us");
    m.add("service.encode_us", median(s.encodeUs), "us");
    m.add("service.parse_us", median(s.parseUs), "us");
    m.add("service.cache_hits", static_cast<double>(s.stats.hits), "count");
    m.add("service.cache_misses", static_cast<double>(s.stats.misses),
          "count");
    m.add("service.cache_rejected", static_cast<double>(s.stats.rejected),
          "count");
    m.add("service.mixed_plan_s", s.mixedPlanS, "s");
}

/**
 * The traced pass shared by every workload: the direct-System run of
 * @p plan on as many @p threads as the workload's engine has, checked
 * byte-identical to @p reference (the same jobs as the workload
 * delivered them), then the layer replays, the simulated counts and
 * the span self times.
 */
void
tracedPass(const Options &opts, const ExperimentPlan &plan,
           unsigned threads, const std::vector<RunRecord> &reference,
           double untraced_s, const HostProbe &probe, SpanLog &log,
           Outcome &out)
{
    std::vector<RecordedAccess> recorded;
    const auto t0 = Clock::now();
    const std::vector<DirectRun> runs =
        runDirect(plan, threads, log, recorded, replayCap);
    const double traced_s = secondsSince(t0);

    std::vector<RunRecord> direct;
    for (const auto &r : runs)
        direct.push_back(r.record);
    checkIdentical(direct, reference, "direct pass", out);

    Metrics &m = out.metrics;
    directPassMetrics(runs, m);
    layerReplay(recorded, plan[0].config, m);
    simulatedCounts(reference, m);
    const Verdicts v = fig8Verdicts(reference, opts.seed);
    m.add("sac.hmean_speedup_vs_mem", v.hmeanSacVsMem, "x");
    m.add("sac.hmean_abs_err_vs_paper",
          v.hmeanSacVsMem > 0
              ? std::abs(v.hmeanSacVsMem / paperSacVsMem - 1.0)
              : 0.0,
          "frac");

    std::map<std::string, double> self;
    for (const char *name : {"job", "system_build", "system_run",
                             "trace_next", "plan", "parse", "cache_lookup",
                             "cache_store", "encode"})
        self[name] = 0.0;
    for (const auto &[name, ms] : log.selfMs())
        self[name] = ms;
    for (const auto &[name, ms] : self)
        m.add("self." + name + "_ms", ms, "ms");
    m.add("trace.untraced_s", untraced_s, "s");
    m.add("trace.traced_s", traced_s, "s");
    m.add("trace.overhead_s", traced_s - untraced_s, "s");
    m.add("host.probe_ms", probe.probeMs(), "ms");

    const std::string path = opts.workDir + "/spans-" + opts.workload +
                             "-seed" + std::to_string(opts.seed) + ".jsonl";
    log.write(path);
    std::cout << "spans written to " << path << "\n";
}

/**
 * Median CPU seconds of @p reps calls of @p fn on the calling thread,
 * in reference-host seconds. The calls are measured as one region: a
 * call can be shorter than a probe.
 */
double
medianSetupSeconds(HostProbe &probe, int reps, const std::function<void()> &fn)
{
    std::vector<double> v;
    probe.measure([&] {
        for (int r = 0; r < reps; ++r) {
            const double t0 = threadCpuSeconds();
            fn();
            v.push_back(threadCpuSeconds() - t0);
            probe.tick();
        }
    });
    return median(std::move(v)) * probe.lastFactor();
}

/**
 * Runs @p plan on @p engine as one timed plan after another until
 * --seconds have passed (once in the traced run). Every run's records
 * are checked, and must equal @p expected byte for byte (the first
 * run's records when @p expected is empty). Returns the first run's.
 */
std::vector<RunRecord>
repeatPlan(ExperimentEngine &engine, const ExperimentPlan &plan,
           const Options &opts, HostProbe &probe,
           std::vector<RunRecord> expected, EngineTelemetry &tele,
           EndToEnd &e, Outcome &out)
{
    ProbeSink probe_sink(probe);
    engine.addSink(probe_sink);
    std::vector<RunRecord> first;
    const auto start = Clock::now();
    do {
        std::vector<RunRecord> recs;
        double wall_ms = 0.0;
        const double cpu = probe.measure([&] {
            const auto t0 = Clock::now();
            recs = engine.run(plan, &tele);
            wall_ms = msSince(t0);
        });
        e.planWallMs.push_back(wall_ms);
        e.planRawCpuMs.push_back(cpu / probe.lastFactor() * 1e3);
        e.planCpu.push_back(cpu);
        const std::string what = "plan " + std::to_string(e.planCpu.size());
        checkRecords(plan, recs, what, out);
        if (expected.empty())
            expected = recs;
        checkIdentical(recs, expected, what, out);
        countJobs(recs, out);
        addSimTotals(recs, cpu, e);
        if (first.empty())
            first = recs;
    } while (!opts.trace && secondsSince(start) < opts.seconds);
    // Nothing is cached here: every plan simulates all of its jobs.
    e.coldCpu = median(e.planCpu);
    return first;
}
} // namespace

// --- paper-sweep -------------------------------------------------------------

Outcome
paperSweep(const Options &opts)
{
    Outcome out;
    EndToEnd e;
    const std::string line = suiteRequest("fig8", {opts.seed}, 0);

    HostProbe probe;
    std::optional<ExperimentPlan> plan;
    e.setupCpu = medianSetupSeconds(probe, 21, [&] {
        plan = service::parseRequest(line).plan;
        buildSystems(*plan);
    });

    EngineTelemetry tele;
    ExperimentEngine engine(hostProcs());
    const std::vector<RunRecord> first =
        repeatPlan(engine, *plan, opts, probe, {}, tele, e, out);
    const Verdicts v = fig8Verdicts(first, opts.seed);
    e.verdicts = v.held;
    std::cout << "verdicts held: " << v.held << " of " << v.total << "\n";
    for (const auto &r : first)
        if (r.result.status != RunStatus::Ok)
            std::cout << "failed job: " << r.label << ": "
                      << r.result.diagnostic << "\n";

    if (opts.trace) {
        SpanLog log;
        engineMetrics(first, tele, out.metrics);
        serviceMetrics({}, out.metrics);
        tracedPass(opts, *plan, hostProcs(), first,
                   e.planWallMs.front() / 1e3, probe, log, out);
    } else {
        report(e, probe, out);
    }
    return out;
}

// --- sparse-issue ------------------------------------------------------------

namespace {

/**
 * The perf_throughput sparse shapes, lengthened (4x and 2x the
 * accesses per warp) so one job runs for a few hundred host
 * milliseconds on the event-driven path.
 */
ExperimentPlan
sparsePlan(std::uint64_t seed)
{
    struct Shape
    {
        const char *name;
        int warps;
        Cycle gap;
        std::uint64_t apw;
    };
    // idle-heavy: two warps per cluster, long compute gaps, so most
    // cycles carry no work and the scheduler jumps them. issue-bound:
    // a full warp complement whose issue events land nearly every
    // cycle, so only the due components tick.
    const Shape shapes[] = {{"idle-heavy", 2, 2000, 1024},
                            {"issue-bound", 48, 24000, 128}};
    ExperimentPlan plan;
    for (const Shape &s : shapes) {
        for (const OrgKind org : {OrgKind::MemorySide, OrgKind::Sac}) {
            ExperimentJob job;
            job.config = GpuConfig::scaled(4);
            job.config.warpsPerCluster = s.warps;
            job.profile = findBenchmark("RN");
            job.profile.numKernels = 1;
            job.profile.phases[0].computeGap = s.gap;
            job.profile.phases[0].accessesPerWarp = s.apw;
            job.org = org;
            job.seed = seed;
            job.label = std::string(s.name) + "/" + toString(org);
            plan.add(std::move(job));
        }
    }
    return plan;
}

} // namespace

Outcome
sparseIssue(const Options &opts)
{
    Outcome out;
    EndToEnd e;
    HostProbe probe;
    std::optional<ExperimentPlan> plan;
    e.setupCpu = medianSetupSeconds(probe, 101, [&] {
        plan = sparsePlan(opts.seed);
        buildSystems(*plan);
    });
    // Outside the timed region: every shape once on the per-cycle
    // reference loop, which every timed pass must equal.
    ExperimentPlan reference = *plan;
    reference.setFastForward(false);
    const std::vector<RunRecord> ref =
        ExperimentEngine(hostProcs()).run(reference);
    checkRecords(reference, ref, "reference", out);

    // One worker: a pass then sums its four jobs instead of waiting
    // for the slowest of four parallel ones, so host noise averages
    // over the pass; the scheduler's work is per job either way.
    EngineTelemetry tele;
    ExperimentEngine engine(1);
    const std::vector<RunRecord> first =
        repeatPlan(engine, *plan, opts, probe, ref, tele, e, out);

    // Compute gaps bound these shapes, so the LLC organization barely
    // matters: SAC, profiling window and flushes included, must finish
    // within 1% of memory-side.
    for (std::size_t i = 0; i + 1 < first.size(); i += 2) {
        const RunResult &mem = first[i].result;
        const RunResult &sac = first[i + 1].result;
        if (mem.status == RunStatus::Ok && sac.status == RunStatus::Ok &&
            std::abs(static_cast<double>(sac.cycles) /
                         static_cast<double>(mem.cycles) -
                     1.0) <= 0.01)
            ++e.verdicts;
    }
    std::cout << "verdicts held: " << e.verdicts << " of "
              << first.size() / 2 << "\n";

    if (opts.trace) {
        SpanLog log;
        engineMetrics(first, tele, out.metrics);
        serviceMetrics({}, out.metrics);
        tracedPass(opts, *plan, 1, first, e.planWallMs.front() / 1e3, probe,
                   log, out);
    } else {
        report(e, probe, out);
    }
    return out;
}

// --- daemon-replay -----------------------------------------------------------

namespace {

/** Kernel length of the daemon plans: short jobs, many of them. */
constexpr std::uint64_t daemonApw = 16;
/** Warm resubmissions a run makes at least. */
constexpr int minWarmPlans = 100;

/** One plan's response, split into its events. */
struct Response
{
    std::vector<std::string> recordLines;
    std::vector<RunRecord> records;
    json::Value done;
    bool error = false;
    double ms = 0.0;
    /** CPU seconds of the request, in reference-host seconds. */
    double cpu = 0.0;
};

Response
submit(service::Daemon &daemon, const std::string &line, HostProbe &probe)
{
    Response r;
    std::vector<std::string> lines;
    r.cpu = probe.measure([&] {
        const auto t0 = Clock::now();
        daemon.handleRequest(line, [&](const std::string &ev) {
            lines.push_back(ev);
            probe.tick();
        });
        r.ms = msSince(t0);
    });
    for (const auto &ev : lines) {
        const json::Value v = json::parse(ev);
        const std::string kind = v.at("event").asString();
        if (kind == "record") {
            r.recordLines.push_back(ev);
            r.records.push_back(result_io::recordFromValue(v.at("record")));
        } else if (kind == "done") {
            r.done = v;
        } else {
            r.error = true;
            std::cerr << "daemon error event: " << ev << "\n";
        }
    }
    return r;
}

std::uint64_t
doneCount(const Response &r, const char *field)
{
    return r.done.has(field) ? r.done.at(field).asU64() : 0;
}

/** JobCache wrapper timing ResultCache::lookup/store calls. */
class TimedJobCache : public JobCache
{
  public:
    TimedJobCache(JobCache &inner, SpanLog &log, std::uint64_t plan,
                  std::string tag)
        : inner_(inner), log_(log), plan_(plan), tag_(std::move(tag))
    {
    }

    std::optional<RunRecord> lookup(const ExperimentJob &job) override
    {
        const double t0 = log_.nowNs();
        auto r = inner_.lookup(job);
        note("cache_lookup", t0, lookupUs);
        return r;
    }

    void store(const ExperimentJob &job, const RunRecord &record) override
    {
        const double t0 = log_.nowNs();
        inner_.store(job, record);
        note("cache_store", t0, storeUs);
    }

    std::vector<double> lookupUs;
    std::vector<double> storeUs;

  private:
    void note(const char *name, double t0, std::vector<double> &into)
    {
        const double dur = log_.nowNs() - t0;
        log_.add({0, plan_, name, tag_, t0, dur, 1});
        std::lock_guard<std::mutex> lock(mutex_);
        into.push_back(dur / 1e3);
    }

    JobCache &inner_;
    SpanLog &log_;
    std::uint64_t plan_;
    std::string tag_;
    std::mutex mutex_;
};

/** Sink timing the daemon's per-record wire encoding. */
class TimedEncodeSink : public ResultSink
{
  public:
    TimedEncodeSink(const service::SweepRequest &request, SpanLog &log,
                    std::uint64_t plan, std::vector<double> &us)
        : request_(request), log_(log), plan_(plan), us_(us)
    {
    }

    void onRecord(const EngineProgress &event) override
    {
        // Only the encoding's cost is wanted; the line is dropped.
        const double t0 = log_.nowNs();
        (void)service::recordEvent(request_, event);
        const double dur = log_.nowNs() - t0;
        log_.add({0, plan_, "encode", request_.id, t0, dur, 1});
        us_.push_back(dur / 1e3);
    }

  private:
    const service::SweepRequest &request_;
    SpanLog &log_;
    std::uint64_t plan_;
    std::vector<double> &us_;
};

/**
 * The service layer timed from outside: @p line parsed, its plan run
 * on an engine backed by a TimedJobCache over @p cache, every record
 * encoded as the daemon would.
 */
void
tracedServicePlan(const std::string &line, const std::string &tag,
                  ResultCache &cache, SpanLog &log, ServiceTimes &times,
                  std::vector<RunRecord> *records, EngineTelemetry *tele)
{
    const std::uint64_t plan_span = log.nextId();
    const double start = log.nowNs();
    const service::SweepRequest request = service::parseRequest(line);
    const double parse = log.nowNs() - start;
    log.add({0, plan_span, "parse", tag, start, parse, 1});
    times.parseUs.push_back(parse / 1e3);

    TimedJobCache timed(cache, log, plan_span, tag);
    ExperimentEngine engine(hostProcs());
    engine.setCache(&timed);
    TimedEncodeSink sink(request, log, plan_span, times.encodeUs);
    engine.addSink(sink);
    std::vector<RunRecord> recs = engine.run(request.plan, tele);
    const double dur = log.nowNs() - start;
    log.add({plan_span, 0, "plan", tag, start, dur, 1});
    times.lookupUs.insert(times.lookupUs.end(), timed.lookupUs.begin(),
                          timed.lookupUs.end());
    times.storeUs.insert(times.storeUs.end(), timed.storeUs.begin(),
                         timed.storeUs.end());
    if (records)
        *records = std::move(recs);
}

} // namespace

Outcome
daemonReplay(const Options &opts)
{
    namespace fs = std::filesystem;
    Outcome out;
    EndToEnd e;
    const std::uint64_t s = opts.seed;
    // BFS/SAC is left out of the daemon plans: it panics on the
    // event-driven path for many (seed, apw) pairs ("icn ticked
    // twice"), the daemon never caches a failed record, so every warm
    // plan would re-simulate it and the warm phase would time the
    // simulator instead of the service layer. paper-sweep keeps the
    // job and reports the failure.
    const std::string cold_line =
        suiteRequest("replay", {s, s + 1}, daemonApw, true);
    const std::string mixed_line =
        suiteRequest("replay", {s, s + 2}, daemonApw, true);
    const std::string base = opts.workDir + "/daemon-" +
                             std::to_string(::getpid());
    fs::remove_all(base);

    // One daemon worker: the engine then runs every job and cache
    // lookup on the client's thread, so a plan's CPU time is its own
    // and the probes after it run where it ran.
    service::DaemonOptions dopts;
    dopts.jobs = 1;
    dopts.connections = 1;

    HostProbe probe;
    std::optional<ExperimentPlan> plan;
    int rep = 0;
    e.setupCpu = medianSetupSeconds(probe, 15, [&] {
        dopts.cacheDir = base + "/setup-" + std::to_string(rep++);
        service::Daemon daemon(dopts);
        plan = service::parseRequest(cold_line).plan;
        buildSystems(*plan);
    });

    dopts.cacheDir = base + "/cache";
    service::Daemon daemon(dopts);
    const auto start = Clock::now();

    const Response cold = submit(daemon, cold_line, probe);
    e.coldCpu = cold.cpu;
    out.check(!cold.error && doneCount(cold, "jobs") == plan->size(),
              "cold plan completes");
    checkRecords(*plan, cold.records, "cold plan", out);
    countJobs(cold.records, out);

    int warm_plans = 0;
    bool warm_identical = true;
    bool warm_cached = true;
    while (warm_plans < minWarmPlans ||
           (!opts.trace && secondsSince(start) < opts.seconds)) {
        const Response warm = submit(daemon, cold_line, probe);
        ++warm_plans;
        e.planCpu.push_back(warm.cpu);
        e.planWallMs.push_back(warm.ms);
        e.planRawCpuMs.push_back(warm.cpu / probe.lastFactor() * 1e3);
        warm_identical = warm_identical && !warm.error &&
                         warm.recordLines == cold.recordLines;
        warm_cached = warm_cached && doneCount(warm, "simulated") == 0;
        countJobs(warm.records, out);
    }
    out.check(warm_identical, "warm record lines identical to the cold ones");
    out.check(warm_cached, "warm plans served entirely from the cache");

    const Response mixed = submit(daemon, mixed_line, probe);
    const ExperimentPlan mixed_plan = service::parseRequest(mixed_line).plan;
    checkRecords(mixed_plan, mixed.records, "mixed plan", out);
    const std::size_t half = plan->size() / 2;
    out.check(doneCount(mixed, "cacheHits") == half,
              "mixed plan: half served from the cache");
    bool overlap_identical = mixed.recordLines.size() == plan->size();
    for (std::size_t i = 0; overlap_identical && i < half; ++i)
        overlap_identical = mixed.recordLines[i] == cold.recordLines[i];
    out.check(overlap_identical, "mixed plan: cached half identical");
    countJobs(mixed.records, out);
    // Throughput over the CPU time of the two plans that simulate.
    std::vector<RunRecord> simulated = cold.records;
    simulated.insert(simulated.end(),
                     mixed.records.begin() +
                         static_cast<std::ptrdiff_t>(
                             std::min(half, mixed.records.size())),
                     mixed.records.end());
    addSimTotals(simulated, cold.cpu + mixed.cpu, e);
    const Verdicts v = fig8Verdicts(cold.records, s);
    e.verdicts = v.held;
    std::cout << "cold plan: " << plan->size() << " jobs, warm plans: "
              << warm_plans << ", verdicts held: " << v.held << " of "
              << v.total << "\n";

    ServiceTimes times;
    times.stats = daemon.cache()->stats();
    times.mixedPlanS = mixed.ms / 1e3;
    if (opts.trace) {
        SpanLog log;
        ResultCache cache(base + "/traced");
        std::vector<RunRecord> traced;
        EngineTelemetry tele;
        tracedServicePlan(cold_line, "cold", cache, log, times, &traced,
                          &tele);
        engineMetrics(traced, tele, out.metrics);
        tracedServicePlan(cold_line, "warm", cache, log, times, nullptr,
                          nullptr);
        checkIdentical(traced, cold.records, "traced service plan", out);
        serviceMetrics(times, out.metrics);
        tracedPass(opts, *plan, dopts.jobs, cold.records, cold.ms / 1e3,
                   probe, log, out);
    } else {
        report(e, probe, out);
    }
    fs::remove_all(base);
    return out;
}

} // namespace perfbench
