/**
 * @file
 * Shared pieces of the benchmark harness: metric collection, the
 * in-memory span log, the timing wrapper around a TraceSource, the
 * direct-System pass that mirrors ExperimentEngine::runJob with every
 * layer call timed from outside, and the layer replays.
 *
 * Nothing here reaches into the simulator's internals: every number
 * is taken around a call into a public function (System's constructor
 * and run(), TraceSource::next, ResultCache::lookup/store, the
 * protocol and result_io functions, Daemon::handleRequest) or read
 * from a public statistics accessor.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/config.hh"
#include "gpu/kernel.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/system.hh"

namespace perfbench {

using sac::Addr;
using sac::ChipId;
using sac::ClusterId;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);
double msSince(Clock::time_point t0);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory inside the checkout (cache dirs, spans). */
    std::string workDir;
};

/** Named metric values in the order they were set. */
class Metrics
{
  public:
    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    void add(const std::string &name, double value, const std::string &unit);
    const std::vector<Entry> &entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
};

/** Everything one run reports: checks, job counts and metrics. */
struct Outcome
{
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Metrics metrics;

    /** Records a failed output check when @p ok is false. */
    void check(bool ok, const std::string &what);
    bool correct() const { return failures.empty(); }
};

double median(std::vector<double> values);
/** Linear-interpolated quantile, @p q in [0, 1]. */
double quantile(std::vector<double> values, double q);
/** Peak resident set size of this process, MB. */
double peakRssMb();
/** CPUs this process may run on (what `nproc` prints). */
unsigned hostProcs();
/** CPU seconds the calling thread has run. */
double threadCpuSeconds();

// --- host speed --------------------------------------------------------------

/** CPU seconds the whole process has run, on all of its threads. */
double processCpuSeconds();

/**
 * Measures how fast the host runs while a workload is timed, so that
 * timings can be given in reference-host seconds.
 *
 * The benchmark shares a host whose speed drifts by tens of percent
 * over seconds and minutes with no sign inside the machine (other
 * tenants' memory traffic, shared cores, clock changes), so raw times
 * of the same code spread wider between runs than any useful bound.
 * The drift is shared by any memory-bound code, so it is measured
 * where the work runs: the probe is a fixed kernel, a set-associative
 * LRU cache model over a 16 MiB tag array (the kind of work the
 * simulator's hot path does), timed in thread CPU time. Inside
 * measure(), tick() runs a probe on the calling thread when the last
 * one is at least probeGap old; the workloads call it as each job
 * completes, on the thread that ran the job. measure() adds one probe
 * after the work and scales the work's CPU time by referenceProbeMs
 * over the median of its probes. On the reference host the factor is
 * about 1; on a slowed host the work and its probes slow alike. Every
 * probe starts by flushing its table from the caches, so it measures
 * the same work however short the timed region before it was.
 *
 * The probe is the benchmark's own code, so a change to the program
 * moves the timings and never the scale.
 */
class HostProbe
{
  public:
    /**
     * Median probe time on the reference host (a 4-vCPU Xeon VM), ms,
     * over the runs made while this benchmark was written.
     */
    static constexpr double referenceProbeMs = 4.9;

    HostProbe();

    /**
     * Runs @p work, then a probe. Returns the CPU seconds the process
     * spent on @p work, summed over its threads and without the
     * probes' own, in reference-host seconds.
     */
    double measure(const std::function<void()> &work);

    /** Inside measure(): probes if the last probe is probeGap old.
     *  Safe to call from any thread. */
    void tick();

    /** Reference-host seconds per CPU second in the last measure(). */
    double lastFactor() const { return lastFactor_; }
    /** Median probe time so far, ms. */
    double probeMs() const;
    std::size_t probes() const { return ms_.size(); }

  private:
    /** Runs one probe; mutex_ held. */
    void probeLocked();

    std::vector<std::uint64_t> table_;
    std::mutex mutex_;
    bool active_ = false;
    Clock::time_point last_;
    /** Probes of the current measure(), ms, and their CPU seconds
     *  (with the cache flush before each). */
    std::vector<double> region_;
    double overheadS_ = 0.0;
    std::vector<double> ms_;
    std::uint64_t hits_ = 0;
    double lastFactor_ = 1.0;
};

/** Engine sink that calls HostProbe::tick() as each job completes. */
class ProbeSink : public sac::ResultSink
{
  public:
    explicit ProbeSink(HostProbe &probe) : probe_(probe) {}
    void onRecord(const sac::EngineProgress &) override { probe_.tick(); }

  private:
    HostProbe &probe_;
};

// --- spans ---------------------------------------------------------------

/** One timed interval at a layer boundary. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    std::string name;
    std::string tag; //!< job label or plan id
    double startNs = 0.0;
    double durNs = 0.0;
    /** Calls the span covers (>1 for an aggregate span). */
    std::uint64_t count = 1;
};

/**
 * Spans kept in memory, appended from any thread and written out when
 * the run ends. Per-access calls (TraceSource::next) are far too many
 * to keep one span each, so they are folded into one aggregate span
 * per job whose duration is the summed call time and whose count is
 * the number of calls.
 */
class SpanLog
{
  public:
    SpanLog();

    /** Nanoseconds since the log was created. */
    double nowNs() const;

    std::uint64_t add(Span span);
    std::uint64_t nextId() { return next_.fetch_add(1); }

    /** Summed self time (duration minus children) per span name, ms. */
    std::vector<std::pair<std::string, double>> selfMs() const;

    /** Writes every span as one JSON object per line. */
    void write(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    std::atomic<std::uint64_t> next_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** One access as the layer replays consume it. */
struct RecordedAccess
{
    Addr lineAddr = 0;
    std::uint8_t sector = 0;
    bool write = false;
    ChipId chip = 0;
};

/**
 * Forwards every call to the wrapped source, timing next() and
 * counting calls. When @p record is non-null the first @p cap
 * accesses are appended to it.
 */
class TimedTraceSource : public sac::TraceSource
{
  public:
    TimedTraceSource(sac::TraceSource &inner,
                     std::vector<RecordedAccess> *record = nullptr,
                     std::size_t cap = 0);

    sac::MemAccess next(ChipId chip, ClusterId cluster, int warp) override;
    void beginKernel(int kernel_index) override;
    void beginStreamKernel(int stream, int kernel_index) override;

    std::uint64_t calls() const { return calls_; }
    double ns() const { return ns_; }

  private:
    sac::TraceSource &inner_;
    std::vector<RecordedAccess> *record_;
    std::size_t cap_;
    std::uint64_t calls_ = 0;
    double ns_ = 0.0;
};

// --- direct-System pass ----------------------------------------------------

/** One job run directly on a System, with its layer timings. */
struct DirectRun
{
    sac::RunRecord record;
    double buildMs = 0.0;
    double runMs = 0.0;
    double nextNs = 0.0;
    std::uint64_t nextCalls = 0;
    sac::System::FastForwardStats ff;
};

/**
 * Runs every job of @p plan the way ExperimentEngine::runJob does,
 * on @p threads threads in plan order, recording job / system_build /
 * system_run / trace_next spans into @p log. The first
 * @p record_cap accesses of job 0 go to @p recorded.
 */
std::vector<DirectRun> runDirect(const sac::ExperimentPlan &plan,
                                 unsigned threads, SpanLog &log,
                                 std::vector<RecordedAccess> &recorded,
                                 std::size_t record_cap);

/**
 * Constructs (and drops) every job's trace generator and System: the
 * set-up ExperimentEngine::runJob does before System::run.
 */
void buildSystems(const sac::ExperimentPlan &plan);

/** Accesses a completed job must have simulated. */
std::uint64_t expectedAccesses(const sac::ExperimentJob &job);

/** Simulated accesses and cycles of every ok record. */
struct SimTotals
{
    double accesses = 0.0;
    double cycles = 0.0;
};
SimTotals simTotals(const std::vector<sac::RunRecord> &records);

/** Fig. 8 verdicts over a suite sweep (all five organizations). */
struct Verdicts
{
    int held = 0;
    int total = 0;
    /** Harmonic-mean SAC speedup over memory-side; 0 when no row is
     *  complete. */
    double hmeanSacVsMem = 0.0;
};

/**
 * Counts, per benchmark, the group verdict (SP: SM-side beats
 * memory-side; MP: the reverse) and whether SAC followed the faster
 * of the two, plus the four hmean orderings (SAC above memory-side,
 * SM-side, Static and Dynamic). A verdict that needs a failed job is
 * missed; the hmeans run over the benchmarks whose five jobs all
 * completed. Records must carry the seed @p seed to count.
 */
Verdicts fig8Verdicts(const std::vector<sac::RunRecord> &records,
                      std::uint64_t seed);

/** The simulated per-layer counts (must repeat exactly). */
void simulatedCounts(const std::vector<sac::RunRecord> &records,
                     Metrics &out);

/** Direct-pass layer metrics: trace generation, scheduler, builds. */
void directPassMetrics(const std::vector<DirectRun> &runs, Metrics &out);

/**
 * Replays @p accesses through the cache, MSHR, page-table, inter-chip
 * and DRAM layers at the geometry of @p cfg and reports ns per call.
 */
void layerReplay(const std::vector<RecordedAccess> &accesses,
                 const sac::GpuConfig &cfg, Metrics &out);

// --- workloads -------------------------------------------------------------

Outcome paperSweep(const Options &opts);
Outcome sparseIssue(const Options &opts);
Outcome daemonReplay(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
