#include "sim/plan.hh"

#include <charconv>
#include <string_view>
#include <utility>

#include "common/json.hh"

namespace sac {

// v2: bandwidth credit became exact micro-byte arithmetic, which moves
// results for bandwidths that are not exact binary fractions.
const char *const planSchemaVersion = "sac.plan.v2";

double
dataScale(const GpuConfig &cfg)
{
    const double paper_llc = 16.0 * 1024.0 * 1024.0;
    return paper_llc / static_cast<double>(cfg.llcBytesTotal());
}

std::vector<KernelDescriptor>
kernelsFor(const WorkloadProfile &profile)
{
    std::vector<KernelDescriptor> kernels;
    kernels.reserve(static_cast<std::size_t>(profile.numKernels));
    for (int k = 0; k < profile.numKernels; ++k) {
        KernelDescriptor d;
        d.index = k;
        d.name = profile.name + "-k" + std::to_string(k);
        d.accessesPerWarp = profile.phase(k).accessesPerWarp;
        kernels.push_back(d);
    }
    return kernels;
}

namespace {

/**
 * Canonical-key serializer: "name=value;" pairs in a frozen order.
 * Doubles print as %.17g so the text round-trips to the exact bits —
 * equal keys mean bit-equal inputs, not merely close ones. Every
 * field appends straight into one buffer, its name after @c prefix
 * (e.g. "scenario.stream0.phase1.").
 */
class KeyWriter
{
  public:
    KeyWriter() { out_.reserve(2048); }

    void field(const char *name, std::string_view v)
    {
        head(name);
        out_ += v;
        out_ += ';';
    }
    void field(const char *name, std::uint64_t v)
    {
        head(name);
        json::appendNumber(out_, v);
        out_ += ';';
    }
    void field(const char *name, unsigned v)
    {
        field(name, static_cast<std::uint64_t>(v));
    }
    void field(const char *name, int v)
    {
        head(name);
        char buf[16];
        out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
        out_ += ';';
    }
    void field(const char *name, double v)
    {
        head(name);
        json::appendDigits17(out_, v);
        out_ += ';';
    }

    std::string prefix;

    std::string take() { return std::move(out_); }

  private:
    void head(const char *name)
    {
        out_ += prefix;
        out_ += name;
        out_ += '=';
    }

    std::string out_;
};

void
writeConfig(KeyWriter &w, const GpuConfig &cfg)
{
    w.field("numChips", cfg.numChips);
    w.field("clustersPerChip", cfg.clustersPerChip);
    w.field("warpsPerCluster", cfg.warpsPerCluster);
    w.field("slicesPerChip", cfg.slicesPerChip);
    w.field("channelsPerChip", cfg.channelsPerChip);
    w.field("lineBytes", cfg.lineBytes);
    w.field("sectorsPerLine", cfg.sectorsPerLine);
    w.field("llcBytesPerChip", cfg.llcBytesPerChip);
    w.field("llcWays", cfg.llcWays);
    w.field("l1BytesPerCluster", cfg.l1BytesPerCluster);
    w.field("l1Ways", cfg.l1Ways);
    w.field("pageBytes", cfg.pageBytes);
    w.field("xbarPortBw", cfg.xbarPortBw);
    w.field("sliceBw", cfg.sliceBw);
    w.field("dramChannelBw", cfg.dramChannelBw);
    w.field("interChipBw", cfg.interChipBw);
    w.field("l1Latency", cfg.l1Latency);
    w.field("xbarLatency", cfg.xbarLatency);
    w.field("llcLatency", cfg.llcLatency);
    w.field("dramLatency", cfg.dramLatency);
    w.field("interChipLatency", cfg.interChipLatency);
    w.field("requestBytes", cfg.requestBytes);
    w.field("coherence", static_cast<int>(cfg.coherence));
    w.field("clusterIssueWidth", cfg.clusterIssueWidth);
    w.field("warpMaxOutstanding", cfg.warpMaxOutstanding);
    w.field("clusterMshrs", cfg.clusterMshrs);
    w.field("sliceMshrs", cfg.sliceMshrs);
    w.field("memQueueDepth", cfg.memQueueDepth);
    w.field("occupancyInterval", cfg.occupancyInterval);
    w.field("sac.profileWindow", cfg.sac.profileWindow);
    w.field("sac.profileMinRequests", cfg.sac.profileMinRequests);
    w.field("sac.theta", cfg.sac.theta);
    w.field("sac.crdSets", cfg.sac.crdSets);
    w.field("sac.crdWays", cfg.sac.crdWays);
    w.field("sac.drainLatency", cfg.sac.drainLatency);
    w.field("sac.reprofileInterval", cfg.sac.reprofileInterval);
    w.field("dyn.epoch", cfg.dynamicLlc.epoch);
    w.field("dyn.step", cfg.dynamicLlc.step);
    w.field("dyn.minWays", cfg.dynamicLlc.minWays);
    // cfg.seed is deliberately absent: runJob overwrites it with the
    // job seed, which the key already carries.
}

/** Writes @p p's fields, each name under the writer's current
 *  prefix; leaves the prefix as it found it. */
void
writeProfile(KeyWriter &w, const WorkloadProfile &p)
{
    w.field("name", p.name);
    w.field("smSidePreferred", p.smSidePreferred ? 1 : 0);
    w.field("ctas", p.ctas);
    w.field("footprintMB", p.footprintMB);
    w.field("trueSharedMB", p.trueSharedMB);
    w.field("falseSharedMB", p.falseSharedMB);
    w.field("numKernels", p.numKernels);
    w.field("numPhases", static_cast<std::uint64_t>(p.phases.size()));
    const std::size_t outer = w.prefix.size();
    for (std::size_t i = 0; i < p.phases.size(); ++i) {
        const KernelPhase &ph = p.phases[i];
        w.prefix.resize(outer);
        w.prefix += "phase";
        w.prefix += std::to_string(i);
        w.prefix += '.';
        w.field("trueFrac", ph.trueFrac);
        w.field("falseFrac", ph.falseFrac);
        w.field("writeFrac", ph.writeFrac);
        w.field("trueHotFrac", ph.trueHotFrac);
        w.field("trueHotMB", ph.trueHotMB);
        w.field("falseHotFrac", ph.falseHotFrac);
        w.field("falseHotMB", ph.falseHotMB);
        w.field("privHotFrac", ph.privHotFrac);
        w.field("privHotMB", ph.privHotMB);
        w.field("rereadFrac", ph.rereadFrac);
        w.field("computeGap", ph.computeGap);
        w.field("accessesPerWarp", ph.accessesPerWarp);
        w.field("trueRegionFrac", ph.trueRegionFrac);
    }
    w.prefix.resize(outer);
}

constexpr std::uint64_t fnvOffset = 14695981039346656037ull;
constexpr std::uint64_t fnvPrime = 1099511628211ull;

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t len)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= fnvPrime;
    }
    return h;
}

} // namespace

std::string
canonicalJobKey(const ExperimentJob &job)
{
    KeyWriter w;
    w.field("schema", planSchemaVersion);
    w.field("org", toString(job.org));
    w.field("seed", job.seed);
    writeConfig(w, job.config);
    writeProfile(w, job.profile);
    // Scenario section: appended only when the job actually has one,
    // so every pre-scenario key (and cached result) is byte-unchanged.
    if (job.hasScenario()) {
        w.field("scenario.numStreams",
                static_cast<std::uint64_t>(job.scenario.streams.size()));
        for (std::size_t i = 0; i < job.scenario.streams.size(); ++i) {
            const StreamSpec &s = job.scenario.streams[i];
            w.prefix = "scenario.stream" + std::to_string(i) + ".";
            w.field("launchCycle",
                    static_cast<std::uint64_t>(s.launchCycle));
            w.field("clusterShare", s.clusterShare);
            w.field("numKernels", s.numKernels);
            writeProfile(w, s.profile);
        }
    }
    return w.take();
}

std::uint64_t
contentHash(const ExperimentJob &job)
{
    return contentHashOfKey(canonicalJobKey(job));
}

std::uint64_t
contentHashOfKey(std::string_view key)
{
    return fnv1a(fnvOffset, key.data(), key.size());
}

const std::vector<OrgKind> &
ExperimentPlan::allOrganizations()
{
    static const std::vector<OrgKind> orgs = {
        OrgKind::MemorySide, OrgKind::SmSide, OrgKind::StaticLlc,
        OrgKind::DynamicLlc, OrgKind::Sac};
    return orgs;
}

ExperimentPlan &
ExperimentPlan::add(ExperimentJob job)
{
    if (job.label.empty())
        job.label = job.benchmarkName() + "/" + toString(job.org);
    if (!job.telemetry.enabled())
        job.telemetry = telemetryDefault_;
    job.fastForward = job.fastForward && fastForwardDefault_;
    if (!job.limits.any())
        job.limits = limitsDefault_;
    if (!job.fault.enabled()) {
        if (const FaultSpec *spec = faults_.find(job.label))
            job.fault = *spec;
    }
    jobs_.push_back(std::move(job));
    return *this;
}

ExperimentPlan &
ExperimentPlan::add(const WorkloadProfile &profile, const GpuConfig &cfg,
                    OrgKind org, std::uint64_t seed, std::string label)
{
    ExperimentJob job;
    job.profile = profile;
    job.config = cfg;
    job.org = org;
    job.seed = seed;
    job.label = std::move(label);
    return add(std::move(job));
}

ExperimentPlan &
ExperimentPlan::addOrgSweep(const WorkloadProfile &profile,
                            const GpuConfig &cfg,
                            const std::vector<OrgKind> &orgs,
                            std::uint64_t seed)
{
    for (const auto org : orgs)
        add(profile, cfg, org, seed);
    return *this;
}

ExperimentPlan &
ExperimentPlan::enableTelemetry(const telemetry::Options &opts)
{
    telemetryDefault_ = opts;
    for (auto &job : jobs_) {
        if (!job.telemetry.enabled())
            job.telemetry = opts;
    }
    return *this;
}

ExperimentPlan &
ExperimentPlan::setFastForward(bool enabled)
{
    fastForwardDefault_ = enabled;
    for (auto &job : jobs_)
        job.fastForward = enabled;
    return *this;
}

ExperimentPlan &
ExperimentPlan::setLimits(const RunLimits &limits)
{
    limitsDefault_ = limits;
    for (auto &job : jobs_) {
        if (!job.limits.any())
            job.limits = limits;
    }
    return *this;
}

ExperimentPlan &
ExperimentPlan::setFaultPlan(FaultPlan faults)
{
    faults_ = std::move(faults);
    for (auto &job : jobs_) {
        if (const FaultSpec *spec = faults_.find(job.label))
            job.fault = *spec;
    }
    return *this;
}

ExperimentPlan &
ExperimentPlan::setRetry(const RetryPolicy &retry)
{
    retry_ = retry;
    return *this;
}

ExperimentPlan &
ExperimentPlan::setCheckpoint(std::string path)
{
    checkpoint_ = std::move(path);
    return *this;
}

std::uint64_t
ExperimentPlan::contentHash() const
{
    // Chain per-job hashes in plan order, seeded with the schema
    // version so a key-layout bump changes every plan hash too.
    std::uint64_t h = fnv1a(fnvOffset, planSchemaVersion,
                            std::string(planSchemaVersion).size());
    for (const auto &job : jobs_) {
        const std::uint64_t jh = sac::contentHash(job);
        h = fnv1a(h, &jh, sizeof(jh));
    }
    return h;
}

} // namespace sac
