/**
 * @file
 * End-to-end trace replay: record a synthetic run's access stream,
 * replay it through the simulator, and check the replayed run is
 * behaviourally identical (the adopter workflow for real traces).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/system.hh"
#include "workload/trace_file.hh"
#include "workload/tracegen.hh"

namespace sac {
namespace {

GpuConfig
cfg()
{
    GpuConfig c = GpuConfig::scaled(8);
    c.warpsPerCluster = 4;
    return c;
}

WorkloadProfile
profile()
{
    WorkloadProfile p;
    p.name = "replay";
    p.ctas = 32;
    p.footprintMB = 2;
    p.trueSharedMB = 0.5;
    p.falseSharedMB = 0.5;
    p.phases[0].accessesPerWarp = 48;
    p.numKernels = 1;
    return p;
}

TEST(TraceReplay, RecordedRunReplaysIdentically)
{
    const auto c = cfg();
    const auto p = profile();
    const std::vector<KernelDescriptor> ks{{0, "k", 48}};

    // Run once while recording.
    std::ostringstream trace_text;
    RunResult live;
    {
        SharingTraceGen gen(p, c, 1);
        TraceRecorder rec(gen, trace_text);
        System sys(c, OrgKind::Sac, rec);
        live = sys.run(ks);
    }
    // Replay the recorded trace.
    RunResult replayed;
    {
        std::istringstream is(trace_text.str());
        TraceFileSource src(is);
        System sys(c, OrgKind::Sac, src);
        replayed = sys.run(ks);
    }
    EXPECT_EQ(live.cycles, replayed.cycles);
    EXPECT_EQ(live.accesses, replayed.accesses);
    EXPECT_EQ(live.llcRequests, replayed.llcRequests);
    EXPECT_EQ(live.llcHits, replayed.llcHits);
    EXPECT_EQ(live.icnBytes, replayed.icnBytes);
    ASSERT_EQ(live.sacDecisions.size(), replayed.sacDecisions.size());
    for (std::size_t i = 0; i < live.sacDecisions.size(); ++i)
        EXPECT_EQ(live.sacDecisions[i].chosen,
                  replayed.sacDecisions[i].chosen);
}

TEST(TraceReplay, ReplayUnderDifferentOrganizationWorks)
{
    const auto c = cfg();
    const auto p = profile();
    const std::vector<KernelDescriptor> ks{{0, "k", 48}};

    std::ostringstream trace_text;
    {
        SharingTraceGen gen(p, c, 1);
        TraceRecorder rec(gen, trace_text);
        System sys(c, OrgKind::MemorySide, rec);
        sys.run(ks);
    }
    // The same trace drives an SM-side system (cross-organization
    // studies on a fixed trace).
    std::istringstream is(trace_text.str());
    TraceFileSource src(is);
    System sys(c, OrgKind::SmSide, src);
    const auto r = sys.run(ks);
    EXPECT_GT(r.accesses, 0u);
    EXPECT_GT(r.llcRemoteFraction, 0.0);
}

TEST(TraceReplay, ByteAddressesWithinALineReplayAsTheLine)
{
    // A trace may name any byte of a line; the caches and MSHRs must
    // treat it as the line itself.
    const auto c = cfg();
    const auto p = profile();
    const std::vector<KernelDescriptor> ks{{0, "k", 48}};
    std::ostringstream trace_text;
    {
        SharingTraceGen gen(p, c, 1);
        TraceRecorder rec(gen, trace_text);
        System sys(c, OrgKind::Sac, rec);
        sys.run(ks);
    }
    // Move every address to some byte inside its line.
    std::istringstream in(trace_text.str());
    std::ostringstream shifted;
    std::string line;
    unsigned n = 0;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string chip, cluster, warp, rest;
        Addr addr = 0;
        if (line.empty() || line[0] == '#' ||
            !(ls >> chip >> cluster >> warp >> std::hex >> addr)) {
            shifted << line << '\n';
            continue;
        }
        std::getline(ls, rest);
        addr += (++n * 37) % c.lineBytes;
        shifted << chip << ' ' << cluster << ' ' << warp << ' ' << std::hex
                << addr << std::dec << rest << '\n';
    }
    ASSERT_GT(n, 0u);

    const auto replay = [&](const std::string &text) {
        std::istringstream is(text);
        TraceFileSource src(is);
        System sys(c, OrgKind::Sac, src);
        return sys.run(ks);
    };
    const RunResult aligned = replay(trace_text.str());
    const RunResult unaligned = replay(shifted.str());
    EXPECT_EQ(aligned.cycles, unaligned.cycles);
    EXPECT_EQ(aligned.llcRequests, unaligned.llcRequests);
    EXPECT_EQ(aligned.llcHits, unaligned.llcHits);
    EXPECT_EQ(aligned.icnBytes, unaligned.icnBytes);
    EXPECT_EQ(aligned.avgLoadLatency, unaligned.avgLoadLatency);
}

/** Seed sweep: invariants hold for arbitrary seeds. */
class SeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedSweep, InvariantsHoldAcrossSeeds)
{
    const auto c = cfg();
    auto p = profile();
    SharingTraceGen gen(p, c, GetParam());
    System sys(c, OrgKind::Sac, gen);
    const auto r = sys.run({{0, "k", 48}});
    const auto expected =
        static_cast<std::uint64_t>(c.totalClusters()) *
        static_cast<std::uint64_t>(c.warpsPerCluster) * 48;
    EXPECT_EQ(r.accesses, expected);
    EXPECT_LE(r.llcHits, r.llcRequests);
    EXPECT_GE(r.effLlcBw, 0.0);
    EXPECT_LE(r.llcRemoteFraction, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 7u, 42u, 1234567u,
                                           0xdeadbeefu));

} // namespace
} // namespace sac
