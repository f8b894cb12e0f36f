/** @file Tests for trace recording and replay. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/config.hh"
#include "common/log.hh"
#include "workload/trace_file.hh"
#include "workload/tracegen.hh"

namespace sac {
namespace {

GpuConfig
cfg()
{
    GpuConfig c = GpuConfig::scaled(8);
    c.warpsPerCluster = 2;
    return c;
}

WorkloadProfile
profile()
{
    WorkloadProfile p;
    p.name = "trace-test";
    p.ctas = 16;
    p.footprintMB = 2;
    p.trueSharedMB = 0.5;
    p.falseSharedMB = 0.5;
    p.phases[0].writeFrac = 0.3;
    return p;
}

TEST(TraceFile, RecordReplayRoundTrip)
{
    auto c = cfg();
    SharingTraceGen gen(profile(), c, 1);
    std::ostringstream os;
    TraceRecorder rec(gen, os);
    std::vector<MemAccess> original;
    for (int i = 0; i < 200; ++i)
        original.push_back(rec.next(i % 4, i % 4, i % 2));
    EXPECT_EQ(rec.recorded(), 200u);

    std::istringstream is(os.str());
    TraceFileSource replay(is);
    EXPECT_EQ(replay.size(), 200u);
    for (int i = 0; i < 200; ++i) {
        const auto acc = replay.next(i % 4, i % 4, i % 2);
        EXPECT_EQ(acc.lineAddr, original[static_cast<std::size_t>(i)]
                                    .lineAddr);
        EXPECT_EQ(acc.type, original[static_cast<std::size_t>(i)].type);
        EXPECT_EQ(acc.gap, original[static_cast<std::size_t>(i)].gap);
    }
}

TEST(TraceFile, StreamsAreIndependentPerWarp)
{
    std::istringstream is(
        "#sactrace v1\n"
        "0 0 0 1000 0 R 5\n"
        "0 0 1 2000 0 W 7\n"
        "0 0 0 3000 0 R 5\n");
    TraceFileSource src(is);
    EXPECT_EQ(src.streams(), 2u);
    EXPECT_EQ(src.next(0, 0, 0).lineAddr, 0x1000u);
    EXPECT_EQ(src.next(0, 0, 1).lineAddr, 0x2000u);
    EXPECT_EQ(src.next(0, 0, 1).type, AccessType::Write); // wrapped
    EXPECT_EQ(src.next(0, 0, 0).lineAddr, 0x3000u);
    EXPECT_EQ(src.next(0, 0, 0).lineAddr, 0x1000u); // wrapped
}

TEST(TraceFile, CommentsAndKernelMarkersAreSkipped)
{
    std::istringstream is(
        "#sactrace v1\n"
        "# a comment\n"
        "#kernel 0\n"
        "1 2 3 abc0 0 R 9\n");
    TraceFileSource src(is);
    EXPECT_EQ(src.size(), 1u);
    const auto acc = src.next(1, 2, 3);
    EXPECT_EQ(acc.lineAddr, 0xabc0u);
    EXPECT_EQ(acc.gap, 9u);
}

TEST(TraceFile, MissingHeaderIsFatal)
{
    std::istringstream is("0 0 0 1000 0 R 5\n");
    EXPECT_THROW(TraceFileSource src(is), FatalError);
}

TEST(TraceFile, MalformedLineIsFatal)
{
    std::istringstream is("#sactrace v1\n0 0 zebra\n");
    EXPECT_THROW(TraceFileSource src(is), FatalError);
}

TEST(TraceFile, BadAccessTypeIsFatal)
{
    std::istringstream is("#sactrace v1\n0 0 0 1000 0 X 5\n");
    EXPECT_THROW(TraceFileSource src(is), FatalError);
}

TEST(TraceFile, EmptyTraceIsFatal)
{
    std::istringstream is("#sactrace v1\n");
    EXPECT_THROW(TraceFileSource src(is), FatalError);
}

TEST(TraceFile, UnknownStreamIsFatal)
{
    std::istringstream is("#sactrace v1\n0 0 0 1000 0 R 5\n");
    TraceFileSource src(is);
    EXPECT_THROW(src.next(3, 0, 0), FatalError);
}

TEST(TraceFile, MissingFileIsFatal)
{
    EXPECT_THROW(TraceFileSource::fromFile("/nonexistent/trace.txt"),
                 FatalError);
}

TEST(TraceFile, RejectionsAreRecoverableAndLocated)
{
    // Every rejection is a ValidationError (recoverable: the sweep
    // engine marks the job failed and carries on) whose context names
    // the source and line of the offending input.
    try {
        std::istringstream is("#sactrace v1\n0 0 zebra\n");
        TraceFileSource src(is, "bad.trace");
        FAIL() << "expected ValidationError";
    } catch (const ValidationError &e) {
        EXPECT_EQ(e.context(), "bad.trace:2");
        EXPECT_NE(std::string(e.what()).find("malformed trace line"),
                  std::string::npos);
    }

    try {
        std::istringstream is("0 0 0 1000 0 R 5\n");
        TraceFileSource src(is, "headerless.trace");
        FAIL() << "expected ValidationError";
    } catch (const ValidationError &e) {
        EXPECT_EQ(e.context(), "headerless.trace:1");
    }

    // Negative ids, out-of-range gaps and empty traces: same type.
    {
        std::istringstream is("#sactrace v1\n0 -1 0 1000 0 R 5\n");
        EXPECT_THROW(TraceFileSource src(is), ValidationError);
    }
    {
        std::istringstream is("#sactrace v1\n0 0 0 1000 0 R 99999\n");
        EXPECT_THROW(TraceFileSource src(is), ValidationError);
    }
    {
        std::istringstream is("#sactrace v1\n");
        EXPECT_THROW(TraceFileSource src(is), ValidationError);
    }

    // A truncated final line (no trailing fields) is rejected, not
    // silently half-read — the SIGKILL-mid-write artifact.
    {
        std::istringstream is("#sactrace v1\n0 0 0 1000 0 R 5\n0 0 0 20");
        EXPECT_THROW(TraceFileSource src(is), ValidationError);
    }
}

TEST(TraceFile, SectorsAboveAByteAreRejectedAtParse)
{
    // 257 used to wrap to sector 1 and replay silently.
    for (const char *line : {"0 0 0 1000 256 R 1", "0 0 0 1000 257 R 1",
                             "0 0 0 1000 -1 R 1"}) {
        try {
            std::istringstream is(std::string("#sactrace v1\n") + line);
            TraceFileSource src(is, "wide.trace");
            FAIL() << "expected ValidationError for '" << line << "'";
        } catch (const ValidationError &e) {
            EXPECT_EQ(e.context(), "wide.trace:2") << line;
        }
    }
    std::istringstream is("#sactrace v1\n0 0 0 1000 255 R 1\n");
    EXPECT_EQ(TraceFileSource(is).size(), 1u);
}

TEST(TraceFile, SectorsBeyondTheLineAreRejectedBeforeTheRun)
{
    std::istringstream is("#sactrace v1\n"
                          "0 0 0 1000 0 R 1\n"
                          "0 0 1 1000 3 R 1\n"
                          "0 0 0 2000 5 R 1\n");
    const TraceFileSource src(is, "sectored.trace");
    EXPECT_NO_THROW(src.checkSectors(8));
    try {
        src.checkSectors(1); // sector 3 on line 3 is the first misfit
        FAIL() << "expected ValidationError";
    } catch (const ValidationError &e) {
        EXPECT_EQ(e.context(), "sectored.trace:3");
        EXPECT_NE(std::string(e.what()).find("sector 3"),
                  std::string::npos);
    }
    try {
        src.checkSectors(4);
        FAIL() << "expected ValidationError";
    } catch (const ValidationError &e) {
        EXPECT_EQ(e.context(), "sectored.trace:4");
    }
}

} // namespace
} // namespace sac
