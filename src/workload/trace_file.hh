/**
 * @file
 * Trace recording and replay.
 *
 * The synthetic generators cover the paper's experiments, but a
 * downstream user will eventually want to drive the simulator with
 * real access streams (e.g., post-processed from GPGPU-Sim or
 * binary-instrumentation logs). This module defines a simple
 * line-oriented text format and two adapters:
 *
 *  - TraceRecorder wraps any TraceSource and tees the stream to a
 *    file while passing accesses through unchanged;
 *  - TraceFileSource replays such a file as a TraceSource (streams
 *    loop when a warp exhausts its recorded accesses, so kernel
 *    lengths remain configurable).
 *
 * Format (one access per line, '#' comments, header required):
 *
 *     #sactrace v1
 *     <chip> <cluster> <warp> <lineAddrHex> <sector> <R|W> <gap>
 */

#ifndef SAC_WORKLOAD_TRACE_FILE_HH
#define SAC_WORKLOAD_TRACE_FILE_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "gpu/kernel.hh"

namespace sac {

/** Tees another source's stream into a trace file. */
class TraceRecorder : public TraceSource
{
  public:
    /**
     * @param inner the source being recorded
     * @param os output stream (kept open for the recorder's lifetime)
     */
    TraceRecorder(TraceSource &inner, std::ostream &os);

    MemAccess next(ChipId chip, ClusterId cluster, int warp) override;
    void beginKernel(int kernel_index) override;

    std::uint64_t recorded() const { return count; }

  private:
    TraceSource &inner_;
    std::ostream &os_;
    std::uint64_t count = 0;
};

/** Replays a recorded trace. */
class TraceFileSource : public TraceSource
{
  public:
    /**
     * Parses @p is fully. Malformed input throws ValidationError
     * whose context is "<name>:<line>", so callers (and the sweep
     * engine's per-job isolation) can report exactly which line of
     * which file was rejected; @p name defaults to "<trace>" for
     * in-memory streams.
     */
    explicit TraceFileSource(std::istream &is,
                             std::string name = "<trace>");

    /** Convenience: opens and parses @p path. */
    static TraceFileSource fromFile(const std::string &path);

    MemAccess next(ChipId chip, ClusterId cluster, int warp) override;
    void beginKernel(int kernel_index) override;

    /** Total accesses parsed. */
    std::uint64_t size() const { return total; }
    /** Distinct (chip, cluster, warp) streams in the file. */
    std::size_t streams() const { return perStream.size(); }

    /**
     * Throws ValidationError ("<name>:<line>") for the first access
     * whose sector does not fit a line of @p sectorsPerLine sectors.
     * Call before a run: the caches assert on such a sector.
     */
    void checkSectors(unsigned sectorsPerLine) const;

  private:
    struct Stream
    {
        std::vector<MemAccess> accesses;
        std::size_t cursor = 0;
    };

    static std::uint64_t key(ChipId chip, ClusterId cluster, int warp)
    {
        return (static_cast<std::uint64_t>(chip) << 40) ^
               (static_cast<std::uint64_t>(cluster) << 20) ^
               static_cast<std::uint64_t>(warp);
    }

    std::string name_;
    std::unordered_map<std::uint64_t, Stream> perStream;
    std::uint64_t total = 0;
    /** Per sector value, the first line using it (0: none does). */
    std::array<std::size_t, 256> sectorLine_{};
};

} // namespace sac

#endif // SAC_WORKLOAD_TRACE_FILE_HH
