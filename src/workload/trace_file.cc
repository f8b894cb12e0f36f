#include "workload/trace_file.hh"

#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/log.hh"

namespace sac {

TraceRecorder::TraceRecorder(TraceSource &inner, std::ostream &os)
    : inner_(inner), os_(os)
{
    os_ << "#sactrace v1\n";
}

MemAccess
TraceRecorder::next(ChipId chip, ClusterId cluster, int warp)
{
    const MemAccess acc = inner_.next(chip, cluster, warp);
    os_ << chip << ' ' << cluster << ' ' << warp << ' ' << std::hex
        << acc.lineAddr << std::dec << ' '
        << static_cast<unsigned>(acc.sector) << ' '
        << (acc.type == AccessType::Write ? 'W' : 'R') << ' ' << acc.gap
        << '\n';
    ++count;
    return acc;
}

void
TraceRecorder::beginKernel(int kernel_index)
{
    os_ << "#kernel " << kernel_index << '\n';
    inner_.beginKernel(kernel_index);
}

TraceFileSource::TraceFileSource(std::istream &is, std::string name)
    : name_(std::move(name))
{
    // Every rejection names the source and line ("file.trace:17") so
    // a failed sweep job's diagnostic pinpoints the bad input, and
    // the error is recoverable — nothing partial escapes a throwing
    // constructor.
    const auto at = [this](std::size_t line_no) {
        return name_ + ":" + std::to_string(line_no);
    };
    std::string line;
    bool header_seen = false;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            if (!header_seen) {
                if (line.rfind("#sactrace v1", 0) != 0) {
                    invalid(at(line_no),
                            "trace file missing '#sactrace v1' header");
                }
                header_seen = true;
            }
            continue;
        }
        if (!header_seen) {
            invalid(at(line_no),
                    "trace data before the '#sactrace v1' header");
        }
        std::istringstream ls(line);
        int chip = 0;
        int cluster = 0;
        int warp = 0;
        Addr addr = 0;
        unsigned sector = 0;
        char type = 'R';
        unsigned gap = 0;
        if (!(ls >> chip >> cluster >> warp >> std::hex >> addr >>
              std::dec >> sector >> type >> gap)) {
            invalid(at(line_no), "malformed trace line: '", line, "'");
        }
        if (chip < 0 || cluster < 0 || warp < 0)
            invalid(at(line_no), "chip/cluster/warp must be non-negative");
        if (type != 'R' && type != 'W')
            invalid(at(line_no), "access type must be R or W, got '",
                    type, "'");
        if (gap > std::numeric_limits<std::uint16_t>::max())
            invalid(at(line_no), "gap ", gap, " out of range");
        if (sector >= sectorLine_.size())
            invalid(at(line_no), "sector ", sector,
                    " out of range (at most 255)");
        if (sectorLine_[sector] == 0)
            sectorLine_[sector] = line_no;
        MemAccess acc;
        acc.lineAddr = addr;
        acc.sector = static_cast<std::uint8_t>(sector);
        acc.type = type == 'W' ? AccessType::Write : AccessType::Read;
        acc.gap = static_cast<std::uint16_t>(gap);
        perStream[key(chip, cluster, warp)].accesses.push_back(acc);
        ++total;
    }
    if (total == 0)
        invalid(name_, "trace file contains no accesses");
}

void
TraceFileSource::checkSectors(unsigned sectorsPerLine) const
{
    std::size_t first = 0;
    unsigned bad = 0;
    for (unsigned s = sectorsPerLine; s < sectorLine_.size(); ++s) {
        if (sectorLine_[s] != 0 && (first == 0 || sectorLine_[s] < first)) {
            first = sectorLine_[s];
            bad = s;
        }
    }
    if (first != 0) {
        invalid(name_ + ":" + std::to_string(first), "sector ", bad,
                " does not fit a line of ", sectorsPerLine,
                " sector(s)");
    }
}

TraceFileSource
TraceFileSource::fromFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        invalid(path, "cannot open trace file");
    return TraceFileSource(is, path);
}

MemAccess
TraceFileSource::next(ChipId chip, ClusterId cluster, int warp)
{
    auto it = perStream.find(key(chip, cluster, warp));
    if (it == perStream.end()) {
        invalid(name_, "trace has no stream for chip ", chip, " cluster ",
                cluster, " warp ", warp,
                " — run with a topology matching the recording");
    }
    Stream &s = it->second;
    const MemAccess acc = s.accesses[s.cursor];
    s.cursor = (s.cursor + 1) % s.accesses.size();
    return acc;
}

void
TraceFileSource::beginKernel(int kernel_index)
{
    (void)kernel_index;
    // Replay continues where it left off; kernels are boundaries in
    // the driving System, not in the recorded stream.
}

} // namespace sac
