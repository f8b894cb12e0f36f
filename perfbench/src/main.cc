/**
 * @file
 * Benchmark harness entry point.
 *
 *   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
 *                     --work-dir DIR
 *
 * Prints host metadata and one line per metric, then, as the last
 * line, one JSON object {"correct", "attempted", "failed", "metrics"}.
 * A failed output check prints what failed on stderr, reports
 * "correct": false with no metric and exits 1.
 */

#include <filesystem>
#include <iostream>
#include <string>

#include "common/json.hh"
#include "harness.hh"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_harness: " << why
              << "\nusage: perfbench_harness --workload "
                 "paper-sweep|sparse-issue|daemon-replay --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string val = argv[++i];
        try {
            if (arg == "--workload")
                o.workload = val;
            else if (arg == "--seed")
                o.seed = std::stoull(val);
            else if (arg == "--seconds")
                o.seconds = std::stod(val);
            else if (arg == "--trace")
                o.trace = std::stoi(val) != 0;
            else if (arg == "--work-dir")
                o.workDir = val;
            else
                usage("unknown option " + arg);
        } catch (const std::logic_error &) {
            usage("bad value for " + arg + ": " + val);
        }
    }
    if (o.workDir.empty())
        usage("--work-dir is required");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parse(argc, argv);
    std::filesystem::create_directories(opts.workDir);

    Outcome out;
    try {
        if (opts.workload == "paper-sweep")
            out = paperSweep(opts);
        else if (opts.workload == "sparse-issue")
            out = sparseIssue(opts);
        else if (opts.workload == "daemon-replay")
            out = daemonReplay(opts);
        else
            usage("unknown workload " + opts.workload);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_harness: " << e.what() << "\n";
        return 1;
    }

    std::cout << "host: nproc=" << hostProcs()
              << " compiler=" << PERFBENCH_COMPILER
              << " build=" << PERFBENCH_BUILD_TYPE << "\n";
    std::cout << "workload=" << opts.workload << " seed=" << opts.seed
              << " trace=" << opts.trace << " attempted=" << out.attempted
              << " failed=" << out.failed << "\n";
    for (const auto &f : out.failures)
        std::cerr << "check failed: " << f << "\n";

    // A failed check reports no metric value.
    sac::json::Builder metrics('{');
    const Metrics none;
    for (const auto &m : (out.correct() ? out.metrics : none).entries()) {
        std::cout << "  " << m.name << " = " << sac::json::number(m.value)
                  << " " << m.unit << "\n";
        metrics.field(m.name,
                      sac::json::Builder('{')
                          .field("value", sac::json::number(m.value))
                          .field("unit", sac::json::escape(m.unit))
                          .close('}'));
    }
    std::cout << sac::json::Builder('{')
                     .field("correct", out.correct() ? "true" : "false")
                     .field("attempted", sac::json::number(out.attempted))
                     .field("failed", sac::json::number(out.failed))
                     .field("metrics", metrics.close('}'))
                     .close('}')
              << std::endl;
    return out.correct() ? 0 : 1;
}
