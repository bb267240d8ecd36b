// perfbench: runs one workload once and prints its raw measurements
// as one JSON object on the last line of stdout. run.py builds this binary,
// invokes it, checks the outputs and reduces the samples to metrics.
//
//   perfbench --workload cluster-records|cluster-transfers|sim-signed
//             --seed N --seconds S --trace 0|1 --work-dir DIR
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "obs/trace.hpp"

using perfbench::Options;

namespace {

[[noreturn]] void usage(const std::string& problem) {
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n";
    std::exit(2);
}

} // namespace

int main(int argc, char** argv) {
    // Serial validation in this process and, through the inherited
    // environment, in every daemon: parallel CheckQueue runs do not repeat.
    ::setenv("DLT_THREADS", "1", 1);
#ifdef DLT_NODE_BIN_PATH
    ::setenv("DLT_NODE_BIN", DLT_NODE_BIN_PATH, 1);
#endif

    Options opt;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (i + 1 >= argc) usage("missing value for " + arg);
            const std::string value = argv[++i];
            if (arg == "--workload")
                opt.workload = value;
            else if (arg == "--seed")
                opt.seed = std::stoull(value);
            else if (arg == "--seconds")
                opt.seconds = std::stod(value);
            else if (arg == "--trace")
                opt.trace = value == "1";
            else if (arg == "--work-dir")
                opt.work_dir = value;
            else
                usage("unknown option " + arg);
        }
        if (opt.workload.empty() || opt.work_dir.empty())
            usage("--workload and --work-dir are required");
        if (!(opt.seconds > 0)) usage("--seconds must be positive");

        perfbench::set_span_epoch(perfbench::now_s());
        perfbench::fs::remove_all(opt.work_dir);
        perfbench::fs::create_directories(opt.work_dir);
        std::string result;
        if (opt.workload == "sim-signed")
            result = perfbench::run_sim_workload(opt);
        else
            result = perfbench::run_cluster_workload(opt);
        if (opt.trace) {
            const auto path = opt.work_dir / ("trace-" + opt.workload + ".json");
            if (!dlt::obs::Tracer::global().write_chrome_trace(path.string()))
                throw std::runtime_error("cannot write " + path.string());
        }
        for (const auto& entry : perfbench::fs::directory_iterator(opt.work_dir))
            if (entry.is_directory()) perfbench::fs::remove_all(entry.path());
        // The writer and the daemons' snapshots break lines; JSON allows raw
        // newlines only as whitespace, so the result fits on one line.
        std::replace(result.begin(), result.end(), '\n', ' ');
        std::cout << result << "\n" << std::flush;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
