/**
 * @file
 * smash_e2ebench — end-to-end benchmark of the SMASH serving stack.
 *
 *   smash_e2ebench --workload rpc_small|rpc_large|rpc_mutate
 *                  --seed N --seconds S --trace 0|1 [--self-test]
 *
 * --trace 0 runs the workload untraced and prints the end-to-end
 * metrics; --trace 1 runs it again with spans around every call the
 * benchmark makes, then times each layer directly on the same
 * inputs, prints the per-layer metrics, and writes the spans to
 * .bench_out/trace_<workload>_<seed>.json. --self-test plants faults
 * (for each kind of read a wrong oracle value and a wrong response
 * value, and a wrong post-write oracle state) and exits 0 only if
 * exactly the planted operations are reported failed. The last line of standard output
 * is one JSON object: correct, attempted, failed, metrics.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common.hh"
#include "common/cpu_features.hh"
#include "e2e.hh"
#include "inputs.hh"
#include "probes.hh"

namespace
{

using namespace bench;

void
printJson(const Report& r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", r.metrics[i].name.c_str(),
                    r.metrics[i].value, r.metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

int
usage(const char* msg)
{
    std::cerr << "smash_e2ebench: " << msg
              << "\nusage: smash_e2ebench --workload "
                 "rpc_small|rpc_large|rpc_mutate --seed N --seconds S "
                 "--trace 0|1 [--self-test]\n";
    return 2;
}

int
run(int argc, char** argv)
{
    Workload workload = Workload::kRpcSmall;
    bool have_workload = false;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value) {
            if (!parseWorkload(argv[++i], workload))
                return usage("unknown workload");
            have_workload = true;
        } else if (a == "--seed" && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has_value) {
            seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && has_value) {
            trace = std::atoi(argv[++i]);
        } else if (a == "--self-test") {
            self_test = true;
        } else {
            return usage(("bad argument: " + a).c_str());
        }
    }
    if (!have_workload)
        return usage("--workload is required");
    if (seconds <= 0 || (trace != 0 && trace != 1))
        return usage("--seconds must be positive, --trace 0 or 1");

    Tracer tracer;
    if (trace)
        tracer.enable();
    const Inputs in = makeInputs(workload, seed);
    Harness h(in, tracer);
    Report report;
    const double setup_s = h.setup();
    std::cerr << toString(workload) << " seed " << seed << ", ISA "
              << smash::simd::toString(smash::simd::activeIsaLevel()) << ", formats:";
    for (const MatrixInput& mi : in.m) {
        const auto info = h.registry().info(mi.name);
        std::cerr << " " << mi.name << "=" << smash::eng::toString(info.chosen)
                  << " (nnz " << info.nnz << ")";
    }
    std::cerr << "\n";

    if (self_test) {
        Report clean;
        h.runOnce({}, clean);
        const std::vector<Fault> faults = h.selfTestFaults();
        h.runOnce(faults, report);
        std::vector<StepId> planted, failed = report.failedSteps;
        for (const Fault& f : faults)
            planted.push_back(f.at);
        std::sort(planted.begin(), planted.end());
        std::sort(failed.begin(), failed.end());
        const bool pass = clean.failed == 0 && clean.correct &&
            failed == planted && !report.correct;
        std::cerr << "self-test: clean pass " << clean.failed << "/"
                  << clean.attempted << " failed, faulted pass "
                  << report.failed << "/" << report.attempted
                  << " failed (want exactly the " << planted.size()
                  << " planted): " << (pass ? "PASS" : "FAIL") << "\n";
        printJson(report);
        return pass ? 0 : 1;
    }

    h.run(seconds, report);
    if (!trace) {
        report.metrics.insert(report.metrics.begin(),
                              Metric{"setup_s", setup_s, "s"});
        report.add("peak_rss_mb", peakRssMb(), "MB");
        printJson(report);
        return report.correct ? 0 : 1;
    }

    // Traced run: the end-to-end figures go to stderr (traced minus
    // untraced is the tracing overhead), the per-layer ones to stdout.
    std::cerr << "traced end-to-end:";
    for (const Metric& m : report.metrics)
        std::cerr << " " << m.name << "=" << m.value;
    std::cerr << "\n";
    Report layers;
    layers.attempted = report.attempted;
    layers.failed = report.failed;
    layers.correct = report.correct;
    layers.add("e2e.write_p50_us", h.writeP50Us(), "us");
    runNetProbes(h, tracer, layers);
    h.stop();
    runSessionProbes(h, tracer, layers);
    runLayerProbes(h, tracer, layers);
    const std::string path = ".bench_out/trace_" +
        std::string(toString(workload)) + "_" + std::to_string(seed) + ".json";
    if (!tracer.write(path))
        std::cerr << "could not write " << path << "\n";
    printJson(layers);
    return layers.correct ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "smash_e2ebench: " << e.what() << "\n";
        return 1;
    }
}
