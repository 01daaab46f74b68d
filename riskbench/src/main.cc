/**
 * @file
 * riskbench: runs one workload of the archrisk++ benchmark and prints
 * its metrics as the last line of standard output.
 *
 *   riskbench --workload spec_1m|sweep_limited_data|serve_whatif
 *             --seed N --seconds S --trace 0|1
 *             --root REPO --bin-dir BUILD --work-dir DIR
 *
 * --trace 0 prints the end-to-end metrics of an untraced run.
 * --trace 1 runs the workload untraced for S/2 seconds, then the
 * traced pass of every workload (this one for at least S/2 seconds)
 * and prints every per-layer metric; the spans go to
 * DIR/trace-<workload>-<seed>.json as Chrome trace JSON.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hh"

namespace
{

using Measure = rb::E2E (*)(const rb::RunArgs &, rb::Ledger &);
using Layers = void (*)(const rb::RunArgs &, rb::Tracer &, rb::Ledger &,
                        double, rb::LayerReport &);

struct Workload
{
    const char *name;
    Measure measure;
    Layers layers;
};

const Workload kWorkloads[] = {
    {"spec_1m", rb::measureSpec, rb::layersSpec},
    {"sweep_limited_data", rb::measureSweep, rb::layersSweep},
    {"serve_whatif", rb::measureServe, rb::layersServe},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "riskbench: %s\nusage: riskbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --root DIR --bin-dir DIR "
                 "--work-dir DIR\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    rb::RunArgs args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            args.workload = v;
        else if (k == "--seed")
            args.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            args.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            args.trace = v == "1";
        else if (k == "--root")
            args.root = v;
        else if (k == "--bin-dir")
            args.bin_dir = v;
        else if (k == "--work-dir")
            args.work_dir = v;
        else
            return usage(("unknown option " + k).c_str());
    }
    const Workload *w = nullptr;
    for (const auto &cand : kWorkloads) {
        if (args.workload == cand.name)
            w = &cand;
    }
    if (w == nullptr)
        return usage("unknown workload");
    if (!(args.seconds > 0) || args.root.empty() || args.bin_dir.empty() ||
        args.work_dir.empty())
        return usage("--seconds, --root, --bin-dir and --work-dir are "
                     "required");

    rb::Ledger ledger;
    rb::Metrics metrics;
    try {
        if (!args.trace) {
            const rb::E2E e = w->measure(args, ledger);
            metrics.set("setup_s", e.setup_s, "s");
            metrics.set("answer_ms", e.answer_ms, "ms");
            metrics.set("alt_answer_ms", e.alt_answer_ms, "ms");
            metrics.set("trials_per_s", e.trials_per_s, "1/s");
            metrics.set("peak_rss_mb", e.peak_rss_mb, "MiB");
        } else {
            rb::RunArgs half = args;
            half.seconds = args.seconds / 2;
            const rb::E2E untraced = w->measure(half, ledger);
            // The traced passes check their answers too, but only the
            // untraced half's operations are counted, so attempted and
            // failed keep the workload's per-round proportions.
            rb::Tracer tracer(true);
            rb::Ledger layer_ledger;
            double unattributed = 0.0, traced_answer = 0.0;
            for (const auto &cand : kWorkloads) {
                rb::LayerReport rep;
                cand.layers(args, tracer, layer_ledger,
                            &cand == w ? half.seconds : 0.0, rep);
                metrics.append(rep.metrics);
                if (&cand == w) {
                    unattributed = rep.unattributed_ms;
                    traced_answer = rep.traced_answer_ms;
                }
            }
            for (const auto &p : layer_ledger.problems())
                ledger.wrong("traced pass: " + p);
            metrics.set("unattributed_ms", unattributed, "ms");
            metrics.set("trace_overhead_pct",
                        100.0 * (traced_answer - untraced.answer_ms) /
                            untraced.answer_ms,
                        "%");
            const std::string path = args.work_dir + "/trace-" +
                                     args.workload + "-" +
                                     std::to_string(args.seed) + ".json";
            tracer.writeJson(path);
            std::fprintf(stderr, "riskbench: spans written to %s\n",
                         path.c_str());
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "riskbench: %s\n", e.what());
        return 1;
    }

    for (const auto &name : metrics.unmeasured())
        ledger.wrong("metric " + name + " could not be measured");
    for (const auto &p : ledger.problems())
        std::printf("CHECK FAILED: %s\n", p.c_str());
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"ops\": %s}\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                ledger.opsJson().c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                ledger.correct() ? "true" : "false",
                static_cast<unsigned long long>(ledger.attempted()),
                static_cast<unsigned long long>(ledger.failed()),
                metrics.json().c_str());
    return 0;
}
