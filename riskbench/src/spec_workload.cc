/**
 * @file
 * spec_1m: batch `archrisk` CLI runs at 10^6 trials, one thread, on
 * generated Hill-Marty specs.  A round is one keep-mode run (the
 * answer: retained samples, VaR/CVaR/shortfall, histogram) and one
 * `--stream` run (the alt answer) of the same spec.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "bench.hh"
#include "core/framework.hh"
#include "core/spec.hh"
#include "hm_spec.hh"
#include "mc/copula.hh"
#include "mc/sampler.hh"
#include "report/ascii_plot.hh"
#include "risk/arch_risk.hh"
#include "risk/risk_function.hh"
#include "risk/var.hh"
#include "stats/histogram.hh"
#include "stats/summary.hh"
#include "util/rng.hh"

namespace rb
{

namespace
{

constexpr std::size_t kTrials = 1000000;
constexpr std::size_t kSpecs = 3;        ///< Distinct specs per run.
constexpr std::size_t kSetups = 101;     ///< Set-ups timed per run.
constexpr std::size_t kOracleTrials = 400000;
constexpr double kSigmas = 5.0;          ///< Allowed combined SEs.

struct SpecSet
{
    std::vector<HmSpec> specs;
    std::vector<std::string> paths;
};

/**
 * Generate the run's specs and check that each parses to the expected
 * shape and compiles.  The files are written by writeSpecs(), outside
 * the timed set-up: file-system latency here swung the set-up median
 * by 2x between runs and is not the program's.
 */
SpecSet
setUp(const RunArgs &args, Ledger &ledger)
{
    SpecSet set;
    std::uint64_t rng = args.seed * 0x5bd1e995ull + 11;
    for (std::size_t i = 0; i < kSpecs; ++i) {
        set.specs.push_back(generateHm(rng, i, kTrials));
        const auto parsed = ar::core::parseSpec(set.specs.back().text());
        ledger.require(parsed.output == "Speedup" &&
                           parsed.bindings.uncertain.size() == 6 &&
                           parsed.bindings.correlations.size() == 1 &&
                           parsed.trials == kTrials &&
                           parsed.threads == 1,
                       "spec_1m: generated spec parses to another shape");
        ar::core::Framework fw;
        fw.setSystem(parsed.system);
        fw.compiled(parsed.output);
    }
    return set;
}

void
writeSpecs(const RunArgs &args, SpecSet &set)
{
    for (std::size_t i = 0; i < set.specs.size(); ++i) {
        set.paths.push_back(args.work_dir + "/spec_1m-" +
                            std::to_string(i) + ".spec");
        writeFile(set.paths.back(), set.specs[i].text());
    }
}

struct CliRun
{
    ProcResult keep;
    ProcResult stream;
};

/** One round: keep-mode then streamed CLI run of spec @p i. */
CliRun
runRound(const RunArgs &args, const SpecSet &set, std::size_t i,
         Tracer &tracer, Ledger &ledger)
{
    CliRun r;
    const std::string out = args.work_dir + "/spec_1m.out";
    {
        const auto t0 = Clock::now();
        r.keep = runProcess({args.cli(), set.paths[i]}, out);
        tracer.record("cli.keep", t0, Clock::now());
    }
    {
        const auto t0 = Clock::now();
        r.stream = runProcess({args.cli(), "--stream", set.paths[i]}, out);
        tracer.record("cli.stream", t0, Clock::now());
    }
    ledger.attempt("cli_keep", r.keep.exit_code == 0);
    ledger.attempt("cli_stream", r.stream.exit_code == 0);
    ledger.require(r.keep.exit_code == 0 && r.stream.exit_code == 0,
                   "spec_1m: archrisk exited non-zero");
    return r;
}

/** Sum of the histogram bar counts printed after the report. */
double
histogramTotal(const std::string &report)
{
    std::istringstream in(report);
    std::string line;
    double total = 0.0;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] != '[')
            continue;
        const auto sp = line.find_last_of(' ');
        total += num(line.substr(sp + 1));
    }
    return total;
}

/** Check one spec's keep/stream reports against the oracle. */
void
checkSpec(const HmSpec &spec, const std::string &keep,
          const std::string &stream, std::size_t index, Ledger &ledger)
{
    const std::string tag = "spec_1m[" + std::to_string(index) + "]: ";
    for (const char *label : {"expected", "stddev", "architectural risk",
                              "min / max"}) {
        ledger.require(!cliField(keep, label).empty() &&
                           cliField(keep, label) ==
                               cliField(stream, label),
                       tag + "keep and --stream differ in '" + label +
                           "'");
    }
    const double mean = num(cliField(keep, "expected"));
    const double sd = num(cliField(keep, "stddev"));
    const double var = num(cliField(keep, "VaR(5%)"));
    const double cvar = num(cliField(keep, "CVaR(5%)"));
    auto pct = cliField(keep, "P(below reference)");
    if (!pct.empty() && pct.back() == '%')
        pct.pop_back();
    const double p_below = num(pct) / 100.0;
    ledger.require(num(cliField(keep, "effective trials")) == kTrials,
                   tag + "effective trials != trials");
    ledger.require(histogramTotal(keep) == kTrials,
                   tag + "histogram does not count every trial");
    ledger.require(cvar <= var && var <= mean,
                   tag + "tail metrics out of order (CVaR <= VaR <= mean)");

    const auto o = oracleHm(spec, kOracleTrials, spec.seed + 7919);
    const double n = static_cast<double>(kTrials);
    const double se_mean =
        std::sqrt(o.se_mean * o.se_mean + sd * sd / n);
    const double se_p = std::sqrt(o.se_p * o.se_p +
                                  p_below * (1.0 - p_below) / n);
    ledger.require(std::fabs(mean - o.mean) <= kSigmas * se_mean,
                   tag + "E[Speedup] " + std::to_string(mean) +
                       " vs independent estimate " +
                       std::to_string(o.mean));
    // The CLI prints P(below) in percent with two decimals.
    ledger.require(std::fabs(p_below - o.p_below) <=
                       kSigmas * se_p + 5e-5,
                   tag + "P(below reference) " + std::to_string(p_below) +
                       " vs independent estimate " +
                       std::to_string(o.p_below));
}

/** Rounds until @p seconds pass; checks every answer. */
struct Phase
{
    std::vector<double> keep_ms, stream_ms, keep_rss, stream_rss;
    double trials = 0.0;
};

Phase
timedRounds(const RunArgs &args, const SpecSet &set, double seconds,
            std::size_t min_rounds, Tracer &tracer, Ledger &ledger)
{
    Phase ph;
    std::map<std::size_t, CliRun> first;
    const Deadline dl(seconds);
    for (std::size_t r = 0; r < min_rounds || !dl.passed(); ++r) {
        const std::size_t i = r % set.specs.size();
        CliRun run = runRound(args, set, i, tracer, ledger);
        ph.keep_ms.push_back(run.keep.wall_ms);
        ph.stream_ms.push_back(run.stream.wall_ms);
        ph.keep_rss.push_back(run.keep.peak_rss_mb);
        ph.stream_rss.push_back(run.stream.peak_rss_mb);
        ph.trials += 2.0 * kTrials;
        auto it = first.find(i);
        if (it == first.end()) {
            first.emplace(i, std::move(run));
        } else {
            ledger.require(run.keep.out == it->second.keep.out &&
                               run.stream.out == it->second.stream.out,
                           "spec_1m: a repeated CLI run printed "
                           "different output");
        }
    }
    for (const auto &[i, run] : first)
        checkSpec(set.specs[i], run.keep.out, run.stream.out, i, ledger);
    return ph;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

double
maxOf(const std::vector<double> &v)
{
    double m = 0.0;
    for (double x : v)
        m = std::max(m, x);
    return m;
}

} // namespace

E2E
measureSpec(const RunArgs &args, Ledger &ledger)
{
    E2E e;
    std::vector<double> setups;
    SpecSet set;
    // Untimed warm-up: a set-up takes ~0.1 ms, and the first ones of a
    // fresh process ran up to 2x slower than the rest.
    for (const Deadline warm(0.2); !warm.passed();)
        set = setUp(args, ledger);
    for (std::size_t k = 0; k < kSetups; ++k) {
        const auto t0 = Clock::now();
        set = setUp(args, ledger);
        setups.push_back(msSince(t0) / 1000.0);
    }
    e.setup_s = median(setups);
    writeSpecs(args, set);

    Tracer off(false);
    const Phase ph = timedRounds(args, set, args.seconds, 1, off, ledger);
    e.answer_ms = median(ph.keep_ms);
    e.alt_answer_ms = median(ph.stream_ms);
    e.trials_per_s =
        ph.trials / ((sum(ph.keep_ms) + sum(ph.stream_ms)) / 1000.0);
    e.peak_rss_mb = maxOf(ph.keep_rss);
    return e;
}

namespace
{

/** Per-layer times (ms) of one spec, each from one public call. */
struct Decomposition
{
    std::map<std::string, double> ms;
    std::map<std::string, std::vector<double>> draw_ns;
    double design_mb = 0.0;
};

/** ms spent in @p fn, recorded as span @p name. */
template <class Fn>
double
timed(Tracer &tracer, const std::string &name, Fn &&fn)
{
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    tracer.record(name, t0, t1);
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/**
 * Run the keep-mode engine's steps on @p text one public call at a
 * time (parse, compile, LHS design, copula, inverse-CDF draws, tape
 * eval, summary, risk, tails, histogram), then whole analyze() calls.
 */
Decomposition
decompose(const std::string &text, Tracer &tracer, Ledger &ledger)
{
    Decomposition out;
    auto &ms = out.ms;

    std::vector<double> parse_ms;
    ar::core::AnalysisSpec spec;
    for (int k = 0; k < 21; ++k)
        parse_ms.push_back(timed(tracer, "core.parse",
                                 [&] { spec = ar::core::parseSpec(text); }));
    ms["parse"] = median(parse_ms);

    std::vector<double> compile_ms;
    for (int k = 0; k < 5; ++k) {
        ar::core::Framework fw;
        fw.setSystem(spec.system);
        compile_ms.push_back(timed(tracer, "symbolic.compile",
                                   [&] { fw.compiled(spec.output); }));
    }
    ms["compile"] = median(compile_ms);

    const auto &unc = spec.bindings.uncertain; // name-ordered
    std::vector<std::string> names;
    for (const auto &kv : unc)
        names.push_back(kv.first);
    const std::size_t n = spec.trials;
    ar::util::Rng rng(spec.seed);
    ar::mc::UniformDesign design(1, 1);
    ms["design"] = timed(tracer, "mc.design", [&] {
        design = ar::mc::LatinHypercubeSampler().design(n, names.size(),
                                                        rng);
    });
    out.design_mb = static_cast<double>(n * names.size() * sizeof(double)) /
                    (1024.0 * 1024.0);
    std::vector<std::string> cnames;
    std::vector<std::size_t> cdims;
    for (const auto &c : spec.bindings.correlations) {
        for (const auto &nm : {c.a, c.b}) {
            if (std::find(cnames.begin(), cnames.end(), nm) != cnames.end())
                continue;
            cnames.push_back(nm);
            cdims.push_back(static_cast<std::size_t>(
                std::find(names.begin(), names.end(), nm) - names.begin()));
        }
    }
    const ar::mc::GaussianCopula copula(cnames, spec.bindings.correlations);
    ms["copula"] =
        timed(tracer, "mc.copula", [&] { copula.apply(design, cdims); });

    std::vector<std::vector<double>> cols(names.size(),
                                          std::vector<double>(n));
    ms["sample"] = 0.0;
    for (std::size_t d = 0; d < names.size(); ++d) {
        const auto &dist = *unc.at(names[d]);
        const double t = timed(tracer, "dist.sample", [&] {
            dist.sampleFromUniformBatch(design.column(d), cols[d].data(), n);
        });
        ms["sample"] += t;
        const std::string kind =
            names[d] == "f" || names[d] == "c" ? "normbinomial"
            : names[d].rfind("N_", 0) == 0     ? "binomial"
                                               : "lognormal";
        out.draw_ns[kind].push_back(t * 1e6 / static_cast<double>(n));
    }
    design = ar::mc::UniformDesign(1, 1);

    ar::core::Framework fw;
    fw.setSystem(spec.system);
    const auto &expr = fw.compiled(spec.output);
    std::vector<ar::symbolic::BatchArg> bargs;
    for (const auto &arg : expr.argNames()) {
        const auto it = std::find(names.begin(), names.end(), arg);
        if (it != names.end()) {
            bargs.push_back({cols[it - names.begin()].data(), false});
        } else {
            bargs.push_back({&spec.bindings.fixed.at(arg), true});
        }
    }
    std::vector<double> y(n);
    ms["eval"] = timed(tracer, "symbolic.eval",
                       [&] { expr.evalBatch(bargs, n, y.data()); });
    cols.clear();

    const auto risk_fn = ar::core::makeRiskFunction(spec.risk);
    const double ref = *spec.reference;
    ar::stats::Summary summary;
    ms["summary"] = timed(tracer, "stats.summary",
                          [&] { summary = ar::stats::summarize(y); });
    double risk = 0.0;
    ms["score"] = timed(tracer, "risk.score", [&] {
        risk = ar::risk::archRisk(y, ref, *risk_fn);
    });
    double tails = 0.0;
    ms["tail"] = timed(tracer, "risk.tail", [&] {
        tails = ar::risk::valueAtRisk(y, 0.05) +
                ar::risk::conditionalValueAtRisk(y, 0.05) +
                ar::risk::shortfallProbability(y, ref);
    });
    std::string chart;
    ms["histogram"] = timed(tracer, "report.histogram", [&] {
        chart = ar::report::histogramChart(
            ar::stats::Histogram::fromData(y, 14), 44);
    });
    ledger.require(std::isfinite(summary.mean + risk + tails) &&
                       !chart.empty(),
                   "spec_1m: decomposed keep-mode pass is not finite");
    y = {};

    double means[2] = {0.0, 0.0};
    for (int stream = 0; stream < 2; ++stream) {
        ar::mc::PropagationConfig pc{n, "latin-hypercube", 1,
                                     spec.fault_policy};
        pc.stream.keep_samples = stream == 0;
        ar::core::Framework afw(pc);
        afw.setSystem(spec.system);
        afw.compiled(spec.output);
        ms[stream ? "analyze.stream" : "analyze.keep"] = timed(
            tracer, stream ? "core.analyze.stream" : "core.analyze.keep",
            [&] {
                means[stream] = afw.analyze(spec.output, spec.bindings,
                                            *risk_fn, ref, spec.seed)
                                    .summary.mean;
            });
    }
    // Keep mode summarizes the retained samples, stream mode reads the
    // accumulators: equal up to summation order.
    ledger.require(std::fabs(means[0] - means[1]) <=
                       1e-12 * std::fabs(means[0]),
                   "spec_1m: in-process keep and stream means differ");
    return out;
}

} // namespace

void
layersSpec(const RunArgs &args, Tracer &tracer, Ledger &ledger,
           double min_seconds, LayerReport &out)
{
    SpecSet set = setUp(args, ledger);
    writeSpecs(args, set);
    // At least one round per spec, so every decomposed spec has its
    // own CLI wall to be compared with.
    const Phase ph =
        timedRounds(args, set, min_seconds, kSpecs, tracer, ledger);

    std::map<std::string, std::vector<double>> per;
    std::map<std::string, std::vector<double>> draw_ns;
    double design_mb = 0.0;
    for (std::size_t i = 0; i < kSpecs; ++i) {
        const Decomposition d = decompose(set.specs[i].text(), tracer, ledger);
        const auto &m = d.ms;
        const double cli_keep = ph.keep_ms[i];
        for (const auto &[k, v] : m)
            per[k].push_back(v);
        for (const auto &[k, v] : d.draw_ns)
            draw_ns[k].insert(draw_ns[k].end(), v.begin(), v.end());
        design_mb = d.design_mb;
        per["residual"].push_back(m.at("analyze.stream") -
                                  (m.at("design") + m.at("copula") +
                                   m.at("sample") + m.at("eval")));
        per["cli.overhead"].push_back(cli_keep - m.at("analyze.keep"));
        double named = 0.0;
        for (const char *k : {"parse", "compile", "design", "copula",
                              "sample", "eval", "summary", "score", "tail",
                              "histogram"})
            named += m.at(k);
        per["unattributed"].push_back(cli_keep - named);
        per["cli.keep"].push_back(cli_keep);
    }

    auto &m = out.metrics;
    const auto med = [&](const char *k) { return median(per[k]); };
    m.set("core.parse_ms", med("parse"), "ms");
    m.set("symbolic.compile_ms", med("compile"), "ms");
    m.set("mc.design_ms", med("design"), "ms");
    m.set("mc.design_mb", design_mb, "MiB");
    m.set("mc.copula_ms", med("copula"), "ms");
    m.set("dist.sample_ms", med("sample"), "ms");
    for (const char *kind : {"normbinomial", "binomial", "lognormal"})
        m.set(std::string("dist.draw_ns.") + kind, median(draw_ns[kind]),
              "ns");
    m.set("symbolic.eval_ms", med("eval"), "ms");
    m.set("stats.summary_ms", med("summary"), "ms");
    m.set("risk.score_ms", med("score"), "ms");
    m.set("risk.tail_ms", med("tail"), "ms");
    m.set("report.histogram_ms", med("histogram"), "ms");
    m.set("core.analyze_ms.keep", med("analyze.keep"), "ms");
    m.set("core.analyze_ms.stream", med("analyze.stream"), "ms");
    m.set("mc.engine_residual_ms", med("residual"), "ms");
    m.set("cli.overhead_ms", med("cli.overhead"), "ms");
    m.set("mc.stream_peak_rss_mb", maxOf(ph.stream_rss), "MiB");
    out.traced_answer_ms = median(ph.keep_ms);
    out.unattributed_ms = med("unattributed");
}

} // namespace rb
