/**
 * @file
 * sweep_limited_data: Figure-13 exploration of the 1225 designs of a
 * 256-area chip through the `explore` library, 2000 trials, 1 thread,
 * fault_policy discard.  A round is
 *
 *   - the answer: limited-data sweeps (approx_k = 50, Direct backend)
 *     of the round's app class at sigma 0.2, 0.4 and 0.8;
 *   - the alt answer: a ground-truth sweep on the FusedProgram backend
 *     at sigma = 0.2 and the round's app class;
 *   - one fused ground-truth sweep on fixed inputs (LPHC, sigma 0.8,
 *     seed 1) that trips the known 0/0 fault and is counted as failed.
 *
 * Each sweep is construct + evaluateAll + selection (argmaxExpected,
 * argminRisk, kneePoint).
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "bench.hh"
#include "dist/distribution.hh"
#include "explore/design_space.hh"
#include "explore/evaluate.hh"
#include "explore/optimality.hh"
#include "explore/select.hh"
#include "extract/extract.hh"
#include "model/hill_marty.hh"
#include "model/uncertainty.hh"
#include "risk/risk_function.hh"
#include "symbolic/program.hh"
#include "symbolic/substitute.hh"
#include "util/rng.hh"

namespace rb
{

namespace
{

namespace ex = ar::explore;
namespace md = ar::model;

constexpr std::size_t kTrials = 2000;
constexpr std::size_t kApproxK = 50;
constexpr std::size_t kSetups = 25;
constexpr double kSigmas[] = {0.2, 0.4, 0.8};
constexpr double kTruthSigma = 0.2;
constexpr double kRelTol = 1e-8;

struct Setup
{
    std::vector<md::CoreConfig> designs;
    std::vector<md::AppParams> apps;
    std::vector<double> refs; ///< Conventional reference per app.
    std::size_t lphc = 0;     ///< Index of the LPHC class.
};

Setup
setUp()
{
    Setup s;
    s.designs = ex::enumerateDesigns();
    s.apps = md::standardApps();
    for (const auto &app : s.apps) {
        double best = 0.0;
        for (const auto &d : s.designs)
            best = std::max(best, md::HillMartyEvaluator::nominalSpeedup(
                                      d, app.f, app.c));
        s.refs.push_back(best);
        if (app.name == "LPHC")
            s.lphc = s.refs.size() - 1;
    }
    return s;
}

struct Sweep
{
    std::vector<ex::DesignOutcome> outcomes;
    std::size_t best_perf = 0;
    std::size_t min_risk = 0;
    std::size_t knee = 0;
    double pools_ms = 0.0;
    double eval_ms = 0.0;
    double select_ms = 0.0;
    double total_ms = 0.0;
};

/** Construct + evaluateAll + selection, each step a span. */
Sweep
runSweep(const Setup &s, std::size_t app, double sigma,
         const ex::SweepConfig &cfg, const std::string &tag,
         Tracer &tracer)
{
    Sweep r;
    const ar::risk::QuadraticRisk fn;
    const auto t0 = Clock::now();
    ex::DesignSpaceEvaluator eval(s.designs, s.apps[app],
                                  md::UncertaintySpec::appArch(sigma, sigma),
                                  cfg);
    const auto t1 = Clock::now();
    r.outcomes = eval.evaluateAll(fn, s.refs[app]);
    const auto t2 = Clock::now();
    r.best_perf = ex::argmaxExpected(r.outcomes);
    r.min_risk = ex::argminRisk(r.outcomes);
    r.knee = ex::kneePoint(r.outcomes);
    const auto t3 = Clock::now();
    const std::string eval_name =
        cfg.backend == ex::SweepBackend::FusedProgram ? "explore.eval.fused"
                                                      : "explore.eval.direct";
    tracer.record("explore.pools." + tag, t0, t1);
    tracer.record(eval_name, t1, t2);
    tracer.record("explore.select", t2, t3);
    const auto ms = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
    };
    r.pools_ms = ms(t0, t1);
    r.eval_ms = ms(t1, t2);
    r.select_ms = ms(t2, t3);
    r.total_ms = ms(t0, t3);
    return r;
}

ex::SweepConfig
config(std::uint64_t seed, std::size_t approx_k, ex::SweepBackend backend)
{
    ex::SweepConfig cfg;
    cfg.trials = kTrials;
    cfg.seed = seed;
    cfg.threads = 1;
    cfg.approx_k = approx_k;
    cfg.fault_policy = ar::util::FaultPolicy::Discard;
    cfg.backend = backend;
    return cfg;
}

bool
close(double a, double b)
{
    return std::fabs(a - b) <= kRelTol * std::max(1.0, std::fabs(b));
}

/** Bit-identical outcome lists? */
bool
identical(const std::vector<ex::DesignOutcome> &a,
          const std::vector<ex::DesignOutcome> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t d = 0; d < a.size(); ++d) {
        if (a[d].expected != b[d].expected || a[d].stddev != b[d].stddev ||
            a[d].risk != b[d].risk ||
            a[d].effective_trials != b[d].effective_trials)
            return false;
    }
    return true;
}

/** Does a fused sweep agree with the Direct backend's? */
bool
agrees(const std::vector<ex::DesignOutcome> &fused,
       const std::vector<ex::DesignOutcome> &direct)
{
    if (fused.size() != direct.size())
        return false;
    for (std::size_t d = 0; d < fused.size(); ++d) {
        if (fused[d].effective_trials != direct[d].effective_trials ||
            !close(fused[d].expected, direct[d].expected) ||
            !close(fused[d].stddev, direct[d].stddev) ||
            !close(fused[d].risk, direct[d].risk))
            return false;
    }
    return true;
}

struct TruthRun
{
    std::size_t app;
    std::uint64_t seed;
    std::vector<ex::DesignOutcome> outcomes;
};

struct Phase
{
    std::vector<double> limited_ms, fused_ms;
    std::vector<Sweep> limited; ///< Kept for the per-layer medians.
    std::vector<Sweep> fused;
    double design_trials = 0.0;
};

Phase
timedRounds(const RunArgs &args, const Setup &s, double seconds,
            Tracer &tracer, Ledger &ledger)
{
    Phase ph;
    std::vector<TruthRun> truth_runs;
    std::vector<std::vector<ex::DesignOutcome>> fixed_runs;
    const std::size_t apps = s.apps.size();
    const double work = static_cast<double>(s.designs.size() * kTrials);
    const Deadline dl(seconds);
    for (std::size_t r = 0; r == 0 || !dl.passed(); ++r) {
        // Every round sweeps each sigma once (their costs differ by
        // ~2x), so every run holds the same mix whatever its length;
        // the app classes cycle in a fixed order.
        const std::size_t app = r % apps;
        const std::uint64_t seed = args.seed * 1000 + r;

        // Answer: limited-data sweeps.
        for (const double sigma : kSigmas) {
            Sweep lim = runSweep(
                s, app, sigma, config(seed, kApproxK, ex::SweepBackend::Direct),
                "limited", tracer);
            bool ok = lim.outcomes.size() == s.designs.size();
            for (const auto &o : lim.outcomes) {
                ok = ok && std::isfinite(o.expected) &&
                     std::isfinite(o.risk) && std::isfinite(o.stddev) &&
                     o.effective_trials == kTrials;
            }
            ledger.attempt("limited_sweep", ok);
            ledger.require(ok, "sweep: a limited-data outcome is not finite "
                               "or lost trials");
            ph.limited_ms.push_back(lim.total_ms);
            ph.design_trials += work;
            ph.limited.push_back(std::move(lim));
        }

        // Alt answer: fused ground truth at sigma 0.2.
        Sweep tru = runSweep(
            s, app, kTruthSigma,
            config(seed, 0, ex::SweepBackend::FusedProgram), "truth", tracer);
        ph.fused_ms.push_back(tru.total_ms);
        ph.design_trials += work;
        truth_runs.push_back({app, seed, tru.outcomes});

        // Known fault on fixed inputs (see README "Known faults").
        Sweep fx = runSweep(
            s, s.lphc, 0.8, config(1, 0, ex::SweepBackend::FusedProgram),
            "fixed", tracer);
        fixed_runs.push_back(std::move(fx.outcomes));
        ph.fused.push_back(std::move(tru));
    }

    // Direct-backend checks, after the timed phase.  HillMartyEvaluator
    // is a closed form independent of the symbolic/tape path.
    for (const auto &t : truth_runs) {
        Tracer off(false);
        const Sweep direct = runSweep(
            s, t.app, kTruthSigma,
            config(t.seed, 0, ex::SweepBackend::Direct), "check", off);
        const bool ok = agrees(t.outcomes, direct.outcomes);
        ledger.attempt("fused_sweep", ok);
        ledger.require(ok, "sweep: fused ground truth disagrees with "
                           "Direct at sigma 0.2 (seed " +
                               std::to_string(t.seed) + ")");
    }
    Tracer off(false);
    const Sweep fixed_direct = runSweep(
        s, s.lphc, 0.8, config(1, 0, ex::SweepBackend::Direct), "check",
        off);
    for (const auto &f : fixed_runs) {
        ledger.attempt("fused_sweep_fixed_fault",
                       agrees(f, fixed_direct.outcomes));
        ledger.require(identical(f, fixed_runs.front()),
                       "sweep: fixed-input fused sweep is not repeatable");
    }
    return ph;
}

/** Stratified uniforms in (0, 1), one per 1/n band (as the pools use). */
std::vector<double>
stratified(std::size_t n, ar::util::Rng &rng)
{
    const auto perm = rng.permutation(n);
    std::vector<double> u(n);
    for (std::size_t t = 0; t < n; ++t)
        u[t] = (static_cast<double>(perm[t]) + rng.uniform()) /
               static_cast<double>(n);
    return u;
}

} // namespace

E2E
measureSweep(const RunArgs &args, Ledger &ledger)
{
    E2E e;
    std::vector<double> setups;
    Setup s;
    for (std::size_t k = 0; k < kSetups; ++k) {
        const auto t0 = Clock::now();
        s = setUp();
        setups.push_back(msSince(t0) / 1000.0);
    }
    ledger.require(s.designs.size() == 1225,
                   "sweep: the 256-area design space is not 1225 designs");
    e.setup_s = median(setups);

    Tracer off(false);
    const Phase ph = timedRounds(args, s, args.seconds, off, ledger);
    e.answer_ms = median(ph.limited_ms);
    e.alt_answer_ms = median(ph.fused_ms);
    double wall = 0.0;
    for (double x : ph.limited_ms)
        wall += x;
    for (double x : ph.fused_ms)
        wall += x;
    e.trials_per_s = ph.design_trials / (wall / 1000.0);
    e.peak_rss_mb = selfPeakRssMb();
    return e;
}

void
layersSweep(const RunArgs &args, Tracer &tracer, Ledger &ledger,
            double min_seconds, LayerReport &out)
{
    const Setup s = setUp();
    const Phase ph = timedRounds(args, s, min_seconds, tracer, ledger);
    auto pick = [](const std::vector<Sweep> &v, double Sweep::*f) {
        std::vector<double> x;
        for (const auto &sw : v)
            x.push_back(sw.*f);
        return median(x);
    };
    const double pools_lim = pick(ph.limited, &Sweep::pools_ms);
    const double eval_dir = pick(ph.limited, &Sweep::eval_ms);
    const double select = pick(ph.limited, &Sweep::select_ms);

    // extract: k = 50 observations of every truth input a limited
    // sweep re-estimates (f, c, per-size performance, per-(size,
    // count) working cores), at the seed's (app, sigma).
    const std::size_t combo = args.seed % (s.apps.size() * 3);
    const auto &app = s.apps[combo % s.apps.size()];
    const double sigma = kSigmas[combo / s.apps.size()];
    std::vector<ar::dist::DistPtr> truths{md::groundTruthF(app, sigma),
                                          md::groundTruthC(app, sigma)};
    std::set<double> sizes;
    std::set<std::pair<double, unsigned>> counts;
    for (const auto &d : s.designs) {
        for (const auto &t : d.types()) {
            sizes.insert(t.area);
            counts.insert({t.area, t.count});
        }
    }
    for (double a : sizes)
        truths.push_back(md::groundTruthCorePerf(a, sigma, sigma, 0.15));
    for (const auto &[a, n] : counts)
        truths.push_back(md::groundTruthCoreCount(a, n));

    ar::util::Rng rng(args.seed);
    double fit_ms = 0.0, draw_ms = 0.0;
    double boxcox = 0.0, kde = 0.0;
    std::vector<double> pool(kTrials);
    for (const auto &truth : truths) {
        const auto observed = truth->sampleMany(kApproxK, rng);
        const auto t0 = Clock::now();
        const auto res = ar::extract::extractUncertainty(observed);
        const auto t1 = Clock::now();
        tracer.record("extract.fit", t0, t1);
        fit_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
        boxcox += res.method == ar::extract::ExtractionMethod::BoxCoxBootstrap;
        kde += res.method == ar::extract::ExtractionMethod::Kde;
        const auto u = stratified(kTrials, rng);
        const auto t2 = Clock::now();
        res.distribution->sampleFromUniformBatch(u.data(), pool.data(),
                                                 kTrials);
        const auto t3 = Clock::now();
        tracer.record("dist.sample.extracted", t2, t3);
        draw_ms += std::chrono::duration<double, std::milli>(t3 - t2).count();
    }

    // symbolic: the fused program over every design's resolved
    // speedup, renamed onto shared pool columns as the evaluator does.
    std::vector<double> size_list(sizes.begin(), sizes.end());
    std::map<std::size_t, ar::symbolic::ExprPtr> by_k;
    std::vector<ar::symbolic::ExprPtr> forest;
    for (const auto &d : s.designs) {
        const auto &types = d.types();
        auto it = by_k.find(types.size());
        if (it == by_k.end()) {
            it = by_k.emplace(types.size(),
                              md::buildHillMartySystem(types.size())
                                  .resolve("Speedup"))
                     .first;
        }
        std::map<std::string, std::string> renames;
        for (std::size_t i = 0; i < types.size(); ++i) {
            const auto si = std::to_string(
                std::find(size_list.begin(), size_list.end(),
                          types[i].area) -
                size_list.begin());
            renames[md::names::corePerf(i)] = "P@" + si;
            renames[md::names::coreCount(i)] =
                "N@" + si + "x" + std::to_string(types[i].count);
        }
        forest.push_back(ar::symbolic::renameSymbols(it->second, renames));
    }
    const auto tc0 = Clock::now();
    const ar::symbolic::CompiledProgram prog(std::move(forest));
    const auto tc1 = Clock::now();
    tracer.record("symbolic.program_compile", tc0, tc1);

    // model: the closed form the Direct backend calls per design-trial.
    const auto spec = md::UncertaintySpec::appArch(kTruthSigma, kTruthSigma);
    const auto f_pool = md::groundTruthF(app, kTruthSigma)->sampleMany(
        kTrials, rng);
    const auto c_pool = md::groundTruthC(app, kTruthSigma)->sampleMany(
        kTrials, rng);
    std::map<double, std::vector<double>> perf_pool;
    for (double a : sizes)
        perf_pool[a] = md::groundTruthCorePerf(a, kTruthSigma, kTruthSigma,
                                               spec.gamma)
                           ->sampleMany(kTrials, rng);
    double checksum = 0.0;
    std::vector<double> perf, cnt;
    const auto tm0 = Clock::now();
    for (const auto &d : s.designs) {
        const auto &types = d.types();
        perf.resize(types.size());
        cnt.resize(types.size());
        for (std::size_t t = 0; t < kTrials; ++t) {
            for (std::size_t i = 0; i < types.size(); ++i) {
                perf[i] = perf_pool[types[i].area][t];
                cnt[i] = types[i].count;
            }
            checksum += md::HillMartyEvaluator::speedup(f_pool[t], c_pool[t],
                                                        perf, cnt);
        }
    }
    const auto tm1 = Clock::now();
    tracer.record("model.direct", tm0, tm1);
    ledger.require(std::isfinite(checksum) && checksum > 0,
                   "sweep: closed-form speedups are not finite");

    auto &m = out.metrics;
    m.set("extract.fit_ms", fit_ms, "ms");
    m.set("extract.boxcox_fits", boxcox, "count");
    m.set("extract.kde_fits", kde, "count");
    m.set("dist.sample_ms.extracted", draw_ms, "ms");
    m.set("explore.pools_ms.limited", pools_lim, "ms");
    m.set("explore.pools_ms.truth", pick(ph.fused, &Sweep::pools_ms), "ms");
    m.set("explore.eval_ms.direct", eval_dir, "ms");
    m.set("explore.eval_ms.fused", pick(ph.fused, &Sweep::eval_ms), "ms");
    m.set("symbolic.program_compile_ms",
          std::chrono::duration<double, std::milli>(tc1 - tc0).count(), "ms");
    m.set("symbolic.program_ops",
          static_cast<double>(prog.stats().program_ops), "count");
    m.set("model.direct_ns_per_design_trial",
          std::chrono::duration<double, std::nano>(tm1 - tm0).count() /
              static_cast<double>(s.designs.size() * kTrials),
          "ns");
    m.set("explore.select_ms", select, "ms");
    out.traced_answer_ms = median(ph.limited_ms);
    out.unattributed_ms = out.traced_answer_ms - (pools_lim + eval_dir + select);
}

} // namespace rb
