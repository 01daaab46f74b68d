/**
 * @file
 * Shared pieces of the riskbench program: run arguments, the span
 * recorder behind the traced run, operation and check accounting,
 * order statistics, child-process timing, and the metric report.
 */

#ifndef RISKBENCH_BENCH_HH
#define RISKBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace rb
{

using Clock = std::chrono::steady_clock;

/** @return milliseconds elapsed since @p t0. */
double msSince(Clock::time_point t0);

/** Command-line arguments of one benchmark run. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string root;     ///< Repository checkout (example specs).
    std::string bin_dir;  ///< Build tree holding tools/archrisk{,d}.
    std::string work_dir; ///< Scratch for generated specs and traces.

    std::string cli() const { return bin_dir + "/tools/archrisk"; }
    std::string daemon() const { return bin_dir + "/tools/archriskd"; }
};

/** One recorded span (times in microseconds since the trace origin). */
struct Span
{
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::uint32_t thread = 0; ///< Client thread (0 = main).
};

/**
 * In-memory span recorder.  A disabled recorder records nothing, so
 * the untraced run pays one branch per span.  Spans are written as
 * Chrome trace JSON ("X" events) by writeJson().
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Record the finished span [t0, t1). */
    void record(const std::string &name, Clock::time_point t0,
                Clock::time_point t1, std::uint32_t thread = 0);

    /** Write every span as Chrome trace JSON. */
    void writeJson(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex m_;
    std::vector<Span> spans_;
};

/**
 * Per-kind operation counts plus the correctness verdict.  Every
 * failed check is kept (with a message) so a wrong answer is never
 * silent; failed operations are those of a named, expected fault.
 */
class Ledger
{
  public:
    void attempt(const std::string &kind, bool ok);
    /** Record a failed correctness check (makes the run incorrect). */
    void wrong(const std::string &what);
    /** require(cond, what): wrong(what) unless @p cond. */
    void require(bool cond, const std::string &what);

    bool correct() const;
    std::uint64_t attempted() const;
    std::uint64_t failed() const;
    /** @return {"kind": {"attempted": n, "failed": m}, ...} */
    std::string opsJson() const;
    const std::vector<std::string> &problems() const
    {
        return problems_;
    }

  private:
    mutable std::mutex m_;
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> ops_;
    std::vector<std::string> problems_;
};

/** Named metric values in insertion order. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    /** Add every metric of @p other (later values win). */
    void append(const Metrics &other);
    /** @return names of metrics that could not be measured (NaN/Inf). */
    std::vector<std::string> unmeasured() const;
    std::string json() const;

  private:
    std::vector<std::string> names_;
    std::map<std::string, std::pair<double, std::string>> values_;
};

/** Median of @p v (NaN when empty). */
double median(std::vector<double> v);

/** Linear-interpolated @p q-quantile of @p v (NaN when empty). */
double quantile(std::vector<double> v, double q);

/** Outcome of one child process. */
struct ProcResult
{
    int exit_code = -1;
    double wall_ms = 0.0;
    double peak_rss_mb = 0.0; ///< The child's ru_maxrss.
    std::string out;          ///< Captured standard output.
};

/**
 * Run @p argv to completion with standard output captured through
 * @p out_path (standard error is discarded).
 */
ProcResult runProcess(const std::vector<std::string> &argv,
                      const std::string &out_path);

/** @return peak resident set of this process in MiB. */
double selfPeakRssMb();

std::string readFile(const std::string &path);
void writeFile(const std::string &path, const std::string &text);

/** Value of "key=value" in a space-separated reply line ("" if absent). */
std::string field(const std::string &line, const std::string &key);

/** Value after "label : " in a CLI report (the first such line). */
std::string cliField(const std::string &report, const std::string &label);

/** Strict numeric parse; NaN when @p s is not a whole number. */
double num(const std::string &s);

/** splitmix64 step: the benchmark's own seeded generator. */
std::uint64_t mix(std::uint64_t &state);

/** Uniform double in [0, 1) from mix(). */
double unit(std::uint64_t &state);

/** Wall-clock end of a timed phase. */
struct Deadline
{
    explicit Deadline(double seconds)
        : end(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds)))
    {}
    bool passed() const { return Clock::now() >= end; }
    Clock::time_point end;
};

/** Per-layer metrics of one workload's traced pass. */
struct LayerReport
{
    Metrics metrics;
    double traced_answer_ms = 0.0;
    double unattributed_ms = 0.0;
};

/** End-to-end figures of one untraced run. */
struct E2E
{
    double setup_s = 0.0;
    double answer_ms = 0.0;
    double alt_answer_ms = 0.0;
    double trials_per_s = 0.0;
    double peak_rss_mb = 0.0;
};

// Workloads.  measure*() runs the untraced timed phase for
// args.seconds (whole rounds) and checks its answers; layers*() runs
// the traced pass and adds that workload's per-layer metrics.  The
// traced pass runs at least @p min_seconds of rounds.
E2E measureSpec(const RunArgs &args, Ledger &ledger);
void layersSpec(const RunArgs &args, Tracer &tracer, Ledger &ledger,
                double min_seconds, LayerReport &out);
E2E measureSweep(const RunArgs &args, Ledger &ledger);
void layersSweep(const RunArgs &args, Tracer &tracer, Ledger &ledger,
                 double min_seconds, LayerReport &out);
E2E measureServe(const RunArgs &args, Ledger &ledger);
void layersServe(const RunArgs &args, Tracer &tracer, Ledger &ledger,
                 double min_seconds, LayerReport &out);

} // namespace rb

#endif // RISKBENCH_BENCH_HH
