/**
 * @file
 * Seeded Hill-Marty asymmetric-CMP specs (one big core plus a group
 * of small cores, the input shape of examples/specs/hill_marty_asym.spec)
 * and a from-scratch Monte-Carlo reference for them that shares no
 * code with the program: <random> draws, its own binomial quantile,
 * its own Gaussian copula on (f, c) and its own closed-form model.
 */

#ifndef RISKBENCH_HM_SPEC_HH
#define RISKBENCH_HM_SPEC_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace rb
{

/** Parameters of one generated spec (values exactly as written). */
struct HmSpec
{
    unsigned f_m = 225;     ///< f ~ Binomial(f_m, f_p) / f_m.
    double f_p = 0.9;
    unsigned c_m = 2475;    ///< c ~ Binomial(c_m, c_p) / c_m.
    double c_p = 0.01;
    double big_area = 128;  ///< One big core of this area...
    double small_area = 8;  ///< ...plus n_small cores of this area.
    unsigned n_small = 16;
    double big_sd = 0.2;    ///< Perf stddev as a share of sqrt(area).
    double small_sd = 0.2;
    double big_yield = 0.754;
    double small_yield = 0.98;
    double rho = 0.3;       ///< f/c copula correlation; 0 = none.
    double reference = 20;
    std::size_t trials = 1000000;
    std::uint64_t seed = 1;

    /** @return the spec text (threads 1, quadratic risk). */
    std::string text() const;

    /** @return the `uncertain f ...` line for the current f. */
    std::string fLine() const;

    /** @return the `uncertain P_big ...` line for the current big_sd. */
    std::string bigLine() const;

    /** Closed-form speedup of one trial (0 when no core works). */
    static double speedup(double f, double c, double p_big,
                          double p_small, double n_big, double n_small);
};

/**
 * Draw a correlated spec of chip shape @p shape (0: 1x128 + 16x8,
 * 1: 1x64 + 12x16, 2: 1x128 + 32x4) from the generator state @p rng
 * (see README).
 */
HmSpec generateHm(std::uint64_t &rng, std::size_t shape, std::size_t trials);

/** Reference estimates with their standard errors. */
struct HmOracle
{
    double mean = 0.0;
    double se_mean = 0.0;
    double stddev = 0.0;
    double p_below = 0.0;
    double se_p = 0.0;
};

/** Plain Monte-Carlo estimate of E[Speedup] and P(Speedup < reference). */
HmOracle oracleHm(const HmSpec &spec, std::size_t n, std::uint64_t seed);

} // namespace rb

#endif // RISKBENCH_HM_SPEC_HH
