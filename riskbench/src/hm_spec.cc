#include "hm_spec.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

#include "bench.hh"

namespace rb
{

namespace
{

double
roundTo(double x, double step)
{
    return std::round(x / step) * step;
}

std::string
fmt(double x)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", x);
    return buf;
}

/** Mean performance of a core of @p area (Pollack's rule), as written. */
double
perfMean(double area)
{
    return roundTo(std::sqrt(area), 0.0001);
}

/** Performance stddev, @p share of the mean, as written. */
double
perfSd(double area, double share)
{
    return roundTo(perfMean(area) * share, 0.0001);
}

/** Fabrication yield of a core of @p area (Table-2 style exponential). */
double
yieldOf(double area)
{
    return roundTo(std::exp(-0.0022 * area), 0.001);
}

/** Inverse CDF of Binomial(m, p): smallest k with CDF(k) >= u. */
class BinomialQuantile
{
  public:
    BinomialQuantile(unsigned m, double p) : cdf_(m + 1)
    {
        double acc = 0.0;
        for (unsigned k = 0; k <= m; ++k) {
            const double log_pmf =
                std::lgamma(m + 1.0) - std::lgamma(k + 1.0) -
                std::lgamma(m - k + 1.0) + k * std::log(p) +
                (m - k) * std::log1p(-p);
            acc += std::exp(log_pmf);
            cdf_[k] = acc;
        }
    }

    unsigned operator()(double u) const
    {
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return it == cdf_.end()
                   ? static_cast<unsigned>(cdf_.size() - 1)
                   : static_cast<unsigned>(it - cdf_.begin());
    }

  private:
    std::vector<double> cdf_;
};

/** Log-space parameters of a log-normal with this mean and stddev. */
std::lognormal_distribution<double>
lognormalMs(double mean, double sd)
{
    const double s2 = std::log1p((sd * sd) / (mean * mean));
    return std::lognormal_distribution<double>(std::log(mean) - s2 / 2,
                                               std::sqrt(s2));
}

double
phi(double z)
{
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

} // namespace

std::string
HmSpec::fLine() const
{
    return "uncertain f normbinomial " + std::to_string(f_m) + " " +
           fmt(f_p) + "\n";
}

std::string
HmSpec::bigLine() const
{
    return "uncertain P_big lognormal-ms " + fmt(perfMean(big_area)) +
           " " + fmt(perfSd(big_area, big_sd)) + "\n";
}

std::string
HmSpec::text() const
{
    std::string t;
    t += "# Hill-Marty asymmetric CMP: 1x" + fmt(big_area) + " + " +
         std::to_string(n_small) + "x" + fmt(small_area) +
         " (generated)\n";
    t += "Speedup = 1 / (T_seq + T_par)\n";
    t += "T_seq = (1 - f + c * N_total) / P_serial\n";
    t += "T_par = f / P_parallel\n";
    t += "P_serial = max(P_big * gtz(N_big), P_small * gtz(N_small))\n";
    t += "P_parallel = N_big * P_big + N_small * P_small\n";
    t += "N_total = N_big + N_small\n";
    t += fLine();
    t += "uncertain c normbinomial " + std::to_string(c_m) + " " +
         fmt(c_p) + "\n";
    t += bigLine();
    t += "uncertain P_small lognormal-ms " + fmt(perfMean(small_area)) +
         " " + fmt(perfSd(small_area, small_sd)) + "\n";
    t += "uncertain N_big binomial 1 " + fmt(big_yield) + "\n";
    t += "uncertain N_small binomial " + std::to_string(n_small) + " " +
         fmt(small_yield) + "\n";
    if (rho != 0.0)
        t += "correlate f c " + fmt(rho) + "\n";
    t += "output Speedup\n";
    t += "reference " + fmt(reference) + "\n";
    t += "risk quadratic\n";
    t += "trials " + std::to_string(trials) + "\n";
    t += "seed " + std::to_string(seed) + "\n";
    t += "threads 1\n";
    return t;
}

double
HmSpec::speedup(double f, double c, double p_big, double p_small,
                double n_big, double n_small)
{
    const double p_serial = std::max(n_big > 0 ? p_big : 0.0,
                                     n_small > 0 ? p_small : 0.0);
    if (p_serial <= 0.0)
        return 0.0; // T_seq = (1 - f) / 0 = inf for every f < 1.
    const double t_seq = (1.0 - f + c * (n_big + n_small)) / p_serial;
    const double t_par = f / (n_big * p_big + n_small * p_small);
    return 1.0 / (t_seq + t_par);
}

HmSpec
generateHm(std::uint64_t &rng, std::size_t shape, std::size_t trials)
{
    // The chip's shape fixes the input dimensions' cost (N_small's
    // binomial walk grows with the small-core count), so it is chosen
    // by index and only the distribution parameters come from the seed.
    static const double kShapes[][2] = {{128, 8}, {64, 16}, {128, 4}};
    HmSpec s;
    s.big_area = kShapes[shape % 3][0];
    s.small_area = kShapes[shape % 3][1];
    s.n_small = static_cast<unsigned>((256 - s.big_area) / s.small_area);
    s.f_p = roundTo(0.85 + 0.10 * unit(rng), 0.001);
    s.f_m = 150 + static_cast<unsigned>(mix(rng) % 250);
    s.c_p = roundTo(0.002 + 0.008 * unit(rng), 0.0001);
    s.c_m = 1500 + static_cast<unsigned>(mix(rng) % 1500);
    s.big_sd = roundTo(0.1 + 0.2 * unit(rng), 0.01);
    s.small_sd = roundTo(0.1 + 0.2 * unit(rng), 0.01);
    s.big_yield = yieldOf(s.big_area);
    s.small_yield = yieldOf(s.small_area);
    s.rho = roundTo(0.2 + 0.3 * unit(rng), 0.01);
    const double nominal = HmSpec::speedup(
        s.f_p, s.c_p, std::sqrt(s.big_area), std::sqrt(s.small_area), 1,
        s.n_small);
    s.reference = roundTo(nominal * (0.45 + 0.2 * unit(rng)), 0.01);
    s.trials = trials;
    s.seed = 1 + mix(rng) % 1000000;
    return s;
}

HmOracle
oracleHm(const HmSpec &s, std::size_t n, std::uint64_t seed)
{
    std::mt19937_64 gen(seed);
    std::normal_distribution<double> normal;
    auto p_big = lognormalMs(perfMean(s.big_area),
                             perfSd(s.big_area, s.big_sd));
    auto p_small = lognormalMs(perfMean(s.small_area),
                               perfSd(s.small_area, s.small_sd));
    std::binomial_distribution<int> n_big(1, s.big_yield);
    std::binomial_distribution<int> n_small(static_cast<int>(s.n_small),
                                            s.small_yield);
    const BinomialQuantile fq(s.f_m, s.f_p);
    const BinomialQuantile cq(s.c_m, s.c_p);
    const double w = std::sqrt(1.0 - s.rho * s.rho);

    double sum = 0.0, sum2 = 0.0;
    std::size_t below = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double z1 = normal(gen);
        const double z2 = s.rho * z1 + w * normal(gen);
        const double f = fq(phi(z1)) / static_cast<double>(s.f_m);
        const double c = cq(phi(z2)) / static_cast<double>(s.c_m);
        const double y = HmSpec::speedup(f, c, p_big(gen), p_small(gen),
                                         n_big(gen), n_small(gen));
        sum += y;
        sum2 += y * y;
        if (y < s.reference)
            ++below;
    }
    HmOracle o;
    const double dn = static_cast<double>(n);
    o.mean = sum / dn;
    o.stddev = std::sqrt(std::max(0.0, (sum2 - dn * o.mean * o.mean) /
                                           (dn - 1.0)));
    o.se_mean = o.stddev / std::sqrt(dn);
    o.p_below = static_cast<double>(below) / dn;
    o.se_p = std::sqrt(std::max(o.p_below * (1.0 - o.p_below), 1.0 / dn) /
                       dn);
    return o;
}

} // namespace rb
