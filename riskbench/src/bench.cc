#include "bench.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <spawn.h>
#include <stdexcept>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace rb
{

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

void
Tracer::record(const std::string &name, Clock::time_point t0,
               Clock::time_point t1, std::uint32_t thread)
{
    if (!enabled_)
        return;
    const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    std::lock_guard<std::mutex> lk(m_);
    spans_.push_back({name, us(t0), us(t1), thread});
}

void
Tracer::writeJson(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(m_);
    std::ostringstream os;
    os << "{\"traceEvents\":[";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                      i ? ",\n" : "\n", s.name.c_str(), s.thread,
                      s.start_us, s.end_us - s.start_us);
        os << buf;
    }
    os << "\n]}\n";
    writeFile(path, os.str());
}

void
Ledger::attempt(const std::string &kind, bool ok)
{
    std::lock_guard<std::mutex> lk(m_);
    auto &[n, bad] = ops_[kind];
    ++n;
    if (!ok)
        ++bad;
}

void
Ledger::wrong(const std::string &what)
{
    std::lock_guard<std::mutex> lk(m_);
    problems_.push_back(what);
}

void
Ledger::require(bool cond, const std::string &what)
{
    if (!cond)
        wrong(what);
}

bool
Ledger::correct() const
{
    std::lock_guard<std::mutex> lk(m_);
    return problems_.empty();
}

std::uint64_t
Ledger::attempted() const
{
    std::lock_guard<std::mutex> lk(m_);
    std::uint64_t n = 0;
    for (const auto &kv : ops_)
        n += kv.second.first;
    return n;
}

std::uint64_t
Ledger::failed() const
{
    std::lock_guard<std::mutex> lk(m_);
    std::uint64_t n = 0;
    for (const auto &kv : ops_)
        n += kv.second.second;
    return n;
}

std::string
Ledger::opsJson() const
{
    std::lock_guard<std::mutex> lk(m_);
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (const auto &[kind, counts] : ops_) {
        os << (first ? "" : ", ") << '"' << kind
           << "\": {\"attempted\": " << counts.first
           << ", \"failed\": " << counts.second << '}';
        first = false;
    }
    os << '}';
    return os.str();
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    if (!values_.count(name))
        names_.push_back(name);
    values_[name] = {value, unit};
}

void
Metrics::append(const Metrics &other)
{
    for (const auto &name : other.names_) {
        const auto &[value, unit] = other.values_.at(name);
        set(name, value, unit);
    }
}

std::vector<std::string>
Metrics::unmeasured() const
{
    std::vector<std::string> out;
    for (const auto &name : names_) {
        if (!std::isfinite(values_.at(name).first))
            out.push_back(name);
    }
    return out;
}

std::string
Metrics::json() const
{
    std::ostringstream os;
    os << '{';
    char buf[64];
    for (std::size_t i = 0; i < names_.size(); ++i) {
        const auto &[value, unit] = values_.at(names_[i]);
        // JSON has no NaN/Inf; a metric that could not be measured
        // is reported as null (and the run is marked incorrect by
        // the caller).
        if (std::isfinite(value))
            std::snprintf(buf, sizeof(buf), "%.10g", value);
        else
            std::snprintf(buf, sizeof(buf), "null");
        os << (i ? ", " : "") << '"' << names_[i]
           << "\": {\"value\": " << buf << ", \"unit\": \"" << unit
           << "\"}";
    }
    os << '}';
    return os.str();
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

ProcResult
runProcess(const std::vector<std::string> &argv,
           const std::string &out_path)
{
    std::vector<char *> cargv;
    for (const auto &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, out_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    ProcResult r;
    pid_t pid = 0;
    const auto t0 = Clock::now();
    const int rc =
        posix_spawn(&pid, cargv[0], &fa, nullptr, cargv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
        throw std::runtime_error("cannot start " + argv[0]);
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR)
            throw std::runtime_error("wait4 failed for " + argv[0]);
    }
    r.wall_ms = msSince(t0);
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    r.out = readFile(out_path);
    return r;
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

std::string
field(const std::string &line, const std::string &key)
{
    const std::string pat = key + "=";
    std::size_t pos = 0;
    while ((pos = line.find(pat, pos)) != std::string::npos) {
        if (pos == 0 || line[pos - 1] == ' ') {
            const auto b = pos + pat.size();
            const auto e = line.find_first_of(" \r\n", b);
            return line.substr(b, e == std::string::npos ? e : e - b);
        }
        pos += pat.size();
    }
    return "";
}

std::string
cliField(const std::string &report, const std::string &label)
{
    std::istringstream in(report);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(label, 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        auto v = line.substr(colon + 1);
        const auto b = v.find_first_not_of(' ');
        return b == std::string::npos ? "" : v.substr(b);
    }
    return "";
}

double
num(const std::string &s)
{
    if (s.empty())
        return std::nan("");
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    return end == s.c_str() + s.size() ? v : std::nan("");
}

std::uint64_t
mix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
unit(std::uint64_t &state)
{
    return static_cast<double>(mix(state) >> 11) * 0x1.0p-53;
}

} // namespace rb
