/**
 * @file
 * serve_whatif: `archriskd --workers 2` driven over TCP by 2
 * closed-loop clients, each waiting for its reply before sending the
 * next request (an analyst at a prompt).  Every client round holds
 * the same seeded-order request mix; after the timed phase one
 * slow-reader stall probe runs per client round.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fcntl.h>
#include <map>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <spawn.h>
#include <sstream>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "bench.hh"
#include "core/framework.hh"
#include "core/spec.hh"
#include "hm_spec.hh"

extern char **environ;

namespace rb
{

namespace
{

constexpr std::size_t kClients = 2;
constexpr std::size_t kSetups = 15;
constexpr std::size_t kRunTrials = 100000;
constexpr std::size_t kBigRunTrials = 1000000;
constexpr std::size_t kSweepTrials = 500;
constexpr std::size_t kSensTrials = 4096;
constexpr std::size_t kSweepDesigns = 1225;
constexpr std::size_t kPlainRunsPerRound = 6;
constexpr std::size_t kMinTracedRuns = 100;
constexpr double kSigmas = 5.0;
const char *const kApps[] = {"HPLC", "HPHC", "LPLC", "LPHC"};
const char *const kSweepSigma[] = {"0.2", "0.4", "0.8"};

/** archriskd child process; stopped (SIGTERM, then waited) on scope exit. */
class Daemon
{
  public:
    Daemon(const RunArgs &args, const std::string &log)
    {
        std::vector<std::string> argv{args.daemon(), "--workers", "2",
                                      "--port", "0"};
        std::vector<char *> cargv;
        for (auto &a : argv)
            cargv.push_back(a.data());
        cargv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, "/dev/null",
                                         O_WRONLY, 0);
        const int rc = posix_spawn(&pid_, cargv[0], &fa, nullptr,
                                   cargv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0)
            throw std::runtime_error("cannot start archriskd");
        // The daemon prints "listening on HOST:PORT" once bound.
        const auto t0 = Clock::now();
        while (port_ == 0) {
            const std::string out = readFile(log);
            const auto at = out.find("listening on ");
            const auto nl = out.find('\n', at);
            if (at != std::string::npos && nl != std::string::npos) {
                port_ = std::atoi(
                    out.substr(out.rfind(':', nl) + 1).c_str());
                break;
            }
            const pid_t exited = waitpid(pid_, nullptr, WNOHANG);
            if (exited != 0 || msSince(t0) > 30000) {
                if (exited == 0) {
                    ::kill(pid_, SIGKILL);
                    waitpid(pid_, nullptr, 0);
                }
                throw std::runtime_error("archriskd did not start");
            }
            usleep(200);
        }
    }

    ~Daemon()
    {
        ::kill(pid_, SIGTERM);
        int status = 0;
        const auto t0 = Clock::now();
        while (waitpid(pid_, &status, WNOHANG) == 0) {
            if (msSince(t0) > 20000) {
                ::kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                break;
            }
            usleep(1000);
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int port() const { return port_; }

    /** @return the daemon's peak RSS so far (VmHWM) in MiB. */
    double peakRssMb() const
    {
        const std::string status =
            readFile("/proc/" + std::to_string(pid_) + "/status");
        const auto at = status.find("VmHWM:");
        if (at == std::string::npos)
            return std::nan("");
        return std::atof(status.c_str() + at + 6) / 1024.0;
    }

  private:
    pid_t pid_ = 0;
    int port_ = 0;
};

/** Blocking line-protocol client connection. */
class Conn
{
  public:
    explicit Conn(int port, int rcvbuf = 0)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw std::runtime_error("socket failed");
        if (rcvbuf > 0)
            setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
        const int one = 1;
        setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        timeval tv{120, 0};
        setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            throw std::runtime_error("connect to archriskd failed");
        }
    }

    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    int fd() const { return fd_; }

    void send(const std::string &data)
    {
        std::size_t off = 0;
        while (off < data.size()) {
            const ssize_t n = ::send(fd_, data.data() + off,
                                     data.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("send to archriskd failed");
            off += static_cast<std::size_t>(n);
        }
    }

    std::string readLine()
    {
        for (;;) {
            const auto nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            fill();
        }
    }

    std::string readBytes(std::size_t n)
    {
        while (buf_.size() < n)
            fill();
        std::string out = buf_.substr(0, n);
        buf_.erase(0, n);
        return out;
    }

    /** Send @p line (plus @p body) and return the reply line. */
    std::string ask(const std::string &line, const std::string &body = "")
    {
        send(line + "\n" + body);
        return readLine();
    }

    /** ask() for a streamed RUN: PART lines go to @p parts. */
    std::string askStreamed(const std::string &line,
                            std::vector<std::string> &parts)
    {
        send(line + "\n");
        for (;;) {
            std::string l = readLine();
            if (l.rfind("PART ", 0) != 0)
                return l;
            parts.push_back(std::move(l));
        }
    }

  private:
    void fill()
    {
        char tmp[65536];
        const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
        if (n < 0 && errno == EINTR)
            return;
        if (n <= 0)
            throw std::runtime_error("archriskd closed or timed out");
        buf_.append(tmp, static_cast<std::size_t>(n));
    }

    int fd_ = -1;
    std::string buf_;
};

std::string
uploadLine(const std::string &verb, const std::string &model,
           const std::string &body)
{
    return verb + " " + model + " " + std::to_string(body.size());
}

/** The run's models, generated from the seed. */
struct Models
{
    HmSpec hm;           ///< Correlated Hill-Marty ("hm", "edit<i>").
    HmSpec flat;         ///< Same without `correlate` ("hm_flat").
    std::string mem;     ///< memory_hierarchy.spec text ("mem").
    std::string ci_target; ///< RUN ci_target= value (see calibrateCi).
};

Models
makeModels(const RunArgs &args)
{
    Models m;
    std::uint64_t rng = args.seed * 0x2545f4914f6cdd1dull + 3;
    m.hm = generateHm(rng, 0, kRunTrials);
    m.flat = m.hm;
    m.flat.rho = 0.0;
    m.mem = readFile(args.root + "/examples/specs/memory_hierarchy.spec");
    return m;
}

/** Upload every model; returns per-upload round trips (ms). */
std::vector<double>
uploadAll(Conn &c, const Models &m, Tracer &tracer, Ledger &ledger)
{
    std::vector<std::pair<std::string, std::string>> models{
        {"hm", m.hm.text()}, {"hm_flat", m.flat.text()}, {"mem", m.mem}};
    for (std::size_t i = 0; i < kClients; ++i)
        models.emplace_back("edit" + std::to_string(i), m.hm.text());
    std::vector<double> ms;
    for (const auto &[name, text] : models) {
        const auto t0 = Clock::now();
        const std::string reply = c.ask(uploadLine("UPLOAD", name, text), text);
        tracer.record("serve.upload", t0, Clock::now());
        ms.push_back(msSince(t0));
        ledger.require(reply.rfind("OK uploaded", 0) == 0,
                       "serve: UPLOAD " + name + " answered: " + reply);
    }
    return ms;
}

/** Start archriskd, wait for PING, upload every model. */
struct Started
{
    std::unique_ptr<Daemon> daemon;
    std::vector<double> upload_ms;
    double setup_s = 0.0;
};

Started
startServer(const RunArgs &args, const Models &m, Tracer &tracer,
            Ledger &ledger)
{
    Started s;
    const auto t0 = Clock::now();
    s.daemon = std::make_unique<Daemon>(args, args.work_dir + "/archriskd.log");
    Conn c(s.daemon->port());
    ledger.require(c.ask("PING") == "OK pong", "serve: PING not answered");
    s.upload_ms = uploadAll(c, m, tracer, ledger);
    s.setup_s = msSince(t0) / 1000.0;
    return s;
}

/** Exact E[BW | no unmodeled state] and stddev of the memory model. */
std::pair<double, double>
enumerateMemory(const std::string &text)
{
    // The spec's `states` lines give each component's (level, prob).
    std::map<std::string, std::vector<std::pair<double, double>>> comps;
    double peak = std::nan("");
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string head, name;
        ls >> head >> name;
        if (head == "fixed" && name == "PeakBW")
            ls >> peak;
        if (head != "states")
            continue;
        std::string tok;
        while (ls >> tok && tok[0] != '#') {
            const auto a = tok.find(':'), b = tok.rfind(':');
            comps[name].push_back({std::atof(tok.c_str() + a + 1),
                                   std::atof(tok.c_str() + b + 1)});
        }
    }
    const std::vector<std::string> order{"Ch0", "Ch1", "Ch2", "Ch3",
                                         "Ctrl", "L3a", "L3b"};
    for (const auto &n : order) {
        if (comps[n].empty())
            throw std::runtime_error("memory model lacks states " + n);
    }
    // The model below is the spec's own; refuse a spec that changed it.
    for (const char *eq :
         {"BW = PeakBW * Structure * ChannelAvg",
          "ChannelAvg = (Ch0 + Ch1 + Ch2 + Ch3) / 4",
          "structure kofn(2, Ch0, Ch1, Ch2, Ch3) * series(Ctrl, "
          "parallel(L3a, L3b))"}) {
        if (text.find(eq) == std::string::npos)
            throw std::runtime_error(std::string("memory model lacks '") +
                                     eq + "'");
    }
    // BW = PeakBW * kofn(2, Ch0..Ch3) * Ctrl * max(L3a, L3b)
    //      * mean(Ch0..Ch3), summed over every state combination.
    double mass = 0.0, s1 = 0.0, s2 = 0.0;
    std::vector<std::size_t> idx(order.size(), 0);
    for (;;) {
        double p = 1.0;
        std::vector<double> lv(order.size());
        for (std::size_t k = 0; k < order.size(); ++k) {
            lv[k] = comps[order[k]][idx[k]].first;
            p *= comps[order[k]][idx[k]].second;
        }
        const int up = (lv[0] > 0) + (lv[1] > 0) + (lv[2] > 0) + (lv[3] > 0);
        const double bw = peak * (up >= 2 ? 1.0 : 0.0) * lv[4] *
                          std::max(lv[5], lv[6]) *
                          (lv[0] + lv[1] + lv[2] + lv[3]) / 4.0;
        mass += p;
        s1 += p * bw;
        s2 += p * bw * bw;
        std::size_t k = 0;
        while (k < order.size() && ++idx[k] == comps[order[k]].size())
            idx[k++] = 0;
        if (k == order.size())
            break;
    }
    const double mean = s1 / mass;
    return {mean, std::sqrt(std::max(0.0, s2 / mass - mean * mean))};
}

enum class Op
{
    Run,
    RunBig,
    RunStream,
    RunCi,
    EditRerun,
    Sweep,
    Sens,
    RunMem,
    Ping,
    Metrics,
};

/** One client round: the same multiset of requests every time. */
std::vector<Op>
roundMix()
{
    std::vector<Op> ops{Op::RunBig, Op::RunStream, Op::RunCi, Op::EditRerun,
                        Op::Sweep,  Op::Sens,      Op::RunMem, Op::Ping,
                        Op::Ping,   Op::Metrics};
    ops.insert(ops.end(), kPlainRunsPerRound, Op::Run);
    return ops;
}

/** What one client saw, for the medians and the post-run checks. */
struct ClientLog
{
    std::vector<double> run_ms, edit_rerun_ms;
    std::map<std::string, std::vector<double>> verb_ms;
    std::map<std::uint64_t, std::string> plain;  ///< seed -> RUN reply
    std::map<std::uint64_t, std::string> streamed;
    std::vector<std::string> mem_replies;
    /// (patched spec, seed, RERUN reply) of the first and last edit.
    std::vector<std::tuple<HmSpec, std::uint64_t, std::string>> edits;
    double trials = 0.0;
    std::size_t rounds = 0;
};

struct Shared
{
    const Models &models;
    Ledger &ledger;
    Tracer &tracer;
    std::atomic<std::size_t> plain_runs{0};
};

bool
ok(const std::string &reply, const char *prefix)
{
    return reply.rfind(prefix, 0) == 0;
}

/** Closed loop: whole rounds until @p dl passes (and @p min_runs). */
void
clientLoop(int port, std::size_t client, std::uint64_t seed,
           const Deadline &dl, std::size_t min_runs, Shared &sh,
           ClientLog &log)
{
    Conn c(port);
    std::uint64_t rng = seed * 0x9e3779b97f4a7c15ull + client * 7919 + 1;
    const std::string edit_model = "edit" + std::to_string(client);
    HmSpec edit_spec = sh.models.hm;
    // A small set of seeds per client, so repeated RUNs can be
    // compared byte for byte.
    const std::uint64_t seeds[3] = {1 + mix(rng) % 100000,
                                    1 + mix(rng) % 100000,
                                    1 + mix(rng) % 100000};
    const std::string trials = " trials=" + std::to_string(kRunTrials);
    auto timed = [&](const std::string &span, auto &&fn) {
        const auto t0 = Clock::now();
        fn();
        const auto t1 = Clock::now();
        sh.tracer.record(span, t0, t1,
                         static_cast<std::uint32_t>(client + 1));
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        log.verb_ms[span].push_back(ms);
        return ms;
    };
    auto check = [&](const std::string &kind, const std::string &reply,
                     const char *prefix) {
        const bool good = ok(reply, prefix);
        sh.ledger.attempt(kind, good);
        sh.ledger.require(good, "serve: " + kind + " answered: " + reply);
        return good;
    };

    while (log.rounds == 0 || !dl.passed() ||
           sh.plain_runs.load() < min_runs) {
        auto ops = roundMix();
        for (std::size_t i = ops.size(); i > 1; --i)
            std::swap(ops[i - 1], ops[mix(rng) % i]);
        for (const Op op : ops) {
            const std::uint64_t s = seeds[mix(rng) % 3];
            std::string reply;
            switch (op) {
              case Op::Run: {
                const double ms = timed("serve.run", [&] {
                    reply = c.ask("RUN hm" + trials +
                                  " seed=" + std::to_string(s));
                });
                if (check("run", reply, "OK run")) {
                    log.run_ms.push_back(ms);
                    log.trials += kRunTrials;
                    auto [it, fresh] = log.plain.emplace(s, reply);
                    sh.ledger.require(fresh || it->second == reply,
                                      "serve: a repeated RUN answered "
                                      "differently");
                }
                ++sh.plain_runs;
                break;
              }
              case Op::RunBig:
                timed("serve.run_1m", [&] {
                    reply = c.ask("RUN hm trials=" +
                                  std::to_string(kBigRunTrials) +
                                  " seed=" + std::to_string(s));
                });
                if (check("run_1m", reply, "OK run"))
                    log.trials += kBigRunTrials;
                break;
              case Op::RunStream: {
                std::vector<std::string> parts;
                timed("serve.run_stream", [&] {
                    reply = c.askStreamed("RUN hm" + trials + " seed=" +
                                              std::to_string(s) +
                                              " stream=8",
                                          parts);
                });
                if (check("run_stream", reply, "OK run")) {
                    log.trials += kRunTrials;
                    sh.ledger.require(!parts.empty(),
                                      "serve: stream=8 sent no PART lines");
                    log.streamed[s] = reply;
                }
                break;
              }
              case Op::RunCi:
                timed("serve.run_ci", [&] {
                    reply = c.ask("RUN hm" + trials + " seed=" +
                                  std::to_string(s) + " ci_target=" +
                                  sh.models.ci_target);
                });
                if (check("run_ci", reply, "OK run")) {
                    const double eff = num(field(reply, "effective"));
                    sh.ledger.require(eff > 0 && eff < kRunTrials,
                                      "serve: ci_target did not stop the "
                                      "run early: " + reply);
                    log.trials += eff;
                }
                break;
              case Op::EditRerun: {
                const bool f_edit = mix(rng) % 2 == 0;
                if (f_edit)
                    edit_spec.f_p = std::round((0.85 + 0.1 * unit(rng)) *
                                               1000.0) / 1000.0;
                else
                    edit_spec.big_sd =
                        std::round((0.1 + 0.2 * unit(rng)) * 100.0) / 100.0;
                const std::string body =
                    f_edit ? edit_spec.fLine() : edit_spec.bigLine();
                std::string edit_reply;
                const double ms = timed("serve.edit_rerun", [&] {
                    timed("serve.edit", [&] {
                        edit_reply =
                            c.ask(uploadLine("EDIT", edit_model, body), body);
                    });
                    timed("serve.rerun", [&] {
                        reply = c.ask("RERUN " + edit_model + trials +
                                      " seed=" + std::to_string(s));
                    });
                });
                check("edit", edit_reply, "OK edit");
                if (check("rerun", reply, "OK rerun")) {
                    log.edit_rerun_ms.push_back(ms);
                    log.trials += kRunTrials;
                    if (log.edits.size() < 2)
                        log.edits.emplace_back(edit_spec, s, reply);
                    else
                        log.edits.back() = std::make_tuple(edit_spec, s, reply);
                }
                break;
              }
              case Op::Sweep: {
                const std::string req =
                    std::string("SWEEP app=") + kApps[mix(rng) % 4] +
                    " sigma=" + kSweepSigma[mix(rng) % 3] +
                    " trials=" + std::to_string(kSweepTrials) +
                    " seed=" + std::to_string(s);
                timed("serve.sweep", [&] { reply = c.ask(req); });
                if (check("sweep", reply, "OK sweep")) {
                    sh.ledger.require(field(reply, "designs") ==
                                          std::to_string(kSweepDesigns),
                                      "serve: SWEEP covered another "
                                      "design count: " + reply);
                    log.trials += kSweepDesigns * kSweepTrials;
                }
                break;
              }
              case Op::Sens:
                timed("serve.sens", [&] {
                    reply = c.ask("SENS hm_flat trials=" +
                                  std::to_string(kSensTrials) +
                                  " seed=" + std::to_string(s));
                });
                if (check("sens", reply, "OK sens")) {
                    sh.ledger.require(field(reply, "indices") == "6",
                                      "serve: SENS did not index 6 inputs");
                    log.trials += kSensTrials;
                }
                break;
              case Op::RunMem:
                timed("serve.run_mem", [&] {
                    reply = c.ask("RUN mem" + trials +
                                  " seed=" + std::to_string(s));
                });
                if (check("run_mem", reply, "OK run")) {
                    log.trials += kRunTrials;
                    log.mem_replies.push_back(reply);
                }
                break;
              case Op::Ping:
                timed("serve.ping", [&] { reply = c.ask("PING"); });
                check("ping", reply, "OK pong");
                break;
              case Op::Metrics: {
                std::string body;
                timed("serve.metrics", [&] {
                    reply = c.ask("METRICS");
                    const double n = num(field(reply, "nbytes"));
                    if (n > 0)
                        body = c.readBytes(static_cast<std::size_t>(n));
                });
                if (check("metrics", reply, "OK metrics"))
                    sh.ledger.require(!body.empty() && body[0] == '{',
                                      "serve: METRICS body is not JSON");
                break;
              }
            }
        }
        ++log.rounds;
    }
}

/**
 * One slow-reader stall probe.  A connection with a small receive
 * buffer pipelines METRICS requests and never reads: 40000 of them
 * (320 KB) ask for tens of MB of replies, far more than the socket
 * buffers hold, so the event loop ends up writing to a peer that does
 * not read.  A second connection's PING, sent 20 ms later, must be
 * answered within 200 ms.  @return whether it was.  The daemon must
 * answer that PING once the flooding connection is reset.
 */
bool
stallProbe(int port, Ledger &ledger)
{
    constexpr int kFloodRequests = 40000;
    constexpr double kStuckMs = 50;
    constexpr int kSettleMs = 20, kDeadlineMs = 200;
    Conn probe(port);
    ledger.require(probe.ask("PING") == "OK pong",
                   "stall probe: PING not answered before the flood");
    bool answered = false;
    {
        Conn flood(port, 4096);
        fcntl(flood.fd(), F_SETFL, fcntl(flood.fd(), F_GETFL) | O_NONBLOCK);
        std::string burst;
        for (int i = 0; i < kFloodRequests; ++i)
            burst += "METRICS\n";
        std::size_t sent = 0;
        auto stuck_since = Clock::now();
        while (sent < burst.size() && msSince(stuck_since) < kStuckMs) {
            const ssize_t n = ::send(flood.fd(), burst.data() + sent,
                                     burst.size() - sent, MSG_NOSIGNAL);
            if (n > 0) {
                sent += static_cast<std::size_t>(n);
                stuck_since = Clock::now();
                continue;
            }
            pollfd pfd{flood.fd(), POLLOUT, 0};
            ::poll(&pfd, 1, 5);
        }
        usleep(kSettleMs * 1000);
        probe.send("PING\n");
        pollfd pfd{probe.fd(), POLLIN, 0};
        answered = ::poll(&pfd, 1, kDeadlineMs) > 0;
        const linger rst{1, 0};
        setsockopt(flood.fd(), SOL_SOCKET, SO_LINGER, &rst, sizeof(rst));
    }
    ledger.require(probe.readLine() == "OK pong",
                   "stall probe: daemon did not recover after the reset");
    return answered;
}

/** Everything checked after the timed phase, on a fresh connection. */
void
postChecks(int port, const Models &m, const std::vector<ClientLog> &logs,
           Ledger &ledger)
{
    Conn c(port);
    const std::string trials = " trials=" + std::to_string(kRunTrials);
    std::map<std::uint64_t, std::string> plain;
    for (const auto &log : logs) {
        for (const auto &[s, r] : log.plain) {
            auto [it, fresh] = plain.emplace(s, r);
            ledger.require(fresh || it->second == r,
                           "serve: RUN differs between connections");
        }
    }
    // A PART-stripped stream=N reply equals the plain reply.
    for (const auto &log : logs) {
        for (const auto &[s, r] : log.streamed) {
            auto it = plain.find(s);
            const std::string want =
                it != plain.end()
                    ? it->second
                    : c.ask("RUN hm" + trials + " seed=" + std::to_string(s));
            ledger.require(r == want, "serve: stream=8 reply differs from "
                                      "the plain RUN reply");
        }
    }
    // RERUN after EDIT == UPLOAD + RUN of the patched spec.
    for (const auto &log : logs) {
        for (const auto &[spec, s, rerun] : log.edits) {
            const std::string text = spec.text();
            const std::string up =
                c.ask(uploadLine("UPLOAD", "patched", text), text);
            const std::string run =
                c.ask("RUN patched" + trials + " seed=" + std::to_string(s));
            const auto tail = [](const std::string &r) {
                const auto at = r.find(" output=");
                return at == std::string::npos ? r : r.substr(at);
            };
            ledger.require(ok(up, "OK uploaded") && ok(run, "OK run") &&
                               tail(run) == tail(rerun),
                           "serve: RERUN after EDIT differs from UPLOAD+RUN "
                           "of the patched spec");
        }
    }
    // Multi-state model vs exact enumeration.
    const auto [mean, sd] = enumerateMemory(m.mem);
    for (const auto &log : logs) {
        for (const auto &r : log.mem_replies) {
            const double got = num(field(r, "mean"));
            const double eff = num(field(r, "effective"));
            ledger.require(eff > 0 && std::fabs(got - mean) <=
                                          kSigmas * sd / std::sqrt(eff),
                           "serve: memory-hierarchy mean " + field(r, "mean") +
                               " vs exact " + std::to_string(mean));
        }
    }
}

/** Choose ci_target = twice the CI half-width of the last 100-block frame. */
std::string
calibrateCi(int port, const Models &m)
{
    Conn c(port);
    std::vector<std::string> parts;
    c.askStreamed("RUN hm trials=" + std::to_string(kRunTrials) + " seed=" +
                      std::to_string(m.hm.seed) + " stream=100",
                  parts);
    const double ci = parts.empty() ? std::nan("")
                                    : num(field(parts.back(), "ci"));
    if (!(ci > 0))
        throw std::runtime_error("serve: cannot read the RUN CI half-width");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", 2.0 * ci);
    return buf;
}

struct Traffic
{
    std::vector<ClientLog> logs;
    double wall_ms = 0.0;
    double peak_rss_mb = 0.0;
    std::size_t rounds = 0;
};

/** The timed phase, the stall probes and the checks. */
Traffic
runTraffic(const RunArgs &args, Models &m, Daemon &d, double seconds,
           std::size_t min_runs, Tracer &tracer, Ledger &ledger)
{
    m.ci_target = calibrateCi(d.port(), m);
    Traffic t;
    t.logs.resize(kClients);
    Shared sh{m, ledger, tracer};
    const Deadline dl(seconds);
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    std::vector<std::string> errors(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            try {
                clientLoop(d.port(), i, args.seed, dl, min_runs, sh,
                           t.logs[i]);
            } catch (const std::exception &e) {
                errors[i] = e.what();
            }
        });
    }
    for (auto &th : threads)
        th.join();
    t.wall_ms = msSince(t0);
    for (const auto &e : errors) {
        if (!e.empty())
            throw std::runtime_error("serve client: " + e);
    }
    t.peak_rss_mb = d.peakRssMb();
    for (const auto &log : t.logs)
        t.rounds += log.rounds;
    for (std::size_t r = 0; r < t.rounds; ++r)
        ledger.attempt("stall_probe", stallProbe(d.port(), ledger));
    postChecks(d.port(), m, t.logs, ledger);
    return t;
}

std::vector<double>
concat(const std::vector<ClientLog> &logs,
       std::vector<double> ClientLog::*f)
{
    std::vector<double> out;
    for (const auto &l : logs)
        out.insert(out.end(), (l.*f).begin(), (l.*f).end());
    return out;
}

} // namespace

E2E
measureServe(const RunArgs &args, Ledger &ledger)
{
    E2E e;
    Models m = makeModels(args);
    std::vector<double> setups;
    std::unique_ptr<Daemon> d;
    Tracer off(false);
    for (std::size_t k = 0; k < kSetups; ++k) {
        d.reset(); // the previous set-up's daemon stops first
        Started s = startServer(args, m, off, ledger);
        setups.push_back(s.setup_s);
        d = std::move(s.daemon);
    }
    e.setup_s = median(setups);

    const Traffic t = runTraffic(args, m, *d, args.seconds, 0, off, ledger);
    e.answer_ms = median(concat(t.logs, &ClientLog::run_ms));
    e.alt_answer_ms = median(concat(t.logs, &ClientLog::edit_rerun_ms));
    double trials = 0.0;
    for (const auto &l : t.logs)
        trials += l.trials;
    e.trials_per_s = trials / (t.wall_ms / 1000.0);
    e.peak_rss_mb = t.peak_rss_mb;
    return e;
}

void
layersServe(const RunArgs &args, Tracer &tracer, Ledger &ledger,
            double min_seconds, LayerReport &out)
{
    Models m = makeModels(args);
    Started s = startServer(args, m, tracer, ledger);
    const Traffic t = runTraffic(args, m, *s.daemon, min_seconds,
                                 kMinTracedRuns, tracer, ledger);
    std::map<std::string, std::vector<double>> verb;
    for (const auto &l : t.logs) {
        for (const auto &[k, v] : l.verb_ms)
            verb[k].insert(verb[k].end(), v.begin(), v.end());
    }
    const std::vector<double> runs = concat(t.logs, &ClientLog::run_ms);

    // The same RUN in process: Framework::analyze, threads 1, streamed.
    const auto spec = ar::core::parseSpec(m.hm.text());
    const auto fn = ar::core::makeRiskFunction(spec.risk);
    ar::mc::PropagationConfig pc{kRunTrials, "latin-hypercube", 1,
                                 spec.fault_policy};
    pc.stream.keep_samples = false;
    ar::core::Framework fw(pc);
    fw.setSystem(spec.system);
    fw.compiled(spec.output);
    std::vector<double> analyze_ms;
    for (int k = 0; k < 5; ++k) {
        const auto t0 = Clock::now();
        fw.analyze(spec.output, spec.bindings, *fn, *spec.reference,
                   spec.seed);
        const auto t1 = Clock::now();
        tracer.record("core.analyze.serve_run", t0, t1);
        analyze_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }

    auto &mt = out.metrics;
    mt.set("serve.run_p90_ms", quantile(runs, 0.9), "ms");
    mt.set("serve.run_stream_ms", median(verb["serve.run_stream"]), "ms");
    mt.set("serve.run_ci_ms", median(verb["serve.run_ci"]), "ms");
    mt.set("serve.run_1m_ms", median(verb["serve.run_1m"]), "ms");
    mt.set("serve.edit_ms", median(verb["serve.edit"]), "ms");
    mt.set("serve.rerun_ms", median(verb["serve.rerun"]), "ms");
    mt.set("serve.upload_ms", median(s.upload_ms), "ms");
    mt.set("serve.sweep_ms", median(verb["serve.sweep"]), "ms");
    mt.set("serve.sens_ms", median(verb["serve.sens"]), "ms");
    mt.set("serve.ping_ms", median(verb["serve.ping"]), "ms");
    const double run = median(runs);
    mt.set("serve.overhead_ms", run - median(analyze_ms), "ms");
    out.traced_answer_ms = run;
    out.unattributed_ms = run - median(analyze_ms);
}

} // namespace rb
