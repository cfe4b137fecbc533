#include "harness/host.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "serve/json.hh"

extern char **environ;

namespace membench
{

namespace
{

std::string
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return (v && *v) ? v : fallback;
}

std::string
quoted(const std::string &s)
{
    return "\"" + memsense::serve::jsonEscape(s) + "\"";
}

} // anonymous namespace

std::string
HostRecord::toJson() const
{
    char steal[32];
    std::snprintf(steal, sizeof steal, "%.4f", stealFrac);
    return "{\"nproc\":" + std::to_string(nproc) +
           ",\"cpu\":" + quoted(cpuModel) + ",\"compiler\":" +
           quoted(compiler) + ",\"build_type\":" + quoted(buildType) +
           ",\"commit\":" + quoted(commit) + ",\"source_digest\":" +
           quoted(sourceDigest) + ",\"steal_frac\":" + steal + "}";
}

HostRecord
hostRecord()
{
    HostRecord h;
    h.nproc = std::thread::hardware_concurrency();
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                h.cpuModel = line.substr(line.find_first_not_of(
                    " \t", colon + 1));
            break;
        }
    }
    if (h.cpuModel.empty())
        h.cpuModel = "unknown";
    h.compiler = MEMBENCH_COMPILER;
    h.buildType = MEMBENCH_BUILD_TYPE;
    h.commit = envOr("MEMBENCH_COMMIT", "unknown");
    h.sourceDigest = envOr("MEMBENCH_SOURCE_DIGEST", "unknown");
    return h;
}

CpuTicks
systemCpuTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    CpuTicks t;
    if (cpu != "cpu")
        return t;
    // user nice system idle iowait irq softirq steal ...
    unsigned long long v = 0;
    for (int i = 0; i < 8 && (in >> v); ++i) {
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

std::string
scratchDir()
{
    const std::string dir = ".bench_build/run";
    std::filesystem::create_directories(dir);
    return dir;
}

std::string
selfExe()
{
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        throw std::runtime_error("cannot resolve /proc/self/exe");
    return std::string(buf, static_cast<std::size_t>(n));
}

Child
spawnChild(const std::vector<std::string> &argv)
{
    int fds[2];
    // Close-on-exec, so later children do not hold this pipe open.
    if (pipe2(fds, O_CLOEXEC) != 0)
        throw std::runtime_error("pipe: " + std::string(strerror(errno)));
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);

    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);

    // The benchmark ignores SIGPIPE; its children start with the
    // default disposition, as they would from a shell.
    posix_spawnattr_t attr;
    posix_spawnattr_init(&attr);
    sigset_t defaults;
    sigemptyset(&defaults);
    sigaddset(&defaults, SIGPIPE);
    posix_spawnattr_setsigdefault(&attr, &defaults);
    posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETSIGDEF);

    Child c;
    const int rc = posix_spawn(&c.pid, args[0], &actions, &attr,
                               args.data(), environ);
    posix_spawnattr_destroy(&attr);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        throw std::runtime_error("cannot start " + argv[0] + ": " +
                                 strerror(rc));
    }
    c.outFd = fds[0];
    return c;
}

std::string
readUntil(int fd, const std::string &marker, int timeout_ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    std::string buf;
    for (;;) {
        const std::size_t nl = buf.find('\n');
        if (nl != std::string::npos) {
            std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            if (line.find(marker) != std::string::npos)
                return line;
            continue;
        }
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0)
            return {};
        pollfd p{fd, POLLIN, 0};
        if (poll(&p, 1, static_cast<int>(left.count())) <= 0)
            continue;
        // One byte at a time: nothing after the marker line is
        // consumed, so later output stays in the pipe for drainOutput.
        char ch = 0;
        const ssize_t n = read(fd, &ch, 1);
        if (n <= 0)
            return {};
        buf.push_back(ch);
    }
}

std::string
drainOutput(int fd, int timeout_ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    std::string out;
    char buf[4096];
    for (;;) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0)
            return out;
        pollfd p{fd, POLLIN, 0};
        if (poll(&p, 1, static_cast<int>(left.count())) <= 0)
            continue;
        const ssize_t n = read(fd, buf, sizeof buf);
        if (n <= 0)
            return out;
        out.append(buf, static_cast<std::size_t>(n));
    }
}

int
waitChild(pid_t pid, int timeout_ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    int status = 0;
    for (;;) {
        const pid_t r = waitpid(pid, &status, WNOHANG);
        if (r == pid)
            break;
        if (r < 0 && errno != EINTR)
            return -1;
        if (std::chrono::steady_clock::now() >= deadline) {
            kill(pid, SIGKILL);
            if (waitpid(pid, &status, 0) != pid)
                return -1;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return -1;
}

double
processCpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, in clock ticks.
    const std::size_t close_paren = text.rfind(')');
    if (close_paren == std::string::npos)
        return 0.0;
    std::istringstream rest(text.substr(close_paren + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && (rest >> field); ++i) {
        if (i == 14)
            utime = std::stoull(field);
        if (i == 15)
            stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

double
peakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

} // namespace membench
