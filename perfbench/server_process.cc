#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

/// A server recovering a large instance can take a few seconds to
/// print its banner; this bounds a hung start.
constexpr int kStartTimeoutMs = 120000;

}  // namespace

xsql::Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::string& dir,
    const std::vector<std::string>& extra_args) {
  std::vector<std::string> args = {binary, "--dir", dir, "--port", "0"};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    return xsql::Status::RuntimeError(std::string("pipe: ") +
                                      std::strerror(errno));
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return xsql::Status::RuntimeError(std::string("fork: ") +
                                      std::strerror(errno));
  }
  if (pid == 0) {
    // Child: dies with the load process (even a SIGKILLed one; Start
    // runs on the main thread, which lives as long as the process),
    // stdout into the pipe, stdin from /dev/null, and nothing else of the
    // load process's (client sockets) leaks into the server.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(fds[1], STDOUT_FILENO);
    const int devnull = open("/dev/null", O_RDONLY);
    if (devnull >= 0) dup2(devnull, STDIN_FILENO);
    for (int fd = 3; fd < 1024; ++fd) close(fd);
    execv(argv[0], argv.data());
    std::fprintf(stderr, "exec %s: %s\n", argv[0], std::strerror(errno));
    _exit(127);
  }
  close(fds[1]);
  std::unique_ptr<ServerProcess> server(new ServerProcess(pid, fds[0]));

  // The banner: "xsql server: dir=<dir> port=<N> max_connections=...".
  std::string out;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kStartTimeoutMs);
  while (server->port_ == 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) break;
    struct pollfd pfd = {server->out_fd_, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left)) <= 0) continue;
    char buf[512];
    const ssize_t n = read(server->out_fd_, buf, sizeof(buf));
    if (n <= 0) break;  // the server exited before its banner
    out.append(buf, static_cast<size_t>(n));
    const size_t at = out.find(" port=");
    if (at != std::string::npos &&
        out.find_first_of(" \n", at + 6) != std::string::npos) {
      server->port_ = std::atoi(out.c_str() + at + 6);
    }
  }
  if (server->port_ <= 0) {
    return xsql::Status::RuntimeError("xsql_server did not start; output: " +
                                      out);
  }
  return server;
}

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

void ServerProcess::Kill() { Reap(SIGKILL, 0); }

void ServerProcess::Stop(int grace_ms) { Reap(SIGTERM, grace_ms); }

void ServerProcess::Reap(int signal, int grace_ms) {
  if (pid_ > 0) {
    kill(pid_, signal);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(grace_ms);
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() >= deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
    out_fd_ = -1;
  }
}

}  // namespace perfbench
