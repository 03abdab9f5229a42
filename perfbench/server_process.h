// The repository's xsql_server binary as a child process: started on a
// durable directory with an ephemeral port, stopped or SIGKILLed, and
// always reaped.
#ifndef PERFBENCH_SERVER_PROCESS_H_
#define PERFBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

class ServerProcess {
 public:
  /// Spawns `binary --dir <dir> --port 0 <extra...>` and waits (bounded)
  /// for the banner that names the bound port.
  static xsql::Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::string& dir,
      const std::vector<std::string>& extra_args);

  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }

  /// The process's peak resident set (VmHWM) in MB; 0 if unreadable.
  double PeakRssMb() const;

  /// SIGKILL and reap: a crash, as far as the durable directory knows.
  void Kill();
  /// SIGTERM (the server's graceful shutdown) and reap; escalates to
  /// SIGKILL if the server has not exited within `grace_ms`.
  void Stop(int grace_ms = 10000);

 private:
  ServerProcess(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}
  void Reap(int signal, int grace_ms);

  pid_t pid_ = -1;
  /// Read end of the server's stdout; kept open until the server exits
  /// so its shutdown banner never meets a closed pipe.
  int out_fd_ = -1;
  int port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROCESS_H_
