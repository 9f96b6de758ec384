// The pipemap_server child process: spawned with its default flags plus
// an ephemeral port and a cache directory, stopped with SIGTERM (the
// daemon's graceful drain) and always reaped.
#pragma once

#include <string>

namespace perfbench {

/// Peak resident set (VmHWM) of process `pid` so far, in MiB; 0 when
/// /proc does not say.
double PeakRssMb(int pid);

class ServerProcess {
 public:
  /// Spawns `binary --port 0 --cache-dir cache_dir` and blocks until it
  /// prints its `listening HOST PORT` line. Throws std::runtime_error
  /// when the child fails to start.
  ServerProcess(const std::string& binary, const std::string& cache_dir);
  /// Stops the child if Stop() was not called.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  int pid() const { return pid_; }

  /// SIGTERM, then SIGKILL if the drain takes more than 20 s; waits for
  /// the child to exit. Returns true when it exited 0 on its own.
  bool Stop();

 private:
  int pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

}  // namespace perfbench
