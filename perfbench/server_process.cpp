#include "server_process.h"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

extern char** environ;

namespace perfbench {

ServerProcess::ServerProcess(const std::string& binary,
                             const std::string& cache_dir) {
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out_pipe[0]);
  posix_spawn_file_actions_addclose(&actions, out_pipe[1]);
  std::vector<std::string> args = {binary, "--port", "0", "--cache-dir",
                                   cache_dir};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out_pipe[1]);
  stdout_fd_ = out_pipe[0];
  if (rc != 0) {
    pid_ = -1;
    ::close(stdout_fd_);
    throw std::runtime_error("cannot spawn " + binary);
  }

  // The first stdout line is `listening HOST PORT`.
  std::string line;
  char c = 0;
  while (line.size() < 256) {
    const ssize_t n = ::read(stdout_fd_, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || c == '\n') break;
    line.push_back(c);
  }
  std::istringstream in(line);
  std::string word, host;
  if (!(in >> word >> host >> port_) || word != "listening") {
    Stop();
    throw std::runtime_error("server did not start: '" + line + "'");
  }
}

ServerProcess::~ServerProcess() { Stop(); }

double PeakRssMb(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    std::getline(status, key);
  }
  return 0.0;
}

bool ServerProcess::Stop() {
  if (pid_ < 0) return false;
  ::kill(pid_, SIGTERM);
  // The final counters document the child prints on exit is a few
  // hundred bytes, far below the pipe's buffer, so it never blocks.
  int status = 0;
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > give_up) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(stdout_fd_);
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
