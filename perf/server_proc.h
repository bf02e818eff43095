// Child processes: dlner_serve, started from the built binary, found on the
// ephemeral port it prints and stopped with the admin shutdown command; and
// run-to-completion workers.
#ifndef PERF_SERVER_PROC_H_
#define PERF_SERVER_PROC_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

namespace perf {

class ServerProcess {
 public:
  /// Starts `binary` with `args` (plus --port 0 when absent) and waits for
  /// its "listening on HOST:PORT" line. Null on failure. The child is
  /// killed if this process dies.
  static std::unique_ptr<ServerProcess> Start(
      const std::string& binary, const std::vector<std::string>& args);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }

  pid_t pid() const { return pid_; }

  /// Graceful stop through {"cmd":"shutdown"}; kills the child if it has
  /// not exited after 30 s. True when it exited with status 0.
  bool Stop();

 private:
  ServerProcess() = default;
  void Kill();

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

/// VmHWM (peak resident set) of process `pid` in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);

/// CPU time (user + system, all threads, exited ones included) of process
/// `pid` in seconds, at clock-tick resolution; 0 when unreadable. A guest
/// kernel with paravirtual steal-time accounting leaves out time the
/// hypervisor gave the vCPU to other guests.
double CpuSeconds(pid_t pid);

/// Clock ticks of all vCPUs from /proc/stat: stolen by the hypervisor, and
/// in total (steal included). Zero when unreadable.
struct HostTicks {
  double steal = 0.0;
  double total = 0.0;
};
HostTicks ReadHostTicks();

/// Runs `argv` to completion and captures its standard output. True when
/// it exited with status 0.
bool RunChild(const std::vector<std::string>& argv, std::string* out);

/// The path of the running executable.
std::string SelfExecutable();

/// Sends one line on a fresh connection and reads one response line.
/// False on a connection error or after `timeout_ms`.
bool RoundTrip(int port, const std::string& line, std::string* response,
               int timeout_ms = 60000);

}  // namespace perf

#endif  // PERF_SERVER_PROC_H_
