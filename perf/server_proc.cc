#include "perf/server_proc.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>

#include "perf/stats.h"

namespace perf {

namespace {

// Reads from `fd` into `buf` until it holds a full line or `deadline_us`.
bool ReadLine(int fd, std::string* buf, std::string* line,
              std::int64_t deadline_us) {
  for (;;) {
    const std::size_t nl = buf->find('\n');
    if (nl != std::string::npos) {
      *line = buf->substr(0, nl);
      buf->erase(0, nl + 1);
      return true;
    }
    const std::int64_t left_ms = (deadline_us - NowUs()) / 1000;
    if (left_ms <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(std::min<std::int64_t>(left_ms, 1000))) <
        0) {
      return false;
    }
    if (!(p.revents & (POLLIN | POLLHUP | POLLERR))) continue;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buf->append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace

std::unique_ptr<ServerProcess> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args) {
  std::vector<std::string> argv_s = {binary};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  if (std::find(args.begin(), args.end(), "--port") == args.end()) {
    argv_s.push_back("--port");
    argv_s.push_back("0");
  }
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) return nullptr;
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return nullptr;
  }
  if (pid == 0) {
    // Only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  std::unique_ptr<ServerProcess> proc(new ServerProcess);
  proc->pid_ = pid;
  proc->stdout_fd_ = pipe_fds[0];

  const std::int64_t deadline = NowUs() + 60'000'000;
  std::string buf, line;
  static const std::string kListening = "listening on ";
  while (ReadLine(proc->stdout_fd_, &buf, &line, deadline)) {
    if (line.compare(0, kListening.size(), kListening) != 0) continue;
    const std::size_t colon = line.rfind(':');
    if (colon != std::string::npos) {
      proc->port_ = std::atoi(line.c_str() + colon + 1);
    }
    break;
  }
  if (proc->port_ <= 0) return nullptr;  // the destructor kills the child
  return proc;
}

ServerProcess::~ServerProcess() { Kill(); }

void ServerProcess::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 20, '\n');
  }
  return 0.0;
}

double CpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  const std::string stat((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name start at field 3; utime
  // and stime are fields 14 and 15.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 1));
  std::string skip;
  for (int f = 3; f < 14; ++f) fields >> skip;
  double utime = 0.0, stime = 0.0;
  if (!(fields >> utime >> stime)) return 0.0;
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  HostTicks t;
  if (!(in >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int f = 0; f < 8; ++f) {
    double v = 0.0;
    if (!(in >> v)) return HostTicks{};
    t.total += v;
    if (f == 7) t.steal = v;
  }
  return t;
}

bool ServerProcess::Stop() {
  if (pid_ <= 0) return false;
  std::string ack;
  RoundTrip(port_, "{\"cmd\":\"shutdown\"}", &ack, 10000);
  const std::int64_t deadline = NowUs() + 30'000'000;
  int status = 0;
  char drain[4096];
  while (NowUs() < deadline) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      Kill();  // closes the pipe
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    // Keep the pipe drained so the child's final report never blocks.
    pollfd p{stdout_fd_, POLLIN, 0};
    if (::poll(&p, 1, 10) > 0 && (p.revents & POLLIN)) {
      if (::read(stdout_fd_, drain, sizeof(drain)) <= 0) ::usleep(10000);
    }
  }
  Kill();
  return false;
}

bool RunChild(const std::vector<std::string>& argv_in, std::string* out) {
  std::vector<std::string> argv_s = argv_in;
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  out->clear();
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(pipe_fds[0], chunk, sizeof(chunk));
    if (n > 0) {
      out->append(chunk, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(pipe_fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string SelfExecutable() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : std::string();
}

bool RoundTrip(int port, const std::string& line, std::string* response,
               int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  const std::string framed = line + "\n";
  for (std::size_t off = 0; ok && off < framed.size();) {
    const ssize_t n =
        ::send(fd, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    ok = n > 0;
    if (ok) off += static_cast<std::size_t>(n);
  }
  std::string buf;
  ok = ok && ReadLine(fd, &buf, response,
                      NowUs() + static_cast<std::int64_t>(timeout_ms) * 1000);
  ::close(fd);
  return ok;
}

}  // namespace perf
