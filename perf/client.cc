#include "perf/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>

#include "perf/inputs.h"
#include "perf/stats.h"

namespace perf {

LoadClient::~LoadClient() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

bool LoadClient::Connect(int port, int n_conns) {
  // Timed waits wake within a microsecond instead of the default 50 us
  // slack, so the open-loop sender keeps to its schedule.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  for (int i = 0; i < n_conns; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    conns_.push_back(Conn{});
    conns_.back().fd = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
  return true;
}

bool LoadClient::Flush(Conn* c) {
  while (c->out_off < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                             c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    c->out_off += static_cast<std::size_t>(n);
  }
  c->out.clear();
  c->out_off = 0;
  return true;
}

std::vector<std::int64_t> LoadClient::Poll(std::int64_t timeout_us,
                                           std::vector<Call>* calls) {
  std::vector<pollfd> fds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    fds[i].fd = conns_[i].fd;
    fds[i].events = static_cast<short>(
        POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
  }
  timeout_us = std::max<std::int64_t>(0, timeout_us);
  timespec ts{static_cast<time_t>(timeout_us / 1000000),
              static_cast<long>(timeout_us % 1000000) * 1000};
  std::vector<std::int64_t> answered;
  if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return answered;
  char buf[65536];
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    if (fds[i].revents & POLLOUT) Flush(&c);
    if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      c.in.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
    }
    const std::int64_t now = NowUs();
    std::size_t start = 0;
    for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      std::string line = c.in.substr(start, nl - start);
      const std::int64_t id = ResponseId(line);
      if (id < 0 || id >= static_cast<std::int64_t>(calls->size())) continue;
      Call& call = (*calls)[static_cast<std::size_t>(id)];
      if (call.done_us >= 0) continue;
      call.done_us = now;
      call.response = std::move(line);
      answered.push_back(id);
    }
    c.in.erase(0, start);
  }
  return answered;
}

void LoadClient::RunOpen(std::vector<Call>* calls, std::int64_t deadline_us) {
  std::size_t next = 0;
  std::size_t outstanding = 0;
  for (;;) {
    const std::size_t first = next;
    const std::int64_t now = NowUs();
    while (next < calls->size() && (*calls)[next].due_us <= now) {
      Call& call = (*calls)[next++];
      Conn& c = conns_[static_cast<std::size_t>(call.conn)];
      c.out += call.line;
      c.out.push_back('\n');
    }
    for (Conn& c : conns_) {
      if (!c.out.empty()) Flush(&c);
    }
    const std::int64_t sent = NowUs();
    for (std::size_t i = first; i < next; ++i) (*calls)[i].sent_us = sent;
    outstanding += next - first;
    if (next == calls->size() && outstanding == 0) return;
    if (sent >= deadline_us) return;
    const std::int64_t wake =
        next < calls->size() ? (*calls)[next].due_us : deadline_us;
    outstanding -= Poll(wake - NowUs(), calls).size();
  }
}

void LoadClient::RunClosed(
    int window, std::int64_t stop_us, std::int64_t deadline_us,
    const std::function<std::string(int, std::int64_t)>& make,
    std::vector<Call>* calls) {
  std::size_t outstanding = 0;
  auto issue = [&](int conn) {
    Call call;
    call.conn = conn;
    call.line = make(conn, static_cast<std::int64_t>(calls->size()));
    call.due_us = NowUs();
    Conn& c = conns_[static_cast<std::size_t>(conn)];
    c.out += call.line;
    c.out.push_back('\n');
    calls->push_back(std::move(call));
    ++outstanding;
  };
  auto flush_all = [&] {
    for (Conn& c : conns_) {
      if (!c.out.empty()) Flush(&c);
    }
  };
  for (int conn = 0; conn < static_cast<int>(conns_.size()); ++conn) {
    for (int w = 0; w < window; ++w) issue(conn);
  }
  const std::int64_t start = NowUs();
  for (Call& call : *calls) call.sent_us = start;
  flush_all();
  for (;;) {
    const std::int64_t now = NowUs();
    if (outstanding == 0 || now >= deadline_us) return;
    const std::vector<std::int64_t> answered =
        Poll(std::min<std::int64_t>(deadline_us - now, 10000), calls);
    outstanding -= answered.size();
    const std::size_t first = calls->size();
    for (const std::int64_t id : answered) {
      const Call& done = (*calls)[static_cast<std::size_t>(id)];
      if (done.done_us < stop_us) issue(done.conn);
    }
    flush_all();
    const std::int64_t sent = NowUs();
    for (std::size_t i = first; i < calls->size(); ++i) {
      (*calls)[i].sent_us = sent;
    }
  }
}

}  // namespace perf
