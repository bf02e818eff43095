// The benchmark's load client: one thread polling a few TCP connections to
// dlner_serve, in an open loop (send on a schedule whatever the responses)
// or a closed loop (a fixed window of requests outstanding per connection).
//
// Open-loop latency is timed from each request's scheduled send time, not
// from when the client managed to send it, so a client or server stall
// that delays later sends is charged to those requests; how late the
// client actually sent is kept separately (Call::sent_us).
#ifndef PERF_CLIENT_H_
#define PERF_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perf {

/// One request/response exchange. The request line carries "id": its
/// index in the call vector, which is how responses are matched.
struct Call {
  int conn = 0;
  std::string line;         // request, without the newline
  std::int64_t due_us = 0;  // scheduled send time (NowUs clock)
  std::int64_t sent_us = -1;
  std::int64_t done_us = -1;  // response line read; -1 = no response
  std::string response;
};

class LoadClient {
 public:
  LoadClient() = default;
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Opens `n_conns` connections to 127.0.0.1:port.
  bool Connect(int port, int n_conns);

  /// Open loop: sends calls (sorted by due_us) at their due times on their
  /// connections, then waits for the outstanding responses until
  /// `deadline_us`.
  void RunOpen(std::vector<Call>* calls, std::int64_t deadline_us);

  /// Closed loop: every connection keeps `window` calls outstanding; each
  /// response read before `stop_us` releases the next call on its
  /// connection, due (and sent) at once. `make(conn, id)` returns the
  /// request line for a new call. Waits for the last responses until
  /// `deadline_us`.
  void RunClosed(int window, std::int64_t stop_us, std::int64_t deadline_us,
                 const std::function<std::string(int, std::int64_t)>& make,
                 std::vector<Call>* calls);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
  };

  // Sends as much queued output as the socket takes; false on error.
  bool Flush(Conn* c);
  // Waits up to `timeout_us` for readable (or writable, when output is
  // queued) sockets, then reads every complete response line into `calls`.
  // Returns the ids answered.
  std::vector<std::int64_t> Poll(std::int64_t timeout_us,
                                 std::vector<Call>* calls);

  std::vector<Conn> conns_;
};

}  // namespace perf

#endif  // PERF_CLIENT_H_
