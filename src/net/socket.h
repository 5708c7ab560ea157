#ifndef MSQL_NET_SOCKET_H_
#define MSQL_NET_SOCKET_H_

#include <cstdint>
#include <string>

#include "common/status.h"

// Thin POSIX socket helpers for the msqld server and client: RAII fd
// ownership plus the handful of blocking-with-deadline operations the
// blocking client needs. The server side uses non-blocking fds driven by
// an epoll loop per handler thread (net/server.cc).
namespace msql::net {

class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

  // Releases ownership of the fd to the caller.
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

// Binds and listens on host:port (TCP). port 0 picks an ephemeral port;
// the actual port is written to *bound_port when non-null.
Result<Socket> ListenOn(const std::string& host, uint16_t port, int backlog,
                        uint16_t* bound_port);

// Connects to host:port with a connect timeout; the returned socket is
// blocking with TCP_NODELAY set.
Result<Socket> ConnectTo(const std::string& host, uint16_t port,
                         int64_t timeout_ms);

Status SetNonBlocking(int fd, bool nonblocking);
void SetNoDelay(int fd);

// Blocking-with-deadline exact I/O for the client. timeout_ms <= 0 waits
// indefinitely. A peer close during ReadExact returns kIo ("connection
// closed"); a timeout returns kDeadlineExceeded.
Status ReadExact(int fd, void* buf, size_t n, int64_t timeout_ms);
Status WriteAll(int fd, const void* buf, size_t n, int64_t timeout_ms);

}  // namespace msql::net

#endif  // MSQL_NET_SOCKET_H_
