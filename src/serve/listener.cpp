#include "serve/listener.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace deltanc::serve {

namespace {

/// One accepted connection: a line-framed reader feeding the service,
/// answers written back under a mutex.  Lives on its own thread.
class Connection {
 public:
  Connection(int fd, SolveService& service) : fd_(fd), service_(service) {}

  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  void run() {
    LineFramer framer;
    const auto submit_line = [this](std::string line) {
      submit(std::move(line));
    };
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // EOF or error: stop reading, answer what we have
      framer.feed(std::string_view(chunk, static_cast<std::size_t>(n)),
                  submit_line);
    }
    framer.finish(submit_line);
    wait_answered();
    shutdown_write();
    done_.store(true, std::memory_order_release);
  }

  /// True once run() has returned: the accept loop joins and erases
  /// finished connections so a long-lived server stays bounded.
  [[nodiscard]] bool done() const {
    return done_.load(std::memory_order_acquire);
  }

  /// Stops further reads so run() unblocks; in-flight answers still
  /// arrive (SIGTERM drain path).
  void shutdown_read() { ::shutdown(fd_, SHUT_RD); }

 private:
  void submit(std::string line) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++outstanding_;
    }
    service_.submit(line, [this](const std::string& response) {
      // Settle the count even when the client hung up and write_line
      // throws -- otherwise wait_answered() wedges this connection's
      // thread forever and the SIGTERM drain can never join it.  The
      // rethrow lets the service count the dropped response.
      try {
        write_line(response);
      } catch (...) {
        settle_one();
        throw;
      }
      settle_one();
    });
    // Blank lines get no sink call: settle the count we optimistically
    // took.  (Non-blank lines are answered exactly once, possibly
    // synchronously above, possibly later from a worker.)
    if (io::is_blank_request_line(line)) settle_one();
  }

  void settle_one() {
    std::lock_guard<std::mutex> lock(mu_);
    --outstanding_;
    if (outstanding_ == 0) idle_.notify_all();
  }

  void write_line(const std::string& response) {
    std::lock_guard<std::mutex> lock(write_mu_);
    std::string framed = response;
    framed.push_back('\n');
    std::size_t sent = 0;
    while (sent < framed.size()) {
      // MSG_NOSIGNAL: a hung-up client surfaces as EPIPE here (the
      // service counts the dropped response), never as a SIGPIPE kill.
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("client hung up");
      sent += static_cast<std::size_t>(n);
    }
  }

  void wait_answered() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock, [this] { return outstanding_ == 0; });
  }

  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  int fd_;
  SolveService& service_;
  std::mutex write_mu_;  // serializes response lines onto the socket
  std::mutex mu_;        // guards outstanding_
  std::condition_variable idle_;
  std::int64_t outstanding_ = 0;
  std::atomic<bool> done_{false};
};

}  // namespace

void LineFramer::feed(std::string_view bytes, const Submit& submit) {
  while (!bytes.empty()) {
    const std::size_t nl = std::min(bytes.find('\n'), bytes.size());
    if (!discarding_) {
      buffer_.append(bytes.substr(
          0, std::min(nl, io::kMaxRequestLineBytes + 1 - buffer_.size())));
      if (buffer_.size() > io::kMaxRequestLineBytes || nl < bytes.size()) {
        // An over-long line goes on at the limit plus one byte (the
        // service refuses it unparsed); the rest of it is dropped.
        discarding_ = nl == bytes.size();
        submit(std::exchange(buffer_, std::string()));
      }
    }
    if (nl == bytes.size()) return;
    discarding_ = false;
    bytes.remove_prefix(nl + 1);
  }
}

void LineFramer::finish(const Submit& submit) {
  // A truncated client write (no trailing newline before EOF) is still
  // a request -- same contract as --batch's final line.
  if (!buffer_.empty()) submit(std::exchange(buffer_, std::string()));
  discarding_ = false;
}

bool run_socket_server(SolveService& service, const ListenerOptions& options,
                       std::ostream& err) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    err << "serve: socket path too long: " << options.socket_path << "\n";
    return false;
  }
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    err << "serve: socket(): " << std::strerror(errno) << "\n";
    return false;
  }
  // Only steal the path when nobody answers on it: a stale socket from
  // a crash refuses the connect, a live server accepts it.  Unlinking
  // unconditionally would silently orphan a healthy instance even if
  // our own bind then failed.
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe >= 0) {
    const bool live = ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                                sizeof(addr)) == 0;
    ::close(probe);
    if (live) {
      err << "serve: a live server already answers on " << options.socket_path
          << "; refusing to replace it\n";
      ::close(listen_fd);
      return false;
    }
  }
  ::unlink(options.socket_path.c_str());  // a stale path from a crash
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 64) != 0) {
    err << "serve: cannot listen on " << options.socket_path << ": "
        << std::strerror(errno) << "\n";
    ::close(listen_fd);
    return false;
  }

  struct Client {
    std::unique_ptr<Connection> conn;
    std::thread thread;
  };
  std::vector<Client> clients;

  const auto stopped = [&options] {
    return options.stop != nullptr && *options.stop != 0;
  };
  while (!stopped()) {
    if (options.reload != nullptr && *options.reload != 0) {
      *options.reload = 0;
      service.reload();
      err << "serve: reloaded (warm layer dropped, caches reopened)\n";
    }
    // Reap finished conversations every tick so a long-lived server
    // does not accumulate one Connection + exited thread per past
    // client; `clients` stays bounded by *live* connections.
    for (auto it = clients.begin(); it != clients.end();) {
      if (it->conn->done()) {
        it->thread.join();
        it = clients.erase(it);
      } else {
        ++it;
      }
    }
    // Poll with a short tick so signal flags are observed promptly even
    // when no client ever connects.
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200 /*ms*/);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    Client client;
    client.conn = std::make_unique<Connection>(fd, service);
    Connection* conn = client.conn.get();
    client.thread = std::thread([conn] { conn->run(); });
    clients.push_back(std::move(client));
  }

  // SIGTERM/SIGINT drain: no new connections, stop reading from the
  // open ones, answer everything already accepted, then tear down.
  ::close(listen_fd);
  for (Client& client : clients) client.conn->shutdown_read();
  for (Client& client : clients) {
    if (client.thread.joinable()) client.thread.join();
  }
  service.drain();
  ::unlink(options.socket_path.c_str());
  return true;
}

}  // namespace deltanc::serve
