// Unix-domain-socket transport for the persistent solve service.
//
// A SocketServer binds a UDS path, accepts connections, and runs each
// one as a framed JSONL conversation against a shared SolveService:
// every newline-terminated request line (plus a non-empty final line
// without a trailing newline -- a truncated client write is still a
// request) is submitted, and each response line is written back under a
// per-connection mutex, so concurrent worker answers never interleave
// bytes.  A line longer than io::kMaxRequestLineBytes is cut while it is
// framed (LineFramer) and answered once, unparsed, with a null id.
// Responses may arrive out of request order (workers race);
// clients correlate by the echoed "id".
//
// Shutdown contract: run() polls the `stop` flag (armed by the CLI's
// SIGTERM/SIGINT handler) between accepts; once it trips, the listener
// closes, open connections are shut down for reading (already-accepted
// requests still get their answers), and the service drains -- every
// accepted request answered exactly once, then rc 0.  The `reload` flag
// (SIGHUP) maps to SolveService::reload() between accepts.  Writes use
// MSG_NOSIGNAL: a client that hangs up mid-response costs a counted
// dropped response, never a SIGPIPE death.
#pragma once

#include <atomic>
#include <csignal>
#include <functional>
#include <string>
#include <string_view>

#include "serve/service.h"

namespace deltanc::serve {

/// The listener's line framing, on its own: splits a received byte
/// stream into request lines.  Each '\n' ends a line; a line longer than
/// io::kMaxRequestLineBytes is handed on at the limit plus one byte
/// (which SolveService refuses unparsed) and the rest of it, up to its
/// newline, is dropped as it arrives, so a connection never holds more
/// than that much of one line.
class LineFramer {
 public:
  using Submit = std::function<void(std::string line)>;

  /// Feeds received bytes; `submit` gets every line they complete.
  void feed(std::string_view bytes, const Submit& submit);
  /// End of stream: a non-empty partial line is still a request.
  void finish(const Submit& submit);
  /// Bytes of the current line held (at most kMaxRequestLineBytes + 1).
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size();
  }

 private:
  std::string buffer_;
  bool discarding_ = false;  ///< inside the dropped tail of a long line
};

struct ListenerOptions {
  std::string socket_path;  ///< UDS path; a stale file is unlinked first
  /// SIGTERM/SIGINT flag: when *stop becomes nonzero, run() stops
  /// accepting, finishes open conversations, drains, and returns.
  const volatile std::sig_atomic_t* stop = nullptr;
  /// SIGHUP flag: when *reload is nonzero it is reset and the service
  /// reloads (warm layer dropped, disk caches reopened).
  volatile std::sig_atomic_t* reload = nullptr;
};

/// Runs the accept loop until *options.stop trips (or the socket cannot
/// be bound).  Returns true on a clean drain; false (with a message on
/// `err`) when the socket could not be created/bound/listened.
bool run_socket_server(SolveService& service, const ListenerOptions& options,
                       std::ostream& err);

}  // namespace deltanc::serve
