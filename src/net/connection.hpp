// One non-blocking TCP connection owned by an EventLoop. The read side
// accumulates bytes into a FrameDecoder and emits complete frames; the write
// side keeps a bounded queue of Buffer chunks (the shared-payload zero-copy
// chunks from encode_wire_frame) and flushes them with one gathered sendmsg
// (MSG_NOSIGNAL, so a reset peer never raises SIGPIPE) under EPOLLOUT.
//
// Backpressure: when the queued bytes would exceed `send_queue_max_bytes`
// the *whole frame* is dropped (never a partial frame — the stream would
// desynchronize) and counted; the protocol's retry/retransmission machinery
// recovers, exactly as it does from packet loss. The high-water mark of the
// queue is exported for the "is the send queue the bottleneck" question.
//
// Loop-thread-only, like everything the loop owns.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/buffer.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"

namespace byzcast::net {

class Connection {
 public:
  struct Stats {
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t frames_dropped = 0;  // send-queue overflow
    std::size_t send_queue_bytes = 0;
    std::size_t send_queue_high_water = 0;
  };

  using FrameHandler = std::function<void(Connection&, DecodedFrame)>;
  /// Fired exactly once, on EOF, socket error, or a framing violation
  /// (decoder poisoned). The connection has deregistered its fd and closed
  /// it by the time this runs; the owner should drop the object.
  using CloseHandler = std::function<void(Connection&)>;
  /// Fired once when an in-progress connect() completes successfully.
  using EstablishedHandler = std::function<void(Connection&)>;

  /// Takes ownership of `fd` (already non-blocking). `connecting` marks a
  /// dialed socket whose connect() is still in progress: writes queue until
  /// the EPOLLOUT establishment check passes.
  Connection(EventLoop& loop, int fd, bool connecting,
             std::size_t max_frame_bytes, std::size_t send_queue_max_bytes);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void set_frame_handler(FrameHandler h) { on_frame_ = std::move(h); }
  void set_close_handler(CloseHandler h) { on_close_ = std::move(h); }
  void set_established_handler(EstablishedHandler h) {
    on_established_ = std::move(h);
  }

  /// Registers with the loop. Call after the handlers are set.
  void start();

  /// Queues one frame's chunks (header + shared payload) and flushes as far
  /// as the socket allows. Returns false when the frame was dropped because
  /// the queue is over its cap (or the connection is closed).
  bool send_frame(std::vector<Buffer> chunks);

  /// Closes now; fires the close handler (once).
  void close();

  [[nodiscard]] bool established() const { return established_; }
  /// Non-kNone after a framing violation poisoned the read side (the usual
  /// cause of a close that is neither EOF nor a socket error).
  [[nodiscard]] FrameDecoder::Error decode_error() const {
    return decoder_.error();
  }
  [[nodiscard]] bool closed() const { return fd_ < 0; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] int fd() const { return fd_; }

 private:
  struct Chunk {
    Buffer buf;
    std::size_t offset = 0;
  };

  void handle_events(std::uint32_t events);
  void handle_readable();
  /// Flushes the queue; false when the connection died doing so.
  bool flush_writes();
  void update_write_interest();

  EventLoop& loop_;
  int fd_;
  bool established_;
  bool want_write_ = false;
  std::size_t send_queue_max_;
  FrameDecoder decoder_;
  std::deque<Chunk> send_queue_;
  Stats stats_;
  FrameHandler on_frame_;
  CloseHandler on_close_;
  EstablishedHandler on_established_;
};

}  // namespace byzcast::net
