#include "net/connection.hpp"

#include <errno.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <utility>

namespace byzcast::net {

namespace {
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr int kMaxIov = 16;
}  // namespace

Connection::Connection(EventLoop& loop, int fd, bool connecting,
                       std::size_t max_frame_bytes,
                       std::size_t send_queue_max_bytes)
    : loop_(loop),
      fd_(fd),
      established_(!connecting),
      send_queue_max_(send_queue_max_bytes),
      decoder_(max_frame_bytes) {}

Connection::~Connection() {
  if (fd_ >= 0) {
    loop_.del_fd(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

void Connection::start() {
  // A connecting socket signals completion via EPOLLOUT.
  want_write_ = !established_;
  loop_.add_fd(fd_, EPOLLIN | (want_write_ ? EPOLLOUT : 0u),
               [this](std::uint32_t events) { handle_events(events); });
}

void Connection::handle_events(std::uint32_t events) {
  if (fd_ < 0) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    close();
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (!established_) {
      int err = 0;
      socklen_t len = sizeof err;
      if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        close();
        return;
      }
      established_ = true;
      if (on_established_) on_established_(*this);
      if (fd_ < 0) return;  // handler closed us
    }
    if (!flush_writes()) return;
    update_write_interest();
  }
  if ((events & EPOLLIN) != 0) handle_readable();
}

void Connection::handle_readable() {
  std::uint8_t buf[kReadChunk];
  while (fd_ >= 0) {
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n > 0) {
      stats_.bytes_in += static_cast<std::uint64_t>(n);
      decoder_.feed(buf, static_cast<std::size_t>(n));
      while (auto frame = decoder_.next()) {
        ++stats_.frames_in;
        if (on_frame_) on_frame_(*this, std::move(*frame));
        if (fd_ < 0) return;  // handler closed us
      }
      if (decoder_.error() != FrameDecoder::Error::kNone) {
        // Desynchronized or hostile stream: reset the connection.
        close();
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof buf) return;
      continue;  // more may be buffered
    }
    if (n == 0) {  // EOF
      close();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close();
    return;
  }
}

bool Connection::send_frame(std::vector<Buffer> chunks) {
  if (fd_ < 0) return false;
  std::size_t frame_bytes = 0;
  for (const Buffer& b : chunks) frame_bytes += b.size();
  if (stats_.send_queue_bytes + frame_bytes > send_queue_max_) {
    ++stats_.frames_dropped;
    return false;
  }
  for (Buffer& b : chunks) {
    if (b.empty()) continue;
    send_queue_.push_back(Chunk{std::move(b), 0});
  }
  stats_.send_queue_bytes += frame_bytes;
  if (stats_.send_queue_bytes > stats_.send_queue_high_water) {
    stats_.send_queue_high_water = stats_.send_queue_bytes;
  }
  ++stats_.frames_out;
  if (established_) {
    if (!flush_writes()) return false;
    update_write_interest();
  }
  return true;
}

bool Connection::flush_writes() {
  while (!send_queue_.empty() && fd_ >= 0) {
    struct iovec iov[kMaxIov];
    int iovcnt = 0;
    for (const Chunk& c : send_queue_) {
      if (iovcnt == kMaxIov) break;
      iov[iovcnt].iov_base =
          const_cast<std::uint8_t*>(c.buf.data() + c.offset);
      iov[iovcnt].iov_len = c.buf.size() - c.offset;
      ++iovcnt;
    }
    // sendmsg with MSG_NOSIGNAL, not writev: a write to a peer that reset
    // the connection must fail with EPIPE rather than raise SIGPIPE, whose
    // default action kills every process that has not ignored it.
    struct msghdr msg {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      close();
      return false;
    }
    stats_.bytes_out += static_cast<std::uint64_t>(n);
    stats_.send_queue_bytes -= static_cast<std::size_t>(n);
    std::size_t remaining = static_cast<std::size_t>(n);
    while (remaining > 0) {
      Chunk& front = send_queue_.front();
      const std::size_t left = front.buf.size() - front.offset;
      if (remaining >= left) {
        remaining -= left;
        send_queue_.pop_front();
      } else {
        front.offset += remaining;
        remaining = 0;
      }
    }
  }
  return true;
}

void Connection::update_write_interest() {
  if (fd_ < 0) return;
  const bool want = !send_queue_.empty() || !established_;
  if (want == want_write_) return;
  want_write_ = want;
  loop_.mod_fd(fd_, EPOLLIN | (want ? EPOLLOUT : 0u));
}

void Connection::close() {
  if (fd_ < 0) return;
  loop_.del_fd(fd_);
  ::close(fd_);
  fd_ = -1;
  stats_.send_queue_bytes = 0;
  send_queue_.clear();
  if (on_close_) {
    // Fire once; the handler typically destroys this object.
    const CloseHandler handler = std::move(on_close_);
    on_close_ = nullptr;
    handler(*this);
  }
}

}  // namespace byzcast::net
