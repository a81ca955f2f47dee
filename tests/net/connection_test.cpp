// Connection's write path when the peer has gone away. Writing to such a
// socket raises SIGPIPE unless the send suppresses it, and SIGPIPE's default
// action kills the process; only byzcastd ignores the signal, so the load
// generator, byzcast-ctl, the benches and these tests all depend on the
// transport suppressing it.
#include "net/connection.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <csignal>

#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "sim/wire.hpp"

namespace byzcast::net {
namespace {

/// Puts SIGPIPE at its default disposition (kill the process) for the scope
/// of a test, whatever the test runner set.
class DefaultSigpipe {
 public:
  DefaultSigpipe() : previous_(std::signal(SIGPIPE, SIG_DFL)) {}
  ~DefaultSigpipe() { std::signal(SIGPIPE, previous_); }
  DefaultSigpipe(const DefaultSigpipe&) = delete;
  DefaultSigpipe& operator=(const DefaultSigpipe&) = delete;

 private:
  void (*previous_)(int);
};

TEST(Connection, QueuedFramesToClosedPeerCloseWithoutSigpipe) {
  const DefaultSigpipe default_sigpipe;
  // A socketpair whose far end is closed fails every write with EPIPE, the
  // error that comes with SIGPIPE, on the first attempt; a TCP peer's reset
  // reaches the writer only after a round trip.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  ::close(fds[1]);

  EventLoop loop;
  Connection conn(loop, fds[0], /*connecting=*/false,
                  /*max_frame_bytes=*/1 << 20,
                  /*send_queue_max_bytes=*/1 << 20);
  int closes = 0;
  conn.set_close_handler([&closes](Connection&) { ++closes; });
  conn.start();

  sim::WireMessage msg;
  msg.from = ProcessId{1};
  msg.to = ProcessId{2};
  msg.payload = Buffer(Bytes(512, std::uint8_t{0xab}));
  EXPECT_FALSE(conn.send_frame(encode_wire_frame(msg)));
  EXPECT_FALSE(conn.send_frame(encode_wire_frame(msg)));

  // Reaching this line at all is the SIGPIPE check.
  EXPECT_TRUE(conn.closed());
  EXPECT_EQ(closes, 1);
}

}  // namespace
}  // namespace byzcast::net
