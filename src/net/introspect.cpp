#include "net/introspect.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/contracts.hpp"

namespace byzcast::net {

namespace {

constexpr std::size_t kMaxRequestBytes = 8 * 1024;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    default: return "Error";
  }
}

}  // namespace

struct IntrospectServer::Client {
  int fd = -1;
  std::string in;
  std::string out;
  std::size_t out_pos = 0;
  bool responded = false;
};

IntrospectServer::IntrospectServer(EventLoop& loop) : loop_(loop) {}

IntrospectServer::~IntrospectServer() { shutdown(); }

void IntrospectServer::handle(std::string path, Handler h) {
  handlers_[std::move(path)] = std::move(h);
}

bool IntrospectServer::listen(const std::string& host, std::uint16_t port,
                              std::string* error) {
  sockaddr_in addr{};
  ::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host.empty() || host == "localhost") {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  } else if (host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error) *error = "unresolvable introspect host: " + host;
    return false;
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (error) *error = "socket: " + std::string(::strerror(errno));
    return false;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    if (error) {
      *error = "introspect bind/listen " + host + ":" + std::to_string(port) +
               ": " + ::strerror(errno);
    }
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  BZC_ENSURES(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
              0);
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  loop_.add_fd(listen_fd_, EPOLLIN,
               [this](std::uint32_t) { handle_accept(); });
  return true;
}

void IntrospectServer::shutdown() {
  if (listen_fd_ >= 0) {
    loop_.del_fd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  while (!clients_.empty()) close_client(clients_.begin()->first);
}

void IntrospectServer::handle_accept() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient failure; the listener stays up
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto client = std::make_unique<Client>();
    client->fd = fd;
    Client* raw = client.get();
    clients_[raw] = std::move(client);
    loop_.add_fd(fd, EPOLLIN, [this, raw](std::uint32_t events) {
      on_client_event(raw, events);
    });
  }
}

void IntrospectServer::on_client_event(Client* client, std::uint32_t events) {
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    close_client(client);
    return;
  }
  if ((events & EPOLLIN) != 0 && !client->responded) {
    char buf[4096];
    while (true) {
      const ssize_t n = ::read(client->fd, buf, sizeof buf);
      if (n > 0) {
        client->in.append(buf, static_cast<std::size_t>(n));
        if (client->in.size() > kMaxRequestBytes) {
          ++stats_.bad_requests;
          close_client(client);
          return;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      close_client(client);  // EOF before a complete request, or error
      return;
    }
    if (!maybe_respond(client)) return;  // incomplete request: keep reading
    // flush() inside maybe_respond may have finished and freed the client;
    // only a still-live one needs writability to drain the rest.
    if (clients_.contains(client)) loop_.mod_fd(client->fd, EPOLLOUT);
    return;
  }
  if ((events & EPOLLOUT) != 0 && client->responded) flush(client);
}

bool IntrospectServer::maybe_respond(Client* client) {
  const std::size_t header_end = client->in.find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  ++stats_.requests;

  // "GET /path?query HTTP/1.x"
  const std::size_t line_end = client->in.find("\r\n");
  const std::string line = client->in.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  Response response;
  if (sp1 == std::string::npos || sp2 == sp1 ||
      line.substr(0, sp1) != "GET") {
    ++stats_.bad_requests;
    response.status = 400;
    response.body = "only GET is supported\n";
  } else {
    std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    std::string query;
    if (const std::size_t q = target.find('?'); q != std::string::npos) {
      query = target.substr(q + 1);
      target.resize(q);
    }
    const auto it = handlers_.find(target);
    if (it == handlers_.end()) {
      ++stats_.bad_requests;
      response.status = 404;
      response.body = "unknown path: " + target + "\n";
    } else {
      response = it->second(query);
    }
  }

  std::string head = "HTTP/1.0 " + std::to_string(response.status) + " " +
                     status_text(response.status) + "\r\n";
  head += "Content-Type: " + response.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  head += "Connection: close\r\n\r\n";
  client->out = std::move(head);
  client->out += response.body;
  client->responded = true;
  flush(client);
  return true;
}

void IntrospectServer::flush(Client* client) {
  while (client->out_pos < client->out.size()) {
    const ssize_t n =
        ::send(client->fd, client->out.data() + client->out_pos,
               client->out.size() - client->out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      client->out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    close_client(client);
    return;
  }
  close_client(client);  // response fully written: HTTP/1.0, one shot
}

void IntrospectServer::close_client(Client* client) {
  const auto it = clients_.find(client);
  if (it == clients_.end()) return;
  loop_.del_fd(client->fd);
  ::close(client->fd);
  clients_.erase(it);
}

std::map<std::string, std::string> parse_query(const std::string& query) {
  std::map<std::string, std::string> out;
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    if (const std::size_t eq = pair.find('='); eq != std::string::npos) {
      out[pair.substr(0, eq)] = pair.substr(eq + 1);
    } else if (!pair.empty()) {
      out[pair] = "";
    }
    pos = amp + 1;
  }
  return out;
}

}  // namespace byzcast::net
