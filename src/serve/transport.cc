#include "serve/transport.hh"

#include <cerrno>
#include <cstring>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/logging.hh"

namespace draco::serve {

namespace {

/** listen(2) backlog for every listener. */
constexpr int kListenBacklog = 128;

/** Fill @p addr with @p path; false when it does not fit sun_path. */
bool
makeUnixAddress(const std::string &path, sockaddr_un &addr)
{
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

int
listenUnix(const std::string &path)
{
    sockaddr_un addr;
    if (!makeUnixAddress(path, addr)) {
        warn("serve: socket path too long: %s", path.c_str());
        return -1;
    }
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        warn("serve: socket(): %s", std::strerror(errno));
        return -1;
    }
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) < 0 ||
        ::listen(fd, kListenBacklog) < 0) {
        warn("serve: bind/listen %s: %s", path.c_str(),
             std::strerror(errno));
        ::close(fd);
        return -1;
    }
    return fd;
}

int
connectUnix(const std::string &path)
{
    sockaddr_un addr;
    if (!makeUnixAddress(path, addr)) {
        warn("serve: socket path too long: %s", path.c_str());
        return -1;
    }
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        warn("serve: socket(): %s", std::strerror(errno));
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        warn("serve: connect %s: %s", path.c_str(), std::strerror(errno));
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Resolve @p host:@p port; @p passive for listeners. */
addrinfo *
resolve(const std::string &host, uint16_t port, bool passive)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = passive ? AI_PASSIVE : 0;
    addrinfo *result = nullptr;
    int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                           &hints, &result);
    if (rc != 0) {
        warn("serve: resolve %s:%u: %s", host.c_str(), port,
             gai_strerror(rc));
        return nullptr;
    }
    return result;
}

int
listenTcp(const std::string &host, uint16_t port)
{
    addrinfo *addrs = resolve(host, port, true);
    if (!addrs)
        return -1;
    int fd = -1;
    for (addrinfo *ai = addrs; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(fd, kListenBacklog) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(addrs);
    if (fd < 0)
        warn("serve: bind/listen %s:%u: %s", host.c_str(), port,
             std::strerror(errno));
    return fd;
}

int
connectTcp(const std::string &host, uint16_t port)
{
    addrinfo *addrs = resolve(host, port, false);
    if (!addrs)
        return -1;
    int fd = -1;
    for (addrinfo *ai = addrs; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(addrs);
    if (fd < 0) {
        warn("serve: connect %s:%u: %s", host.c_str(), port,
             std::strerror(errno));
        return -1;
    }
    setNoDelay(fd);
    return fd;
}

} // namespace

Endpoint
Endpoint::unix_(std::string path)
{
    Endpoint ep;
    ep.kind = Kind::Unix;
    ep.path = std::move(path);
    return ep;
}

std::optional<Endpoint>
Endpoint::parseTcp(const std::string &spec)
{
    // The port is everything after the last colon, so bracketless IPv6
    // hosts ("::1:7311") parse too.
    size_t colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == spec.size())
        return std::nullopt;
    unsigned long port;
    try {
        size_t used = 0;
        port = std::stoul(spec.substr(colon + 1), &used);
        if (used != spec.size() - colon - 1)
            return std::nullopt;
    } catch (...) {
        return std::nullopt;
    }
    if (port > 65535)
        return std::nullopt;
    Endpoint ep;
    ep.kind = Kind::Tcp;
    ep.host = spec.substr(0, colon);
    ep.port = static_cast<uint16_t>(port);
    return ep;
}

std::string
Endpoint::describe() const
{
    if (kind == Kind::Unix)
        return "unix:" + path;
    return "tcp:" + host + ":" + std::to_string(port);
}

int
listenEndpoint(const Endpoint &endpoint)
{
    return endpoint.kind == Endpoint::Kind::Unix
               ? listenUnix(endpoint.path)
               : listenTcp(endpoint.host, endpoint.port);
}

int
connectEndpoint(const Endpoint &endpoint)
{
    return endpoint.kind == Endpoint::Kind::Unix
               ? connectUnix(endpoint.path)
               : connectTcp(endpoint.host, endpoint.port);
}

uint16_t
tcpLocalPort(int fd)
{
    sockaddr_storage addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) != 0)
        return 0;
    if (addr.ss_family == AF_INET)
        return ntohs(reinterpret_cast<sockaddr_in *>(&addr)->sin_port);
    if (addr.ss_family == AF_INET6)
        return ntohs(reinterpret_cast<sockaddr_in6 *>(&addr)->sin6_port);
    return 0;
}

void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace draco::serve
