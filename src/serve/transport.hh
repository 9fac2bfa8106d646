/**
 * @file
 * Stream-transport endpoints for the dracod wire protocol.
 *
 * The protocol itself (serve/wire.hh) only needs a connected stream
 * fd; this file supplies the two ways of getting one — a Unix-domain
 * socket path, or a TCP `host:port` — behind one Endpoint vocabulary
 * so the server, client, tools, and benches share the listen/connect
 * code instead of each hand-rolling sockaddr plumbing. TCP
 * connections get TCP_NODELAY (frames are latency-sensitive and
 * already batched), listeners get SO_REUSEADDR, and a TCP listener
 * bound to port 0 can report the kernel-chosen port back for tests
 * and benches.
 */

#ifndef DRACO_SERVE_TRANSPORT_HH
#define DRACO_SERVE_TRANSPORT_HH

#include <cstdint>
#include <optional>
#include <string>

namespace draco::serve {

/** One place a wire-protocol peer can listen or connect. */
struct Endpoint {
    enum class Kind : uint8_t {
        Unix, ///< Filesystem socket path.
        Tcp,  ///< host:port.
    };

    Kind kind = Kind::Unix;
    std::string path;    ///< Unix only.
    std::string host;    ///< TCP only.
    uint16_t port = 0;   ///< TCP only; 0 asks the kernel to pick.

    /** @return A Unix endpoint for @p path. */
    static Endpoint unix_(std::string path);

    /**
     * Parse a TCP endpoint from "host:port".
     *
     * @return nullopt when @p spec has no colon, an empty host, or a
     *         port outside [0, 65535].
     */
    static std::optional<Endpoint> parseTcp(const std::string &spec);

    /** @return "unix:<path>" or "tcp:<host>:<port>" for messages. */
    std::string describe() const;
};

/**
 * Bind and listen on @p endpoint.
 *
 * Unix endpoints unlink a stale path first; TCP endpoints resolve the
 * host (getaddrinfo, passive) and set SO_REUSEADDR.
 *
 * @return The listening fd, or -1 with a warning.
 */
int listenEndpoint(const Endpoint &endpoint);

/**
 * Connect a stream socket to @p endpoint (blocking connect).
 *
 * @return The connected fd, or -1 with a warning.
 */
int connectEndpoint(const Endpoint &endpoint);

/** @return The local TCP port @p fd is bound to, or 0 on error. */
uint16_t tcpLocalPort(int fd);

/** Set TCP_NODELAY on @p fd (no-op for non-TCP sockets). */
void setNoDelay(int fd);

} // namespace draco::serve

#endif // DRACO_SERVE_TRANSPORT_HH
