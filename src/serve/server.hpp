// JSONL socket server for the routing service.
//
// Transport + scheduling only — every byte of protocol semantics lives
// in serve/request.*. The server owns:
//
//   accept thread   one per listening socket (unix or TCP loopback)
//   reader threads  one per client: split the byte stream into lines,
//                   enforce the max-line bound, then execute each
//                   request and write its response before reading on.
//                   A reader does not read while it executes — that is
//                   the backpressure; the kernel socket buffer does the
//                   rest.
//
// A counting semaphore sized like the shared thread pool
// (thread_pool::resolve_threads(0)) caps how many requests execute at
// once across all clients. A slot is held only while a request
// executes, never while its response is written, so a client that stops
// reading stalls only its own connection.
//
// Ordering: within one client, responses always come back in request
// order (one reader executes them one after another); across clients no
// order is promised. Requests of different clients execute
// concurrently, which is safe because engine execution is stateless per
// request (the context cache is internally synchronized).
//
// Shutdown (stop()): listeners close, client reads half-close, every
// request already read off the wire is answered and its response
// flushed before sockets close — a client that stops sending always
// gets every answer it paid for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include <memory>

namespace qubikos::serve {

class engine;

struct server_options {
    /// Reject (and answer with an oversized_line envelope) any request
    /// line longer than this many bytes.
    std::size_t max_line_bytes = 1u << 20;
};

class server {
public:
    /// The engine must outlive the server.
    explicit server(engine& eng, server_options options = {});
    ~server();

    server(const server&) = delete;
    server& operator=(const server&) = delete;

    /// Binds a unix-domain socket at `path` (unlinking a stale one) and
    /// starts accepting. Throws std::runtime_error on bind failure.
    void listen_unix(const std::string& path);

    /// Binds 127.0.0.1:<port> (0 = ephemeral) and starts accepting;
    /// returns the bound port.
    int listen_tcp(int port);

    /// Adopts an already-connected socket (e.g. one end of a
    /// socketpair) as a client. The server owns the fd from here on.
    void add_client(int fd);

    /// Stops accepting, half-closes client reads, answers every request
    /// already on the wire, closes sockets and joins all threads.
    /// Idempotent; also run by the destructor.
    void stop();

    /// Total requests answered so far (including error envelopes).
    [[nodiscard]] std::uint64_t requests_served() const;

private:
    struct impl;
    std::unique_ptr<impl> impl_;
};

}  // namespace qubikos::serve
