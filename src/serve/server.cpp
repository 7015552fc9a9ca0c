#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <semaphore>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "serve/engine.hpp"
#include "serve/request.hpp"
#include "util/thread_pool.hpp"

namespace qubikos::serve {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
    throw std::runtime_error("serve: " + what + ": " + std::strerror(errno));
}

bool write_all(int fd, const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

struct client_state {
    int fd = -1;
    std::atomic<bool> done{false};  // reader returned; reap() may join it
    std::thread reader;
};

}  // namespace

struct server::impl {
    engine& eng;
    server_options opts;
    /// Execution slots: at most this many requests run at once, across
    /// all connections.
    std::counting_semaphore<> slots;

    std::mutex mu;
    std::vector<std::unique_ptr<client_state>> clients;
    bool stopping = false;
    bool stopped = false;

    std::vector<int> listen_fds;
    std::vector<std::thread> acceptors;
    std::string unix_path;
    std::atomic<std::uint64_t> served{0};

    impl(engine& e, server_options o)
        : eng(e),
          opts(o),
          slots(static_cast<std::ptrdiff_t>(thread_pool::resolve_threads(0))) {}

    /// Executes one request line and writes its response; false once the
    /// client can no longer be written to.
    bool answer(int fd, const std::string& line, bool oversized) {
        static const obs::timer_id queue_wait = obs::timer("serve.queue_wait");
        {
            const obs::scoped_timer waited(queue_wait);
            slots.acquire();
        }
        std::string response;
        try {
            response = oversized ? error_line("", error_code::oversized_line,
                                              "request line exceeds " +
                                                  std::to_string(opts.max_line_bytes) + " bytes")
                                 : handle_line(eng, line);
        } catch (const std::exception& e) {
            response = error_line("", error_code::internal, e.what());
        }
        // Released before the write, so a client that stops reading
        // stalls only its own connection.
        slots.release();
        // Count before the write: a client that has read response i must
        // never observe requests_served() < i+1.
        served.fetch_add(1, std::memory_order_relaxed);
        response += '\n';
        return write_all(fd, response);
    }

    /// Reads, executes and answers one client's requests in order. The
    /// reader stops reading while it executes, which is the backpressure:
    /// the kernel socket buffer fills and the client's writes stall. It
    /// returns on EOF or on its first failed write, leaving the fd to
    /// reap() so stop() never shuts down a reused fd number.
    void reader_loop(client_state* c) {
        std::string line;
        char chunk[4096];
        bool drop = false;  // inside an oversized line: discard to '\n'
        for (;;) {
            const ssize_t n = ::recv(c->fd, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) break;
            for (ssize_t i = 0; i < n; ++i) {
                const char b = chunk[i];
                if (b == '\n') {
                    if ((drop || !line.empty()) && !answer(c->fd, line, drop)) return;
                    drop = false;
                    line.clear();
                    continue;
                }
                if (drop) continue;
                line += b;
                if (line.size() > opts.max_line_bytes) {
                    line.clear();
                    drop = true;
                }
            }
        }
        // A final unterminated line still gets an answer (clients that
        // half-close after their last request need no trailing newline).
        if (drop || !line.empty()) answer(c->fd, line, drop);
    }

    /// Joins and closes the clients whose readers have returned, or all
    /// of them. Caller holds mu.
    void reap(bool all) {
        std::erase_if(clients, [all](const std::unique_ptr<client_state>& c) {
            if (!all && !c->done.load()) return false;
            c->reader.join();
            ::close(c->fd);
            return true;
        });
    }

    void adopt(int fd) {
        const std::lock_guard<std::mutex> lock(mu);
        if (stopping) {
            ::close(fd);
            return;
        }
        reap(false);
        auto c = std::make_unique<client_state>();
        c->fd = fd;
        client_state* raw = c.get();
        clients.push_back(std::move(c));
        raw->reader = std::thread([this, raw] {
            reader_loop(raw);
            raw->done = true;
        });
    }

    void accept_loop(int lfd) {
        for (;;) {
            const int fd = ::accept(lfd, nullptr, nullptr);
            if (fd < 0) {
                if (errno == EINTR) continue;
                return;  // listener shut down
            }
            adopt(fd);
        }
    }

    void start_acceptor(int lfd) {
        {
            const std::lock_guard<std::mutex> lock(mu);
            listen_fds.push_back(lfd);
        }
        acceptors.emplace_back([this, lfd] { accept_loop(lfd); });
    }

    void stop() {
        {
            const std::lock_guard<std::mutex> lock(mu);
            if (stopped) return;
            stopped = true;
            stopping = true;
            // Unblock accept() (Linux: shutdown on a listener fails the
            // blocked call) and half-close client reads so readers see
            // EOF after the bytes already in flight.
            for (const int lfd : listen_fds) ::shutdown(lfd, SHUT_RDWR);
            for (const auto& c : clients) ::shutdown(c->fd, SHUT_RD);
        }
        for (auto& t : acceptors) t.join();
        acceptors.clear();
        for (const int lfd : listen_fds) ::close(lfd);
        listen_fds.clear();
        {
            // Readers answer everything already on the wire, then return.
            const std::lock_guard<std::mutex> lock(mu);
            reap(true);
        }
        if (!unix_path.empty()) ::unlink(unix_path.c_str());
    }
};

server::server(engine& eng, server_options options)
    : impl_(std::make_unique<impl>(eng, options)) {}

server::~server() { impl_->stop(); }

void server::listen_unix(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("serve: socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (lfd < 0) sys_fail("socket");
    ::unlink(path.c_str());  // a stale socket from a killed daemon
    if (::bind(lfd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(lfd, 64) != 0) {
        ::close(lfd);
        sys_fail("bind/listen on " + path);
    }
    impl_->unix_path = path;
    impl_->start_acceptor(lfd);
}

int server::listen_tcp(int port) {
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (lfd < 0) sys_fail("socket");
    const int one = 1;
    ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(lfd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(lfd, 64) != 0) {
        ::close(lfd);
        sys_fail("bind/listen on 127.0.0.1:" + std::to_string(port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(lfd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        ::close(lfd);
        sys_fail("getsockname");
    }
    impl_->start_acceptor(lfd);
    return static_cast<int>(ntohs(bound.sin_port));
}

void server::add_client(int fd) { impl_->adopt(fd); }

void server::stop() { impl_->stop(); }

std::uint64_t server::requests_served() const {
    return impl_->served.load(std::memory_order_relaxed);
}

}  // namespace qubikos::serve
