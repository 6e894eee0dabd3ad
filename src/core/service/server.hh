/**
 * @file
 * d16sweepd server: sweep-as-a-service over a Unix socket.
 *
 * One server process owns one artifact store handle and one in-memory
 * ResultStore that persist across requests, so repeated sweeps of
 * overlapping matrices amortize: the first request fills the stores,
 * later ones stream straight from memory (no build, no simulation, no
 * disk read). The rest of a request runs on one SweepEngine over the
 * shared stores, whose workers settle one build node (image) each at
 * a time, and every result row is streamed to the client the moment
 * it lands.
 *
 * Requests are handled one client at a time — the concurrency budget
 * belongs to the engine's workers, not the accept loop. See
 * protocol.hh for the wire format.
 */

#ifndef D16SIM_CORE_SERVICE_SERVER_HH
#define D16SIM_CORE_SERVICE_SERVER_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/store/store.hh"
#include "core/sweep/sweep.hh"

namespace d16sim::core::service
{

struct ServerConfig
{
    std::string socketPath;
    std::string storeDir; //!< empty: serve without a persistent store
    int jobs = 1;         //!< engine worker threads
    /** Multiplies `jobs`: the engine runs jobs x shards workers. Kept
     *  for callers written against the former per-shard engine lanes;
     *  set `jobs` instead. */
    int shards = 1;
};

class SweepServer
{
  public:
    /** Binds and listens (replacing any stale socket file at the
     *  path); FatalError if the path is unusable. */
    explicit SweepServer(ServerConfig cfg);
    ~SweepServer();

    SweepServer(const SweepServer &) = delete;
    SweepServer &operator=(const SweepServer &) = delete;

    /** Accept loop; returns after a shutdown request. A per-client
     *  failure (bad request, dropped connection) is answered and/or
     *  logged to stderr, never fatal to the server. */
    void serve();

    const std::string &socketPath() const { return cfg_.socketPath; }

  private:
    /** One connection: handle requests until EOF. Returns false when
     *  a shutdown request was honored. */
    bool handleClient(int fd);
    void handleSweep(int fd, const Json &request);
    Json statsJson();
    int threads() const { return cfg_.jobs * cfg_.shards; }

    ServerConfig cfg_;
    int listenFd_ = -1;
    std::unique_ptr<store::ArtifactStore> artifacts_;
    sweep::ResultStore results_; //!< memory cache, lives across requests

    // Cumulative service counters (single-threaded accept loop).
    uint64_t requests_ = 0;
    uint64_t sweepRequests_ = 0;
    uint64_t jobsRequested_ = 0;
    uint64_t jobsServed_ = 0;
    uint64_t jobsFromMemory_ = 0;
};

} // namespace d16sim::core::service

#endif // D16SIM_CORE_SERVICE_SERVER_HH
