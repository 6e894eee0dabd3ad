/**
 * @file
 * d16sweepd — the sweep engine as a persistent service.
 *
 * Listens on a Unix socket for batched sweep requests (protocol.hh),
 * settles each request's job list on one sweep engine over a
 * content-addressed artifact store, and streams result rows back as
 * they land. Because the server process outlives requests, repeated
 * sweeps hit its in-memory result cache; with --store they also
 * survive server restarts.
 *
 *   d16sweepd --socket /tmp/d16.sock                 serve
 *   d16sweepd --socket S --store DIR --jobs 4        4 workers + store
 *
 * Stop it with `d16sweep --connect SOCK --shutdown` (or SIGTERM).
 * --jobs defaults to the machine's hardware concurrency.
 *
 * Exit status: 0 after a clean shutdown request, 2 on bad usage or a
 * socket/store setup failure.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/service/server.hh"
#include "support/cli.hh"
#include "support/error.hh"

int
main(int argc, char **argv)
{
    using namespace d16sim;
    using namespace d16sim::core;

    service::ServerConfig cfg;
    cfg.jobs = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));

    cli::Cli parser("d16sweepd", "--socket PATH [--store DIR] [--jobs N]");
    parser.stringValue("--socket", &cfg.socketPath);
    parser.stringValue("--store", &cfg.storeDir);
    parser.value("--jobs", [&](const std::string &v) {
        cfg.jobs = std::max(1, std::atoi(v.c_str()));
        return true;
    });
    switch (parser.parse(argc, argv)) {
      case cli::CliStatus::Help: return 0;
      case cli::CliStatus::Error: return 2;
      case cli::CliStatus::Ok: break;
    }
    if (cfg.socketPath.empty()) {
        std::fprintf(stderr, "d16sweepd: --socket PATH is required\n");
        return 2;
    }

    try {
        service::SweepServer server(cfg);
        std::fprintf(stderr,
                     "d16sweepd: listening on %s (%d threads%s%s)\n",
                     cfg.socketPath.c_str(), cfg.jobs,
                     cfg.storeDir.empty() ? "" : ", store ",
                     cfg.storeDir.c_str());
        server.serve();
        std::fprintf(stderr, "d16sweepd: shutdown requested, exiting\n");
    } catch (const Error &e) {
        std::fprintf(stderr, "d16sweepd: %s\n", e.what());
        return 2;
    }
    return 0;
}
