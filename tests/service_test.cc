/**
 * @file
 * Tests for the d16sweepd service layer: the JobSpec wire round trip,
 * a served sweep's byte-identity with a local run, memory-cache reuse
 * across requests, the stats/ping/shutdown commands, and server-side
 * error reporting.
 *
 * The server runs in-process on a Unix socket under a temp directory;
 * each fixture spins up its own server thread and shuts it down
 * through the protocol (which is itself the shutdown test).
 */

#include <cstring>
#include <thread>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/service/client.hh"
#include "core/service/server.hh"
#include "core/sweep/artifacts.hh"
#include "core/sweep/sweep.hh"
#include "support/error.hh"
#include "support/framing.hh"

using namespace d16sim;
using namespace d16sim::core;

namespace
{

/** mkdtemp-backed scratch directory, recursively removed on scope
 *  exit. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char buf[] = "/tmp/d16service_test.XXXXXX";
        if (!mkdtemp(buf))
            fatal("mkdtemp failed");
        path = buf;
    }

    ~TempDir() { removeTree(path); }

    static void
    removeTree(const std::string &dir)
    {
        DIR *d = ::opendir(dir.c_str());
        if (!d) {
            ::unlink(dir.c_str());
            return;
        }
        while (dirent *e = ::readdir(d)) {
            if (std::strcmp(e->d_name, ".") == 0 ||
                std::strcmp(e->d_name, "..") == 0)
                continue;
            const std::string child = dir + "/" + e->d_name;
            struct stat st;
            if (::lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
                removeTree(child);
            else
                ::unlink(child.c_str());
        }
        ::closedir(d);
        ::rmdir(dir.c_str());
    }
};

/** A small matrix exercising every probe kind (and both multi-job
 *  and single-job build nodes). */
std::vector<sweep::JobSpec>
miniMatrix()
{
    std::vector<sweep::JobSpec> jobs;
    const mc::CompileOptions d16 = mc::CompileOptions::d16();
    const mc::CompileOptions dlxe = mc::CompileOptions::dlxe();
    for (const std::string w : {"towers", "queens"}) {
        jobs.push_back(sweep::JobSpec::base(w, d16));
        jobs.push_back(sweep::JobSpec::base(w, dlxe));
        jobs.push_back(sweep::JobSpec::fetch(w, d16, 4));
        jobs.push_back(sweep::JobSpec::imm(
            w, mc::CompileOptions::dlxe(16, false)));
    }
    mem::CacheConfig cfg;
    cfg.sizeBytes = 1024;
    cfg.blockBytes = 16;
    cfg.subBlockBytes = 8;
    jobs.push_back(sweep::JobSpec::cache("towers", d16, cfg, cfg));
    return jobs;
}

/** An in-process d16sweepd with its own socket + store dir. */
struct ServerFixture
{
    TempDir dir;
    std::unique_ptr<service::SweepServer> server;
    std::thread thread;

    explicit ServerFixture(int threads = 3, bool withStore = true)
    {
        service::ServerConfig cfg;
        cfg.socketPath = dir.path + "/d16.sock";
        if (withStore)
            cfg.storeDir = dir.path + "/store";
        cfg.jobs = threads;
        server = std::make_unique<service::SweepServer>(cfg);
        thread = std::thread([this] { server->serve(); });
    }

    ~ServerFixture()
    {
        if (thread.joinable()) {
            try {
                service::SweepClient(server->socketPath()).shutdown();
            } catch (const Error &) {
                // Already shut down by the test body.
            }
            thread.join();
        }
    }

    std::string socket() const { return server->socketPath(); }
};

TEST(Protocol, SpecJsonRoundTripsEveryFullMatrixJob)
{
    for (const sweep::JobSpec &spec : sweep::fullMatrix()) {
        const sweep::JobSpec back =
            sweep::specFromJson(sweep::specJson(spec));
        // Canonical identity and content identity both survive.
        EXPECT_EQ(sweep::jobKey(back), sweep::jobKey(spec));
        EXPECT_EQ(sweep::jobContentKey(back),
                  sweep::jobContentKey(spec));
    }
}

TEST(Protocol, MalformedSpecsAreFatal)
{
    EXPECT_THROW(sweep::specFromJson(Json::object()), FatalError);
    Json j = Json::object();
    j["workload"] = Json("towers");
    j["variant"] = Json("no-such-variant");
    j["probe"] = Json("base");
    EXPECT_THROW(sweep::specFromJson(j), FatalError);
    j["variant"] = Json("D16");
    j["probe"] = Json("warp-core");
    EXPECT_THROW(sweep::specFromJson(j), FatalError);
}

TEST(Service, ServedSweepMatchesLocalBytes)
{
    const std::vector<sweep::JobSpec> matrix = miniMatrix();

    sweep::ResultStore local;
    sweep::SweepEngine engine(local, 4);
    engine.add(matrix);
    engine.run();
    const std::string expected =
        sweep::sweepJson(local, nullptr).dump();

    ServerFixture fx;
    service::SweepClient client(fx.socket());
    EXPECT_TRUE(client.ping().find("ok")->asBool());

    sweep::ResultStore served;
    const Json timing1 = client.sweep(matrix, served);
    EXPECT_EQ(sweep::sweepJson(served, nullptr).dump(), expected);
    EXPECT_GT(timing1.find("executedRuns")->asInt(), 0);

    // Second request: everything from the server's memory cache — no
    // lane ran, and the bytes still match.
    sweep::ResultStore again;
    const Json timing2 = client.sweep(matrix, again);
    EXPECT_EQ(sweep::sweepJson(again, nullptr).dump(), expected);
    EXPECT_EQ(timing2.find("executedRuns")->asInt(), 0);
    EXPECT_EQ(timing2.find("executedBuilds")->asInt(), 0);

    const Json stats = client.stats();
    EXPECT_EQ(stats.find("sweepRequests")->asInt(), 2);
    EXPECT_EQ(stats.find("jobsRequested")->asInt(),
              static_cast<int64_t>(2 * matrix.size()));
    EXPECT_EQ(stats.find("jobsServed")->asInt(),
              static_cast<int64_t>(2 * matrix.size()));
    EXPECT_EQ(stats.find("jobsFromMemory")->asInt(),
              static_cast<int64_t>(matrix.size()));
    EXPECT_EQ(stats.find("resultsInMemory")->asInt(),
              static_cast<int64_t>(matrix.size()));
    // The store filled during the first request.
    const Json *storeStats = stats.find("store");
    ASSERT_TRUE(storeStats && storeStats->isObject());
    EXPECT_GT(storeStats->find("puts")->asInt(), 0);
}

TEST(Service, ServedTimingMatchesOneEngine)
{
    // The done frame's timing is the request's one engine: every
    // SweepTiming::json() key arrives, and each integer counter equals
    // that of a local engine with as many threads over the same matrix
    // and a fresh store. Uarch slices make the retiming counters
    // nonzero too.
    std::vector<sweep::JobSpec> matrix = miniMatrix();
    for (const char *key : {"fwd=on", "depth=7,bp=bimodal4"}) {
        sweep::JobSpec spec =
            sweep::JobSpec::base("towers", mc::CompileOptions::d16());
        spec.uarch = sweep::parseUarch(key);
        matrix.push_back(spec);
    }
    constexpr int Threads = 3;

    TempDir localDir;
    store::ArtifactStore localStore(localDir.path + "/store");
    sweep::ResultStore results;
    sweep::SweepEngine engine(results, Threads);
    engine.setArtifacts(&localStore);
    engine.add(matrix);
    engine.run();
    const Json local = engine.timing().json();
    ASSERT_GT(local.find("retimedSlices")->asInt(), 0);

    ServerFixture fx(Threads);
    service::SweepClient client(fx.socket());
    sweep::ResultStore served;
    const Json timing = client.sweep(matrix, served);
    for (const auto &[key, value] : local.members()) {
        const Json *got = timing.find(key);
        ASSERT_TRUE(got) << "served timing lacks " << key;
        if (value.isInt()) {
            EXPECT_EQ(got->asInt(), value.asInt()) << key;
        }
    }
    EXPECT_EQ(timing.members().size(), local.members().size());
    EXPECT_EQ(client.stats().find("threads")->asInt(), Threads);
}

TEST(Service, RestartedServerWarmsFromSharedStore)
{
    const std::vector<sweep::JobSpec> matrix = miniMatrix();
    TempDir dir;
    const std::string storeDir = dir.path + "/store";
    std::string expected;

    {
        service::ServerConfig cfg;
        cfg.socketPath = dir.path + "/a.sock";
        cfg.storeDir = storeDir;
        cfg.jobs = 4;
        service::SweepServer server(cfg);
        std::thread t([&server] { server.serve(); });
        service::SweepClient client(cfg.socketPath);
        sweep::ResultStore results;
        client.sweep(matrix, results);
        expected = sweep::sweepJson(results, nullptr).dump();
        client.shutdown();
        t.join();
    }

    // A fresh server process (fresh memory cache) over the same store
    // directory serves the matrix without executing anything.
    service::ServerConfig cfg;
    cfg.socketPath = dir.path + "/b.sock";
    cfg.storeDir = storeDir;
    cfg.jobs = 4;
    service::SweepServer server(cfg);
    std::thread t([&server] { server.serve(); });
    service::SweepClient client(cfg.socketPath);
    sweep::ResultStore results;
    const Json timing = client.sweep(matrix, results);
    EXPECT_EQ(sweep::sweepJson(results, nullptr).dump(), expected);
    EXPECT_EQ(timing.find("executedRuns")->asInt(), 0);
    EXPECT_EQ(timing.find("executedBuilds")->asInt(), 0);
    EXPECT_EQ(timing.find("storeResultHits")->asInt(),
              static_cast<int64_t>(matrix.size()));
    client.shutdown();
    t.join();
}

TEST(Service, ServerReportsSweepErrorsInBand)
{
    ServerFixture fx(1, false);
    service::SweepClient client(fx.socket());

    // An unknown workload parses as a spec but fails in the engine;
    // the server must answer with an error frame, not die.
    std::vector<sweep::JobSpec> bad;
    bad.push_back(sweep::JobSpec::base("no-such-workload",
                                       mc::CompileOptions::d16()));
    sweep::ResultStore results;
    EXPECT_THROW(client.sweep(bad, results), FatalError);

    // The connection (and server) is still usable.
    EXPECT_TRUE(client.ping().find("ok")->asBool());

    // A fetch-buffer width that is not a power of two of at least 4
    // bytes fails in the engine, beside a base job (the node's replay
    // folds) or alone (the direct fold), and must not kill the server.
    for (const uint32_t bus : {0u, 6u}) {
        std::vector<sweep::JobSpec> fetch;
        if (bus == 0)
            fetch.push_back(sweep::JobSpec::base(
                "bubblesort", mc::CompileOptions::d16()));
        fetch.push_back(sweep::JobSpec::fetch(
            "bubblesort", mc::CompileOptions::d16(), bus));
        sweep::ResultStore none;
        EXPECT_THROW(client.sweep(fetch, none), FatalError) << bus;
        EXPECT_TRUE(client.ping().find("ok")->asBool()) << bus;
    }

    sweep::ResultStore good;
    client.sweep({sweep::JobSpec::base("towers",
                                       mc::CompileOptions::d16())},
                 good);
    EXPECT_EQ(good.size(), 1u);
}

TEST(Service, UnknownCommandAndProtocolAreRejected)
{
    ServerFixture fx(1, false);

    // The client only emits valid requests, so poke the socket with
    // raw frames.
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, fx.socket().c_str(),
                fx.socket().size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    Json req = Json::object();
    req["protocol"] = Json("d16sweepd-v0");
    req["cmd"] = Json("ping");
    writeFrame(fd, req);
    Json reply;
    ASSERT_TRUE(readFrame(fd, &reply));
    EXPECT_FALSE(reply.find("ok")->asBool());
    EXPECT_NE(reply.find("error")->asString().find("protocol"),
              std::string::npos);

    req["protocol"] = Json("d16sweepd-v1");
    req["cmd"] = Json("flush");
    writeFrame(fd, req);
    ASSERT_TRUE(readFrame(fd, &reply));
    EXPECT_FALSE(reply.find("ok")->asBool());
    ::close(fd);

    // Neither malformed request hurt the server.
    EXPECT_TRUE(
        service::SweepClient(fx.socket()).ping().find("ok")->asBool());
}

} // namespace
