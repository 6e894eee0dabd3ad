#include "core/service/server.hh"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/service/protocol.hh"
#include "core/sweep/artifacts.hh"
#include "support/error.hh"
#include "support/framing.hh"

namespace d16sim::core::service
{

namespace
{

Json
okReply()
{
    Json j = Json::object();
    j["ok"] = Json(true);
    return j;
}

Json
errorReply(const std::string &message)
{
    Json j = Json::object();
    j["ok"] = Json(false);
    j["error"] = Json(message);
    return j;
}

} // namespace

SweepServer::SweepServer(ServerConfig cfg) : cfg_(std::move(cfg))
{
    cfg_.jobs = std::max(1, cfg_.jobs);
    cfg_.shards = std::max(1, cfg_.shards);
    if (!cfg_.storeDir.empty())
        artifacts_ =
            std::make_unique<store::ArtifactStore>(cfg_.storeDir);

    // A client that disconnects mid-stream must surface as a write
    // error on this thread, not a process-killing SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);

    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (cfg_.socketPath.empty() ||
        cfg_.socketPath.size() >= sizeof(addr.sun_path))
        fatal("socket path '", cfg_.socketPath,
              "' is empty or too long (max ",
              sizeof(addr.sun_path) - 1, " bytes)");
    std::memcpy(addr.sun_path, cfg_.socketPath.c_str(),
                cfg_.socketPath.size() + 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("cannot create socket: ", std::strerror(errno));
    // Replace a stale socket file from a previous server.
    ::unlink(cfg_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("cannot bind ", cfg_.socketPath, ": ",
              std::strerror(errno));
    if (::listen(listenFd_, 8) != 0)
        fatal("cannot listen on ", cfg_.socketPath, ": ",
              std::strerror(errno));
}

SweepServer::~SweepServer()
{
    if (listenFd_ >= 0)
        ::close(listenFd_);
    ::unlink(cfg_.socketPath.c_str());
}

void
SweepServer::serve()
{
    while (true) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            fatal("accept failed: ", std::strerror(errno));
        }
        bool keepServing = true;
        try {
            keepServing = handleClient(fd);
        } catch (const Error &e) {
            // A broken connection or malformed stream ends the client,
            // never the server.
            std::fprintf(stderr, "d16sweepd: client error: %s\n",
                         e.what());
        }
        ::close(fd);
        if (!keepServing)
            return;
    }
}

bool
SweepServer::handleClient(int fd)
{
    Json request;
    while (readFrame(fd, &request)) {
        ++requests_;
        const Json *proto = request.find("protocol");
        const Json *cmd = request.find("cmd");
        if (!proto || proto->asString() != kProtocolVersion) {
            writeFrame(fd, errorReply("unknown protocol (want " +
                                      std::string(kProtocolVersion) +
                                      ")"));
            continue;
        }
        const std::string command = cmd ? cmd->asString() : "";
        if (command == "ping") {
            Json reply = okReply();
            reply["protocol"] = Json(kProtocolVersion);
            writeFrame(fd, reply);
        } else if (command == "stats") {
            Json reply = okReply();
            reply["stats"] = statsJson();
            writeFrame(fd, reply);
        } else if (command == "shutdown") {
            writeFrame(fd, okReply());
            return false;
        } else if (command == "sweep") {
            ++sweepRequests_;
            handleSweep(fd, request);
        } else {
            writeFrame(fd, errorReply("unknown command '" + command +
                                      "'"));
        }
    }
    return true;
}

void
SweepServer::handleSweep(int fd, const Json &request)
{
    std::vector<sweep::JobSpec> jobs;
    try {
        const Json *list = request.find("jobs");
        if (!list)
            fatal("sweep request has no jobs");
        for (const Json &j : list->items())
            jobs.push_back(sweep::specFromJson(j));
    } catch (const Error &e) {
        Json frame = Json::object();
        frame["frame"] = Json("error");
        frame["error"] = Json(std::string(e.what()));
        writeFrame(fd, frame);
        return;
    }
    const Json *flag = request.find("replay");
    const bool replay = !flag || flag->asBool();
    flag = request.find("blockEngine");
    const bool blockEngine = !flag || flag->asBool();
    jobsRequested_ += jobs.size();

    std::mutex writeMutex;
    auto send = [this, fd, &writeMutex](const std::string &key,
                                        const sweep::JobResult &result) {
        Json frame = Json::object();
        frame["frame"] = Json("result");
        frame["key"] = Json(key);
        frame["result"] = sweep::resultJson(result);
        std::lock_guard<std::mutex> guard(writeMutex);
        writeFrame(fd, frame);
        ++jobsServed_;
    };

    // Rows the memory cache already holds stream immediately; one
    // engine settles the rest, its rows streaming as they land.
    std::vector<sweep::JobSpec> fresh;
    for (sweep::JobSpec &spec : jobs) {
        const std::string key = sweep::jobKey(spec);
        if (const sweep::JobResult *hit = results_.find(key)) {
            send(key, *hit);
            ++jobsFromMemory_;
            continue;
        }
        fresh.push_back(std::move(spec));
    }

    sweep::SweepEngine engine(results_, threads());
    engine.setReplay(replay);
    engine.setBlockEngine(blockEngine);
    engine.setArtifacts(artifacts_.get());
    engine.setResultCallback(send);
    engine.add(std::move(fresh));
    Json frame = Json::object();
    try {
        engine.run();
        frame["frame"] = Json("done");
        frame["count"] = Json(static_cast<int64_t>(jobs.size()));
        frame["timing"] = engine.timing().json();
    } catch (const Error &e) {
        frame["frame"] = Json("error");
        frame["error"] = Json(std::string(e.what()));
    }
    writeFrame(fd, frame);
}

Json
SweepServer::statsJson()
{
    Json j = Json::object();
    j["requests"] = Json(requests_);
    j["sweepRequests"] = Json(sweepRequests_);
    j["jobsRequested"] = Json(jobsRequested_);
    j["jobsServed"] = Json(jobsServed_);
    j["jobsFromMemory"] = Json(jobsFromMemory_);
    j["resultsInMemory"] = Json(static_cast<int64_t>(results_.size()));
    j["threads"] = Json(threads());
    if (artifacts_) {
        const store::StoreCounters c = artifacts_->counters();
        Json s = Json::object();
        s["dir"] = Json(cfg_.storeDir);
        s["hits"] = Json(c.hits);
        s["misses"] = Json(c.misses);
        s["puts"] = Json(c.puts);
        s["corrupt"] = Json(c.corrupt);
        s["hitRate"] = Json(c.hitRate());
        s["scan"] = artifacts_->scan().json();
        j["store"] = std::move(s);
    } else {
        j["store"] = Json();
    }
    return j;
}

} // namespace d16sim::core::service
