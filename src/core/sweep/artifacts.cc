#include "core/sweep/artifacts.hh"

#include <cstring>

#include "core/sweep/sweep.hh"
#include "core/workloads.hh"
#include "support/error.hh"
#include "support/hash.hh"

namespace d16sim::core::sweep
{

namespace
{

/** Canonical probe component of the key preimage. Unlike jobKey()'s
 *  display segment, the cache spec carries the *full* configuration —
 *  geometry and policy flags — so any future policy ablation gets its
 *  own key instead of colliding. */
std::string
probeSpec(const JobSpec &spec)
{
    auto cacheSpec = [](const mem::CacheConfig &cfg) {
        return std::to_string(cfg.sizeBytes) + ":" +
               std::to_string(cfg.blockBytes) + ":" +
               std::to_string(cfg.subBlockBytes) + ":" +
               std::to_string(cfg.assoc) + ":" +
               (cfg.prefetchWrapAround ? "pf1" : "pf0") + ":" +
               (cfg.writeAllocate ? "wa1" : "wa0") + ":" +
               (cfg.writeBack ? "wb1" : "wb0");
    };
    switch (spec.probe) {
      case ProbeKind::None:
        return "base";
      case ProbeKind::FetchBuffer:
        return "fb" + std::to_string(spec.busBytes);
      case ProbeKind::CacheSim:
        return "cache:i=" + cacheSpec(spec.icache) +
               ",d=" + cacheSpec(spec.dcache);
      case ProbeKind::ImmClass:
        return "imm";
    }
    panic("unknown probe kind");
}

std::string
contentKey(const JobSpec &spec, const std::string &uarch,
           const std::string &probe)
{
    const std::string &source = workload(spec.workload).source;
    Sha256 h;
    h.update("d16key-v2\n");
    h.update("toolchain:" + toolchainFingerprint() + "\n");
    h.update("workload:" + spec.workload + "\n");
    h.update("source:" + std::to_string(source.size()) + "\n");
    h.update(source);
    h.update("\n");
    h.update("variant:" + variantKey(spec.opts) + "\n");
    h.update("uarch:" + uarch + "\n");
    h.update("probe:" + probe + "\n");
    return h.hex();
}

Json
cacheConfigJson(const mem::CacheConfig &cfg)
{
    Json j = Json::object();
    j["sizeBytes"] = Json(cfg.sizeBytes);
    j["blockBytes"] = Json(cfg.blockBytes);
    j["subBlockBytes"] = Json(cfg.subBlockBytes);
    j["assoc"] = Json(cfg.assoc);
    j["prefetchWrapAround"] = Json(cfg.prefetchWrapAround);
    j["writeAllocate"] = Json(cfg.writeAllocate);
    j["writeBack"] = Json(cfg.writeBack);
    return j;
}

const Json &
member(const Json &j, const std::string &key)
{
    const Json *v = j.find(key);
    if (!v)
        fatal("artifact json: missing member '", key, "'");
    return *v;
}

uint64_t
u64Member(const Json &j, const std::string &key)
{
    return static_cast<uint64_t>(member(j, key).asInt());
}

mem::CacheConfig
cacheConfigFromJson(const Json &j)
{
    mem::CacheConfig cfg;
    cfg.sizeBytes = static_cast<uint32_t>(u64Member(j, "sizeBytes"));
    cfg.blockBytes = static_cast<uint32_t>(u64Member(j, "blockBytes"));
    cfg.subBlockBytes =
        static_cast<uint32_t>(u64Member(j, "subBlockBytes"));
    cfg.assoc = static_cast<uint32_t>(u64Member(j, "assoc"));
    cfg.prefetchWrapAround = member(j, "prefetchWrapAround").asBool();
    cfg.writeAllocate = member(j, "writeAllocate").asBool();
    cfg.writeBack = member(j, "writeBack").asBool();
    return cfg;
}

Json
cacheStatsJson(const mem::CacheStats &s)
{
    Json j = Json::object();
    j["reads"] = Json(s.reads);
    j["writes"] = Json(s.writes);
    j["readMisses"] = Json(s.readMisses);
    j["writeMisses"] = Json(s.writeMisses);
    j["wordsIn"] = Json(s.wordsIn);
    j["wordsOut"] = Json(s.wordsOut);
    return j;
}

mem::CacheStats
cacheStatsFromJson(const Json &j)
{
    mem::CacheStats s;
    s.reads = u64Member(j, "reads");
    s.writes = u64Member(j, "writes");
    s.readMisses = u64Member(j, "readMisses");
    s.writeMisses = u64Member(j, "writeMisses");
    s.wordsIn = u64Member(j, "wordsIn");
    s.wordsOut = u64Member(j, "wordsOut");
    return s;
}

const char *
probeName(ProbeKind kind)
{
    switch (kind) {
      case ProbeKind::None: return "base";
      case ProbeKind::FetchBuffer: return "fetch";
      case ProbeKind::CacheSim: return "cache";
      case ProbeKind::ImmClass: return "imm";
    }
    panic("unknown probe kind");
}

ProbeKind
probeFromName(const std::string &name)
{
    if (name == "base")
        return ProbeKind::None;
    if (name == "fetch")
        return ProbeKind::FetchBuffer;
    if (name == "cache")
        return ProbeKind::CacheSim;
    if (name == "imm")
        return ProbeKind::ImmClass;
    fatal("artifact json: unknown probe kind '", name, "'");
}

} // namespace

const std::string &
toolchainFingerprint()
{
    // PR-numbered: PR 10 added the microarchitectural axes. Bump on
    // any measurement-affecting toolchain change (see file comment).
    static const std::string fp = "d16sim-toolchain-pr10";
    return fp;
}

std::string
jobContentKey(const JobSpec &spec)
{
    return contentKey(spec, spec.uarch.key(), probeSpec(spec));
}

std::string
buildContentKey(const JobSpec &spec)
{
    // Branch-policy siblings share the build node's image and trace:
    // only the capture slice of the uarch enters this key.
    return contentKey(spec, spec.uarch.captureKey(), "base");
}

Json
specJson(const JobSpec &spec)
{
    Json j = Json::object();
    j["workload"] = Json(spec.workload);
    j["variant"] = Json(variantKey(spec.opts));
    if (!spec.uarch.isDefault())
        j["uarch"] = Json(spec.uarch.key());
    j["probe"] = Json(probeName(spec.probe));
    switch (spec.probe) {
      case ProbeKind::None:
      case ProbeKind::ImmClass:
        break;
      case ProbeKind::FetchBuffer:
        j["busBytes"] = Json(spec.busBytes);
        break;
      case ProbeKind::CacheSim:
        j["icache"] = cacheConfigJson(spec.icache);
        j["dcache"] = cacheConfigJson(spec.dcache);
        break;
    }
    return j;
}

JobSpec
specFromJson(const Json &j)
{
    JobSpec spec;
    spec.workload = member(j, "workload").asString();
    spec.opts = parseVariant(member(j, "variant").asString());
    if (const Json *u = j.find("uarch"))
        spec.uarch = parseUarch(u->asString());
    spec.probe = probeFromName(member(j, "probe").asString());
    switch (spec.probe) {
      case ProbeKind::None:
      case ProbeKind::ImmClass:
        break;
      case ProbeKind::FetchBuffer:
        spec.busBytes = static_cast<uint32_t>(u64Member(j, "busBytes"));
        break;
      case ProbeKind::CacheSim:
        spec.icache = cacheConfigFromJson(member(j, "icache"));
        spec.dcache = cacheConfigFromJson(member(j, "dcache"));
        break;
    }
    return spec;
}

Json
resultJson(const JobResult &result)
{
    Json j = Json::object();
    j["schema"] = Json("d16store-result-v2");
    j["probe"] = Json(probeName(result.probe));
    j["uarch"] = Json(result.uarch.key());

    Json r = Json::object();
    r["output"] = Json(result.run.output);
    r["exitStatus"] = Json(result.run.exitStatus);
    r["sizeBytes"] = Json(result.run.sizeBytes);
    r["textBytes"] = Json(result.run.textBytes);
    r["textInsns"] = Json(result.run.textInsns);
    const sim::SimStats &s = result.run.stats;
    r["instructions"] = Json(s.instructions);
    r["loads"] = Json(s.loads);
    r["stores"] = Json(s.stores);
    r["loadInterlocks"] = Json(s.loadInterlocks);
    r["fpInterlocks"] = Json(s.fpInterlocks);
    r["branches"] = Json(s.branches);
    r["takenBranches"] = Json(s.takenBranches);
    r["fpOps"] = Json(s.fpOps);
    r["traps"] = Json(s.traps);
    r["condBranches"] = Json(s.condBranches);
    r["branchStalls"] = Json(s.branchStalls);
    r["mispredicts"] = Json(s.mispredicts);
    r["fwdSavedStalls"] = Json(s.fwdSavedStalls);
    r["branchBubbles"] = Json(s.branchBubbles);
    j["run"] = std::move(r);

    switch (result.probe) {
      case ProbeKind::None:
        break;
      case ProbeKind::FetchBuffer: {
        Json f = Json::object();
        f["busBytes"] = Json(result.fetch.busBytes);
        f["requests"] = Json(result.fetch.requests);
        f["words"] = Json(result.fetch.words);
        j["fetch"] = std::move(f);
        break;
      }
      case ProbeKind::CacheSim:
        j["icacheCfg"] = cacheConfigJson(result.icacheCfg);
        j["dcacheCfg"] = cacheConfigJson(result.dcacheCfg);
        j["icache"] = cacheStatsJson(result.icache);
        j["dcache"] = cacheStatsJson(result.dcache);
        break;
      case ProbeKind::ImmClass: {
        Json m = Json::object();
        m["total"] = Json(result.imm.total);
        m["cmpImmediate"] = Json(result.imm.cmpImmediate);
        m["aluImmediate"] = Json(result.imm.aluImmediate);
        m["memDisplacement"] = Json(result.imm.memDisplacement);
        j["imm"] = std::move(m);
        break;
      }
    }
    return j;
}

JobResult
resultFromJson(const Json &j)
{
    if (member(j, "schema").asString() != "d16store-result-v2")
        fatal("artifact json: unknown result schema '",
              member(j, "schema").asString(), "'");
    JobResult result;
    result.probe = probeFromName(member(j, "probe").asString());
    result.uarch = parseUarch(member(j, "uarch").asString());

    const Json &r = member(j, "run");
    result.run.output = member(r, "output").asString();
    result.run.exitStatus =
        static_cast<int>(member(r, "exitStatus").asInt());
    result.run.sizeBytes = static_cast<uint32_t>(u64Member(r, "sizeBytes"));
    result.run.textBytes = static_cast<uint32_t>(u64Member(r, "textBytes"));
    result.run.textInsns = static_cast<uint32_t>(u64Member(r, "textInsns"));
    sim::SimStats &s = result.run.stats;
    s.instructions = u64Member(r, "instructions");
    s.loads = u64Member(r, "loads");
    s.stores = u64Member(r, "stores");
    s.loadInterlocks = u64Member(r, "loadInterlocks");
    s.fpInterlocks = u64Member(r, "fpInterlocks");
    s.branches = u64Member(r, "branches");
    s.takenBranches = u64Member(r, "takenBranches");
    s.fpOps = u64Member(r, "fpOps");
    s.traps = u64Member(r, "traps");
    s.condBranches = u64Member(r, "condBranches");
    s.branchStalls = u64Member(r, "branchStalls");
    s.mispredicts = u64Member(r, "mispredicts");
    s.fwdSavedStalls = u64Member(r, "fwdSavedStalls");
    s.branchBubbles = u64Member(r, "branchBubbles");

    switch (result.probe) {
      case ProbeKind::None:
        break;
      case ProbeKind::FetchBuffer: {
        const Json &f = member(j, "fetch");
        result.fetch.busBytes =
            static_cast<uint32_t>(u64Member(f, "busBytes"));
        result.fetch.requests = u64Member(f, "requests");
        result.fetch.words = u64Member(f, "words");
        break;
      }
      case ProbeKind::CacheSim:
        result.icacheCfg = cacheConfigFromJson(member(j, "icacheCfg"));
        result.dcacheCfg = cacheConfigFromJson(member(j, "dcacheCfg"));
        result.icache = cacheStatsFromJson(member(j, "icache"));
        result.dcache = cacheStatsFromJson(member(j, "dcache"));
        break;
      case ProbeKind::ImmClass: {
        const Json &m = member(j, "imm");
        result.imm.total = u64Member(m, "total");
        result.imm.cmpImmediate = u64Member(m, "cmpImmediate");
        result.imm.aluImmediate = u64Member(m, "aluImmediate");
        result.imm.memDisplacement = u64Member(m, "memDisplacement");
        break;
      }
    }
    return result;
}

std::vector<uint8_t>
resultBytes(const JobResult &result)
{
    const std::string text = resultJson(result).dump();
    return std::vector<uint8_t>(text.begin(), text.end());
}

JobResult
resultFromBytes(const std::vector<uint8_t> &bytes)
{
    return resultFromJson(Json::parse(
        std::string_view(reinterpret_cast<const char *>(bytes.data()),
                         bytes.size())));
}

std::vector<uint8_t>
blockTableBytes(const sim::BlockTable &table)
{
    std::vector<uint8_t> out;
    out.reserve(12 + 8 * table.spans.size());
    auto putU32 = [&out](uint32_t v) {
        out.push_back(static_cast<uint8_t>(v));
        out.push_back(static_cast<uint8_t>(v >> 8));
        out.push_back(static_cast<uint8_t>(v >> 16));
        out.push_back(static_cast<uint8_t>(v >> 24));
    };
    putU32(0x4d363144); // "D16M", little-endian
    putU32(1); // version
    putU32(static_cast<uint32_t>(table.spans.size()));
    for (const sim::BlockSpan &span : table.spans) {
        putU32(span.startPc);
        putU32(span.count);
    }
    return out;
}

sim::BlockTable
blockTableFromBytes(const std::vector<uint8_t> &bytes)
{
    auto u32At = [&bytes](size_t pos) {
        return static_cast<uint32_t>(bytes[pos]) |
               static_cast<uint32_t>(bytes[pos + 1]) << 8 |
               static_cast<uint32_t>(bytes[pos + 2]) << 16 |
               static_cast<uint32_t>(bytes[pos + 3]) << 24;
    };
    if (bytes.size() < 12 || std::memcmp(bytes.data(), "D16M", 4) != 0)
        fatal("block table deserialize: bad magic");
    if (u32At(4) != 1)
        fatal("block table deserialize: version ", u32At(4));
    const uint32_t count = u32At(8);
    if (bytes.size() != 12 + 8ull * count)
        fatal("block table deserialize: truncated");
    sim::BlockTable table;
    table.spans.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        sim::BlockSpan span;
        span.startPc = u32At(12 + 8ull * i);
        span.count = u32At(16 + 8ull * i);
        table.spans.push_back(span);
    }
    return table;
}

bool
loadResult(store::ArtifactStore &artifactStore, const JobSpec &spec,
           JobResult *out)
{
    std::vector<uint8_t> bytes;
    if (!artifactStore.get(store::Kind::Result, jobContentKey(spec),
                           &bytes))
        return false;
    try {
        *out = resultFromBytes(bytes);
    } catch (const Error &) {
        // Checksum-valid but schema-incompatible (e.g. written by a
        // different build with the same fingerprint — a bug, but never
        // worth serving): treat as a miss and re-execute.
        return false;
    }
    return true;
}

void
saveResult(store::ArtifactStore &artifactStore, const JobSpec &spec,
           const JobResult &result)
{
    artifactStore.put(store::Kind::Result, jobContentKey(spec),
                      resultBytes(result));
}

std::map<store::Kind, std::set<std::string>>
liveKeys(const std::vector<JobSpec> &jobs)
{
    std::map<store::Kind, std::set<std::string>> live;
    for (const JobSpec &spec : jobs) {
        live[store::Kind::Result].insert(jobContentKey(spec));
        // The engine keeps every slice's artifacts under the image's
        // default-slice build key.
        const std::string bkey =
            buildContentKey(JobSpec::base(spec.workload, spec.opts));
        live[store::Kind::Image].insert(bkey);
        live[store::Kind::Trace].insert(bkey);
        live[store::Kind::Meta].insert(bkey);
    }
    return live;
}

} // namespace d16sim::core::sweep
