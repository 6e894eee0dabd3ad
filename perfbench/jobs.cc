#include "jobs.hh"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "core/sweep/sweep.hh"
#include "core/workloads.hh"

namespace perfbench
{

using namespace d16sim;
using core::sweep::JobSpec;

namespace
{

template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** The §4.1 sweep's 20 geometries (1K-16K x 8-64B blocks), as
 *  sweep::fullMatrix() builds them. */
std::vector<mem::CacheConfig>
paperGeometries()
{
    std::vector<mem::CacheConfig> out;
    for (uint32_t kb : {1u, 2u, 4u, 8u, 16u}) {
        for (uint32_t block : {8u, 16u, 32u, 64u}) {
            mem::CacheConfig cfg;
            cfg.sizeBytes = kb * 1024;
            cfg.blockBytes = block;
            cfg.subBlockBytes = std::min(block, 8u);
            out.push_back(cfg);
        }
    }
    return out;
}

/** The six fwd x depth capture slices; the default machine first. */
std::vector<sim::UarchConfig>
captureSlices()
{
    std::vector<sim::UarchConfig> out;
    for (bool fwd : {false, true}) {
        for (int depth : {5, 6, 7}) {
            sim::UarchConfig u;
            u.forward = fwd;
            u.depth = depth;
            out.push_back(u);
        }
    }
    return out;
}

sim::UarchConfig
withBranch(sim::UarchConfig slice, sim::BranchPolicy policy, int bhtLog2)
{
    slice.branch = policy;
    slice.bhtLog2 = bhtLog2;
    return slice;
}

JobSpec
onSlice(JobSpec spec, const sim::UarchConfig &uarch)
{
    spec.uarch = uarch;
    return spec;
}

} // namespace

const char *
className(RequestClass cls)
{
    switch (cls) {
      case RequestClass::Repeat:
        return "repeat";
      case RequestClass::Extend:
        return "extend";
      case RequestClass::Cold:
        return "cold";
    }
    return "?";
}

std::vector<JobSpec>
paperColdJobs(uint64_t seed)
{
    Rng rng(seed);
    std::vector<JobSpec> jobs = core::sweep::fullMatrix();
    shuffle(jobs, rng);
    return jobs;
}

std::vector<JobSpec>
uarchExploreJobs(uint64_t seed)
{
    Rng rng(seed);
    const std::vector<sim::UarchConfig> all = captureSlices();
    std::vector<sim::UarchConfig> nonDefault(all.begin() + 1, all.end());
    shuffle(nonDefault, rng);
    const std::vector<sim::UarchConfig> slices = {
        all[0], nonDefault[0], nonDefault[1], nonDefault[2]};

    std::vector<JobSpec> jobs;
    for (const core::Workload &w : core::workloadSuite()) {
        for (const mc::CompileOptions &opts :
             {mc::CompileOptions::d16(), mc::CompileOptions::dlxe()}) {
            for (const sim::UarchConfig &slice : slices) {
                const int k = 2 + static_cast<int>(rng.below(11));
                const JobSpec base = JobSpec::base(w.name, opts);
                jobs.push_back(onSlice(base, slice));
                jobs.push_back(onSlice(
                    base, withBranch(slice,
                                     sim::BranchPolicy::StaticNotTaken, 6)));
                jobs.push_back(onSlice(
                    base, withBranch(slice, sim::BranchPolicy::Bimodal, k)));
                jobs.push_back(
                    onSlice(JobSpec::fetch(w.name, opts, 4), slice));
            }
        }
    }
    return jobs;
}

namespace
{

/** One build node the stream has filled, and the probes it has served
 *  (an extend request must name probes the node has not seen). */
struct FilledNode
{
    JobSpec base;
    std::set<size_t> geometries;
    std::set<uint32_t> buses;
    std::set<int> bimodal;
};

} // namespace

std::vector<Request>
servedStream(uint64_t seed, int count)
{
    // Six workloads of similar dynamic length (1.2-2.6M instructions),
    // so a request's class, not which program it names, sets its
    // latency.
    const std::vector<std::string> pool = {"queens",   "quicksort",
                                           "dhrystone", "linpack",
                                           "towers",   "matrix"};
    const auto variants = core::sweep::paperVariants();
    const std::vector<mem::CacheConfig> geometries = paperGeometries();
    const std::vector<sim::UarchConfig> slices = captureSlices();
    // 2 cold, 1 extend, 7 repeat in every ten requests.
    const char pattern[] = "CRRERRCRRR";
    constexpr int kRepeatSlices = 24;

    Rng rng(seed);
    std::vector<Request> out;
    std::vector<FilledNode> nodes;
    std::vector<size_t> coldsByShape[6]; // (variants - 1) + 2 * kind
    int lastShape = 0;
    std::map<std::pair<size_t, size_t>, std::set<size_t>> slicesUsed;
    std::vector<size_t> cursor(pool.size(), 0);
    int cold = 0, extend = 0, repeat = 0;

    for (int i = 0; i < count; ++i) {
        const char cls = pattern[i % 10];
        if (cls == 'C') {
            // Workload, variant count, variants and probe kind follow
            // the request index; the seed picks slices and probes.
            Request req{RequestClass::Cold, {}};
            const size_t wi = static_cast<size_t>(cold) % pool.size();
            const size_t nv =
                1 + static_cast<size_t>(cold + cold / 6) % 2;
            const int kind = cold % 3;
            for (size_t k = 0; k < nv; ++k) {
                const size_t vi = cursor[wi]++ % variants.size();
                std::set<size_t> &used = slicesUsed[{wi, vi}];
                size_t si = 0;
                if (!used.empty()) {
                    std::vector<size_t> free;
                    for (size_t s = 1; s < slices.size(); ++s)
                        if (!used.count(s))
                            free.push_back(s);
                    si = free[rng.below(free.size())];
                }
                used.insert(si);
                const sim::UarchConfig &slice = slices[si];
                FilledNode node;
                node.base = onSlice(
                    JobSpec::base(pool[wi], variants[vi].second), slice);
                req.jobs.push_back(node.base);
                if (kind == 0) {
                    const size_t g1 = rng.below(geometries.size());
                    const size_t g2 =
                        (g1 + 1 + rng.below(geometries.size() - 1)) %
                        geometries.size();
                    for (size_t g : {g1, g2}) {
                        req.jobs.push_back(onSlice(
                            JobSpec::cache(pool[wi], variants[vi].second,
                                           geometries[g], geometries[g]),
                            slice));
                        node.geometries.insert(g);
                    }
                } else if (kind == 1) {
                    req.jobs.push_back(onSlice(
                        JobSpec::fetch(pool[wi], variants[vi].second, 4),
                        slice));
                    node.buses.insert(4);
                } else {
                    const int b = 2 + static_cast<int>(rng.below(11));
                    req.jobs.push_back(onSlice(
                        node.base,
                        withBranch(slice,
                                   sim::BranchPolicy::StaticNotTaken, 6)));
                    req.jobs.push_back(onSlice(
                        node.base,
                        withBranch(slice, sim::BranchPolicy::Bimodal, b)));
                    node.bimodal.insert(b);
                }
                nodes.push_back(std::move(node));
            }
            lastShape = static_cast<int>(nv - 1) + 2 * kind;
            coldsByShape[lastShape].push_back(out.size());
            out.push_back(std::move(req));
            ++cold;
        } else if (cls == 'E') {
            // One new probe on a node an earlier cold request filled:
            // its trace comes back from the store and replays.
            const int kind = extend % 3;
            std::vector<size_t> eligible;
            for (size_t n = 0; n < nodes.size(); ++n) {
                const FilledNode &f = nodes[n];
                if ((kind == 0 && f.geometries.size() < geometries.size()) ||
                    (kind == 1 && f.buses.size() < 2) ||
                    (kind == 2 && f.bimodal.size() < 11))
                    eligible.push_back(n);
            }
            FilledNode &node = nodes[eligible[rng.below(eligible.size())]];
            const JobSpec &b = node.base;
            Request req{RequestClass::Extend, {}};
            if (kind == 0) {
                std::vector<size_t> free;
                for (size_t g = 0; g < geometries.size(); ++g)
                    if (!node.geometries.count(g))
                        free.push_back(g);
                const size_t g = free[rng.below(free.size())];
                node.geometries.insert(g);
                req.jobs.push_back(onSlice(
                    JobSpec::cache(b.workload, b.opts, geometries[g],
                                   geometries[g]),
                    b.uarch));
            } else if (kind == 1) {
                const uint32_t bus = node.buses.count(4) ? 8 : 4;
                node.buses.insert(bus);
                req.jobs.push_back(
                    onSlice(JobSpec::fetch(b.workload, b.opts, bus),
                            b.uarch));
            } else {
                std::vector<int> free;
                for (int k = 2; k <= 12; ++k)
                    if (!node.bimodal.count(k))
                        free.push_back(k);
                const int k = free[rng.below(free.size())];
                node.bimodal.insert(k);
                req.jobs.push_back(onSlice(
                    b, withBranch(b.uarch, sim::BranchPolicy::Bimodal, k)));
            }
            out.push_back(std::move(req));
            ++extend;
        } else {
            // Resend 24 earlier cold slices of one six-row shape (two
            // variants, cache or bp probes): every repeat then streams
            // the same 144 memory-cache rows, enough work that thread
            // wake-ups do not dominate its latency. The seed picks the
            // slices.
            const int want = repeat % 2 == 0 ? 1 : 5;
            const std::vector<size_t> &from = coldsByShape[want].empty()
                                                  ? coldsByShape[lastShape]
                                                  : coldsByShape[want];
            Request req{RequestClass::Repeat, {}};
            for (int k = 0; k < kRepeatSlices; ++k) {
                const std::vector<JobSpec> &slice =
                    out[from[rng.below(from.size())]].jobs;
                req.jobs.insert(req.jobs.end(), slice.begin(), slice.end());
            }
            out.push_back(std::move(req));
            ++repeat;
        }
    }
    return out;
}

} // namespace perfbench
