/**
 * @file
 * The benchmark's seeded inputs: the job lists of the two workloads and
 * the request stream that uarch-explore's traced run serves. The seed picks
 * which configurations run, never how much work runs (DESIGN in
 * perfbench/README.md, "Seed invariance").
 */

#ifndef PERFBENCH_JOBS_HH
#define PERFBENCH_JOBS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep/result_store.hh"

namespace perfbench
{

/** splitmix64: portable, so a seed means the same draw everywhere. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}
    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, n). */
    size_t below(size_t n) { return static_cast<size_t>(next() % n); }

  private:
    uint64_t state_;
};

/** paper-cold: sweep::fullMatrix(), in a seeded submission order (the
 *  engine canonicalizes order, so rows do not depend on it). */
std::vector<d16sim::core::sweep::JobSpec> paperColdJobs(uint64_t seed);

/** uarch-explore: 15 workloads x {D16, DLXe/32/3} x (the default
 *  capture slice + 3 drawn non-default fwd x depth slices), each with
 *  bp in {delay, static, bimodal<k>} (k drawn from 2..12) and one fb4
 *  probe. */
std::vector<d16sim::core::sweep::JobSpec> uarchExploreJobs(uint64_t seed);

enum class RequestClass { Repeat, Extend, Cold };
const char *className(RequestClass cls);

struct Request
{
    RequestClass cls;
    std::vector<d16sim::core::sweep::JobSpec> jobs;
};

/** Requests in the served stream. */
constexpr int kServedRequests = 150;

/** The served stream: `count` requests in fixed class shares (70% repeat,
 *  10% extend, 20% cold) over six similar-length workloads. */
std::vector<Request> servedStream(uint64_t seed, int count);

} // namespace perfbench

#endif // PERFBENCH_JOBS_HH
