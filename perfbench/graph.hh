/**
 * @file
 * Single-threaded replay of the sweep engine's job graph, one span per
 * layer call.
 *
 * GraphRunner makes the same decisions core::sweep::SweepEngine::run()
 * makes — deduplicate, settle stored results, group by build node,
 * reuse stored traces/images/block tables, capture once per node with
 * two or more replayable jobs, replay the siblings, simulate the rest —
 * but calls each layer's public function directly on the calling
 * thread, so a Tracer can time every call. Its rows must be
 * byte-identical to the engine's; the benchmark checks that on every
 * traced run.
 */

#ifndef PERFBENCH_GRAPH_HH
#define PERFBENCH_GRAPH_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/store/store.hh"
#include "core/sweep/result_store.hh"
#include "tracer.hh"

namespace perfbench
{

class GraphRunner
{
  public:
    using ResultCallback =
        std::function<void(const std::string &,
                           const d16sim::core::sweep::JobResult &)>;

    /** `artifacts` may be null (storeless); `tracer` may be null
     *  (untraced). Neither is owned. */
    GraphRunner(d16sim::core::sweep::ResultStore &results,
                d16sim::core::store::ArtifactStore *artifacts,
                Tracer *tracer)
        : results_(results), artifacts_(artifacts), tracer_(tracer)
    {}

    /** Fires once per job settled, as the engine's callback does. */
    void setResultCallback(ResultCallback cb) { onResult_ = std::move(cb); }

    /** Execute `jobs` to completion on the calling thread. */
    void run(std::vector<d16sim::core::sweep::JobSpec> jobs);

    /** In-memory size of every trace captured so far. */
    uint64_t traceBytes() const { return traceBytes_; }

  private:
    struct Node;
    void runNode(Node &node);
    void commit(const std::string &key,
                const d16sim::core::sweep::JobSpec &spec,
                d16sim::core::sweep::JobResult result);
    bool storeGet(d16sim::core::store::Kind kind, const std::string &key,
                  std::vector<uint8_t> *bytes);
    void storePut(d16sim::core::store::Kind kind, const std::string &key,
                  const std::vector<uint8_t> &bytes);

    d16sim::core::sweep::ResultStore &results_;
    d16sim::core::store::ArtifactStore *artifacts_;
    Tracer *tracer_;
    ResultCallback onResult_;
    uint64_t traceBytes_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_GRAPH_HH
