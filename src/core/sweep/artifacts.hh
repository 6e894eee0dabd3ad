/**
 * @file
 * Artifact codecs and the content-key schema binding the sweep engine
 * to the persistent store (src/core/store).
 *
 * A job's identity for caching purposes is the SHA-256 of everything
 * that could change its result:
 *
 *     d16key-v2
 *     toolchain:<fingerprint>
 *     workload:<name>
 *     source:<byte count>\n<source bytes>
 *     variant:<variantKey(opts)>
 *     uarch:<UarchConfig::key(), empty for the default machine>
 *     probe:<canonical probe spec, full cache geometry + policy>
 *
 * (one line per component, '\n'-terminated; the exact preimage is
 * assembled in jobContentKey()). The build-level key is the same
 * preimage with "probe:base" and the uarch *capture* slice
 * (UarchConfig::captureKey(): forwarding/depth only). The sweep engine
 * stores every per-image artifact — image, block table, and the one
 * default-machine trace every slice replays from — under the default
 * slice's build key, shared by every probe job and uarch sibling of
 * the pair. v2 added the uarch line (and, in the result payload, the
 * branch-policy counters).
 *
 * The toolchain fingerprint is a *declared* version, bumped by hand
 * whenever a compiler/assembler/simulator change can alter any
 * measured number. It is deliberately not a hash of the binary: keys
 * must be stable across rebuilds of identical sources, or every
 * rebuild would cold-start every user. The golden key test
 * (tests/store_test.cc, tests/golden/store_keys_golden.json) pins the
 * derived keys of the entire full matrix, so an accidental schema or
 * fingerprint change fails loudly with an --update-golden escape
 * hatch.
 *
 * Also here: lossless JSON round-trips for JobSpec (the d16sweepd
 * wire format) and JobResult (the store's result payload — the full
 * measurement including program output, not just the canonical
 * emission subset), and byte codecs for the per-build artifacts.
 */

#ifndef D16SIM_CORE_SWEEP_ARTIFACTS_HH
#define D16SIM_CORE_SWEEP_ARTIFACTS_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/store/store.hh"
#include "core/sweep/result_store.hh"
#include "sim/block_engine.hh"
#include "support/json.hh"

namespace d16sim::core::sweep
{

/** The declared toolchain version folded into every content key.
 *  Bump when a toolchain change can alter any measured number, then
 *  regenerate tests/golden/store_keys_golden.json. */
const std::string &toolchainFingerprint();

/** Content key (64 hex chars) of one job — the store key of its
 *  result row. */
std::string jobContentKey(const JobSpec &spec);

/** Content key of the job's build node — the store key of its image,
 *  trace, and block-table artifacts. */
std::string buildContentKey(const JobSpec &spec);

// ----- JobSpec wire format ---------------------------------------------

/** Lossless JSON form: workload, variant key, probe kind and its
 *  parameters (full cache configs including policy flags). */
Json specJson(const JobSpec &spec);

/** Parse specJson() output; FatalError on malformed input. */
JobSpec specFromJson(const Json &j);

// ----- JobResult store payload -----------------------------------------

/** Full-fidelity JSON payload (a superset of JobResult::json(): adds
 *  program output and every SimStats counter, so a loaded result is
 *  indistinguishable from an executed one). */
Json resultJson(const JobResult &result);

/** Parse resultJson() output; FatalError on malformed input. */
JobResult resultFromJson(const Json &j);

/** Canonical payload bytes for the store (compact dump of
 *  resultJson). */
std::vector<uint8_t> resultBytes(const JobResult &result);
JobResult resultFromBytes(const std::vector<uint8_t> &bytes);

// ----- per-build artifacts ---------------------------------------------

/** Block-table metadata codec ("D16M"): the analyzer-proved block
 *  spans, stored so a reloaded image can be block-compiled without
 *  re-running CFG recovery. */
std::vector<uint8_t> blockTableBytes(const sim::BlockTable &table);
sim::BlockTable blockTableFromBytes(const std::vector<uint8_t> &bytes);

// ----- store front-end for the engine ----------------------------------

/** Fetch + decode one result row; false on miss/corruption. */
bool loadResult(store::ArtifactStore &store, const JobSpec &spec,
                JobResult *out);

/** Encode + store one result row under the job's content key. */
void saveResult(store::ArtifactStore &store, const JobSpec &spec,
                const JobResult &result);

/** The live key set of a job list, for ArtifactStore::gc(): result
 *  keys for every job plus image/trace/meta keys for every image. */
std::map<store::Kind, std::set<std::string>>
liveKeys(const std::vector<JobSpec> &jobs);

} // namespace d16sim::core::sweep

#endif // D16SIM_CORE_SWEEP_ARTIFACTS_HH
