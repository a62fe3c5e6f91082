/**
 * @file
 * Per-layer probes of the traced run: direct calls into each layer's
 * public functions on the workload's own inputs, each call timed from
 * outside and recorded as a span.
 */

#ifndef SMASH_E2EBENCH_PROBES_HH
#define SMASH_E2EBENCH_PROBES_HH

#include "common.hh"
#include "e2e.hh"

namespace bench
{

/** net: ping over the live connection, the codec on the workload's
 *  requests and responses. Needs the server running. */
void runNetProbes(Harness& h, Tracer& tracer, Report& report);

/** engine/kernels, formats, registry, shard, common. */
void runLayerProbes(Harness& h, Tracer& tracer, Report& report);

/** serve: an in-process Session (batcher, pipeline) on the served
 *  registry. Run after the server has stopped. */
void runSessionProbes(Harness& h, Tracer& tracer, Report& report);

} // namespace bench

#endif // SMASH_E2EBENCH_PROBES_HH
