// In-process replay of sampled workload requests through the read path's
// public pieces, one stage at a time: HttpParser, ParseJson or
// DecodeBatchRequest, SnapshotStore::Current, CatalogSnapshot::Resolve,
// EstimateBatch on the stack's pool, and JsonWriter or EncodeBatchResponse.
// Also replays CatalogSnapshot::Compile on the live catalog and
// BuildHistogramBatch on the final frequency sets. Used by the traced run
// only, after the stack has stopped.

#pragma once

#include <string>
#include <vector>

#include "engine/catalog.h"
#include "engine/catalog_snapshot.h"
#include "util/thread_pool.h"
#include "workload_data.h"

namespace perfbench {

/// Medians over the replayed requests.
struct ReplayTimes {
  size_t requests = 0;
  double specs_per_request = 0;
  double parse_us = 0;
  double decode_us = 0;
  double acquire_ns = 0;
  double resolve_ns_per_spec = 0;
  double batch_us = 0;
  double ns_per_spec = 0;
  double render_us = 0;
};

/// Replays \p wires (complete HTTP requests; binary frames when \p binary).
/// False when a request does not survive a stage.
bool ReplayRequests(const std::vector<const std::string*>& wires, bool binary,
                    const hops::SnapshotStore& store, hops::ThreadPool* pool,
                    ReplayTimes* times);

/// Median milliseconds of CatalogSnapshot::Compile over \p repeats.
double ReplayCompileMs(const hops::Catalog& catalog, int repeats);

/// Median milliseconds per column of one BuildHistogramBatch over every
/// column's current frequencies, over \p repeats.
double ReplayRebuildMsPerColumn(const Columns& columns, size_t buckets,
                                hops::ThreadPool* pool, int repeats);

}  // namespace perfbench
