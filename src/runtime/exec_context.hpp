// How a solve is simulated, as opposed to what it computes: the thread
// pool that steps nodes and the shard request that partitions the
// vertex set (DESIGN.md §11). Every engine client takes one context and
// hands it to each SyncNetwork it builds; no algorithm reads it.
#pragma once

namespace lps {

class ThreadPool;

struct ExecContext {
  /// Steps nodes concurrently; nullptr = sequential. Not owned.
  ThreadPool* pool = nullptr;
  /// Round-engine shard request: 0 = auto (cache-sized shards), 1 =
  /// single shard, k = at most k shards. Bit-identical for any value.
  unsigned shards = 0;
};

}  // namespace lps
